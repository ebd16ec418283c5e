// Package store is the coordinator's crash-safe job store: a
// versioned JSONL append journal of job/cell/done records plus a
// snapshot directory of terminal job envelopes, stdlib only.
//
// The write path is a commit log, and one record decides each job's
// fate. A job admitted and a cell completed (its stats and gob-encoded
// result via the campaign wire codec) are each one appended JSONL
// record followed by fsync, so the record is durable before the
// transition is acknowledged anywhere else. A job reaching a terminal
// state commits by its snapshot alone: snapshots/<job-id>.json holds
// its canonical envelope plus manifest, written atomically
// (temp file, fsync, rename). The done record is the eviction marker:
// retention appends it and only then deletes the snapshot.
//
// The read path is replay-on-boot. Open replays the journal into
// per-job state, tolerates a torn final line (crash mid-append: the
// unacknowledged record is dropped), rejects real corruption with
// typed *DecodeError values naming the offending line (the
// internal/replay codec contract), and loads the snapshot directory.
// A job with a loadable snapshot is terminal; a done record without a
// snapshot means retention evicted the job, which is dropped
// silently; neither means the job is in flight. Open then compacts:
// the journal is rewritten to hold only in-flight jobs. Replay is
// idempotent — duplicated records re-apply to the same state — so a
// journal surviving a crash between append and acknowledgment still
// recovers exactly once.
//
// internal/serve threads this store through the coordinator (see
// OPERATIONS.md for the runbook view): recovered in-flight jobs
// re-queue their incomplete cells and keep completed results, merging
// to the same canonical envelope bytes as an uninterrupted run.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rhohammer/internal/campaign"
)

// journalName is the append log's file name inside the store dir.
const journalName = "journal.jsonl"

// snapshotDirName is the terminal-snapshot directory inside the store
// dir.
const snapshotDirName = "snapshots"

// JobMeta is the identity of one persisted job — everything needed to
// rebuild it against the spec registry after a restart.
type JobMeta struct {
	ID      string
	Spec    string
	Seed    int64
	Scale   float64
	Created time.Time
}

// CellResult is one durably completed cell: its grid index, stable
// key, the worker node that executed it (empty for local execution),
// its execution stats, and the gob-encoded result bytes from the
// campaign wire codec.
type CellResult struct {
	Index  int
	Key    string
	Node   string
	Stat   campaign.CellStat
	Result []byte
}

// Job is one journaled job as replay reconstructs it: metadata, the
// completed cells by index, and whether a done record marks its
// retention eviction.
type Job struct {
	Meta    JobMeta
	Cells   map[int]CellResult
	Evicted bool
}

// Snapshot is the durable form of one terminal job: enough to serve
// GET /v1/jobs/{id}/status, /result and /manifest after a restart
// without re-running anything. Snapshots written before the timed
// envelope was retired also carry "parallel" and "timed" keys, which
// decoding ignores.
type Snapshot struct {
	Version    string    `json:"version"`
	ID         string    `json:"id"`
	Spec       string    `json:"spec"`
	Seed       int64     `json:"seed"`
	Scale      float64   `json:"scale"`
	State      string    `json:"state"`
	Error      string    `json:"error,omitempty"`
	CellsTotal int       `json:"cells_total"`
	CellsDone  int       `json:"cells_done"`
	Created    time.Time `json:"created"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`
	// Canonical is the result envelope exactly as the serve layer
	// writes it (base64 in the JSON encoding); Manifest is the obs run
	// manifest. Both optional: a canceled job has no envelope.
	Canonical []byte `json:"canonical,omitempty"`
	Manifest  []byte `json:"manifest,omitempty"`
}

// State is everything Open recovered from the store directory.
type State struct {
	// Jobs are the in-flight jobs (neither a snapshot nor a done
	// record) in first-journaled order — the jobs the coordinator must
	// resume.
	Jobs []*Job
	// Snapshots are the terminal jobs, sorted by finish time then ID —
	// the retention window the coordinator re-serves.
	Snapshots []*Snapshot
	// Warnings are non-fatal recovery notes (an unreadable snapshot
	// file). The caller should log them loudly; recovery proceeds
	// without the affected artifact.
	Warnings []string
}

// Store is an open, append-ready job store. All methods are safe for
// concurrent use. After Close, every write fails — the crash-simulation
// hook the restart tests rely on.
type Store struct {
	dir string

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// Open recovers the store directory (creating it if absent), compacts
// the journal down to in-flight jobs, and returns the store opened
// for append plus everything it recovered. Corruption anywhere but a
// torn final line is a *DecodeError; a torn tail is dropped silently
// because its fsync never acknowledged.
func Open(dir string) (*Store, *State, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, snapshotDirName), 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	rs, rerr := replayJournal(data)
	if rerr != nil {
		return nil, nil, rerr
	}

	st := &State{}
	snaps, warns := loadSnapshots(filepath.Join(dir, snapshotDirName))
	st.Snapshots, st.Warnings = snaps, warns
	snapIDs := make(map[string]bool, len(snaps))
	for _, s := range snaps {
		snapIDs[s.ID] = true
	}
	// One record decides each job's fate: a loadable snapshot makes it
	// terminal, a done record without one marks a retention eviction,
	// and neither leaves it in flight. A snapshot lost to damage
	// therefore re-runs the job from its journaled cells, to the same
	// bytes.
	var inflight []*Job
	for _, id := range rs.order {
		if j := rs.jobs[id]; !snapIDs[id] && !j.Evicted {
			inflight = append(inflight, j)
		}
	}
	st.Jobs = inflight

	// Compaction: rewrite the journal to exactly the in-flight jobs'
	// records. Terminal jobs live in their snapshots; duplicates and a
	// torn tail are normalized away. The rename is the commit point.
	if err := writeCompacted(jpath, inflight); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, f: f}, st, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the journal handle. Further appends fail. Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// AppendJob journals a newly admitted job. The fsync inside is the
// commit point: once AppendJob returns, a restarted coordinator will
// resume the job.
func (s *Store) AppendJob(m JobMeta) error {
	return s.append(jobRecord{
		Kind: "job", ID: m.ID, Spec: m.Spec, Seed: m.Seed, Scale: m.Scale,
		CreatedNS: m.Created.UnixNano(),
	})
}

// AppendCell journals one completed cell for jobID. Once it returns,
// a restarted coordinator keeps this cell's result instead of
// re-running it.
func (s *Store) AppendCell(jobID string, c CellResult) error {
	return s.append(cellRecord{
		Kind: "cell", Job: jobID, Index: c.Index, Key: c.Key, Node: c.Node,
		Stat: c.Stat, Result: c.Result,
	})
}

// AppendDone journals a terminal job's retention eviction. The caller
// appends it before deleting the job's snapshot (DeleteSnapshot), and
// only for a job whose job record is in the current journal (admitted
// or resumed since Open): compaction dropped every other job's
// records, and a done record naming none is an ErrUnknownJob at the
// next Open. A crash between the append and the delete leaves a
// snapshot Open still serves as terminal.
func (s *Store) AppendDone(jobID, state, errMsg string) error {
	return s.append(doneRecord{Kind: "done", Job: jobID, State: state, Error: errMsg})
}

// append marshals one record, writes it as a line, and fsyncs.
func (s *Store) append(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	data = append(data, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.f.Write(data); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// WriteSnapshot durably writes one terminal job snapshot, atomically
// via a temp file and rename. The rename is the job's terminal commit
// point: from then on Open recovers it as terminal.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	snap.Version = Version
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	dir := filepath.Join(s.dir, snapshotDirName)
	tmp, err := os.CreateTemp(dir, snap.ID+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, snap.ID+".json")); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// DeleteSnapshot removes one terminal snapshot — the retention
// eviction path. Deleting an absent snapshot is not an error; after
// Close it fails, like every write.
func (s *Store) DeleteSnapshot(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	err := os.Remove(filepath.Join(s.dir, snapshotDirName, id+".json"))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// loadSnapshots reads every *.json under dir, skipping unreadable or
// version-mismatched files with a warning instead of failing recovery.
func loadSnapshots(dir string) ([]*Snapshot, []string) {
	var snaps []*Snapshot
	var warns []string
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			warns = append(warns, fmt.Sprintf("snapshot %s: %v", filepath.Base(p), err))
			continue
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			warns = append(warns, fmt.Sprintf("snapshot %s: %v", filepath.Base(p), err))
			continue
		}
		if snap.Version != Version {
			warns = append(warns, fmt.Sprintf("snapshot %s: unsupported version %q", filepath.Base(p), snap.Version))
			continue
		}
		if snap.ID == "" || !strings.HasSuffix(p, snap.ID+".json") {
			warns = append(warns, fmt.Sprintf("snapshot %s: file name does not match job id %q", filepath.Base(p), snap.ID))
			continue
		}
		snaps = append(snaps, &snap)
	}
	sort.Slice(snaps, func(i, k int) bool {
		if !snaps[i].Finished.Equal(snaps[k].Finished) {
			return snaps[i].Finished.Before(snaps[k].Finished)
		}
		return snaps[i].ID < snaps[k].ID
	})
	return snaps, warns
}

// writeCompacted rewrites the journal as header + the given jobs'
// records (cells in index order), atomically via rename.
func writeCompacted(jpath string, jobs []*Job) error {
	dir := filepath.Dir(jpath)
	tmp, err := os.CreateTemp(dir, journalName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmp.Name())

	write := func(rec any) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = tmp.Write(append(data, '\n'))
		return err
	}
	werr := write(headerRecord{Kind: "header", Version: Version})
	for _, j := range jobs {
		if werr != nil {
			break
		}
		werr = write(jobRecord{
			Kind: "job", ID: j.Meta.ID, Spec: j.Meta.Spec, Seed: j.Meta.Seed,
			Scale: j.Meta.Scale, CreatedNS: j.Meta.Created.UnixNano(),
		})
		idxs := make([]int, 0, len(j.Cells))
		for i := range j.Cells {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			if werr != nil {
				break
			}
			c := j.Cells[i]
			werr = write(cellRecord{
				Kind: "cell", Job: j.Meta.ID, Index: c.Index, Key: c.Key,
				Node: c.Node, Stat: c.Stat, Result: c.Result,
			})
		}
	}
	if werr != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", werr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), jpath); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
