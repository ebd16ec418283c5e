package store

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rhohammer/internal/campaign"
)

// open is Open with test fatalities.
func open(t *testing.T, dir string) (*Store, *State) {
	t.Helper()
	st, state, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st, state
}

// seedJob journals one job with two completed cells into st.
func seedJob(t *testing.T, st *Store, id string) {
	t.Helper()
	if err := st.AppendJob(JobMeta{
		ID: id, Spec: "tiny", Seed: 42, Scale: 1,
		Created: time.Unix(0, 1000).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"a", "b"} {
		res, err := campaign.EncodeResult(key + "#result")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendCell(id, CellResult{
			Index: i, Key: key, Node: "w-001",
			Stat:   campaign.CellStat{Key: key, Seed: int64(i), Attempts: 1},
			Result: res,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, state := open(t, dir)
	if len(state.Jobs) != 0 || len(state.Snapshots) != 0 || len(state.Warnings) != 0 {
		t.Fatalf("fresh store not empty: %+v", state)
	}
	seedJob(t, st, "job-000001")
	st.Close()

	_, state2 := open(t, dir)
	if len(state2.Jobs) != 1 {
		t.Fatalf("recovered %d in-flight jobs, want 1", len(state2.Jobs))
	}
	j := state2.Jobs[0]
	want := JobMeta{ID: "job-000001", Spec: "tiny", Seed: 42, Scale: 1,
		Created: time.Unix(0, 1000).UTC()}
	if !reflect.DeepEqual(j.Meta, want) {
		t.Fatalf("recovered meta = %+v, want %+v", j.Meta, want)
	}
	if len(j.Cells) != 2 {
		t.Fatalf("recovered %d cells, want 2", len(j.Cells))
	}
	c := j.Cells[1]
	if c.Key != "b" || c.Node != "w-001" || c.Stat.Attempts != 1 {
		t.Fatalf("cell 1 = %+v", c)
	}
	got, err := campaign.DecodeResult(c.Result)
	if err != nil {
		t.Fatal(err)
	}
	if got != "b#result" {
		t.Fatalf("cell 1 result = %v, want b#result", got)
	}
}

func TestTerminalJobMovesToSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	snap := &Snapshot{
		ID: "job-000001", Spec: "tiny", Seed: 42, Scale: 1,
		State: "done", CellsDone: 2,
		Created:   time.Unix(0, 1000).UTC(),
		Finished:  time.Unix(0, 2000).UTC(),
		Canonical: []byte(`{"ok":true}`),
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDone("job-000001", "done", ""); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, state := open(t, dir)
	if len(state.Jobs) != 0 {
		t.Fatalf("terminal job still in-flight: %+v", state.Jobs)
	}
	if len(state.Snapshots) != 1 {
		t.Fatalf("recovered %d snapshots, want 1", len(state.Snapshots))
	}
	s := state.Snapshots[0]
	if s.ID != "job-000001" || s.State != "done" || string(s.Canonical) != `{"ok":true}` {
		t.Fatalf("snapshot = %+v", s)
	}

	// Compaction dropped the terminal job's records from the journal.
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "job-000001") {
		t.Fatalf("compacted journal still mentions the terminal job:\n%s", data)
	}
}

// TestParentFormatStoreOpens opens a store written before per-job
// parallelism and the timed envelope were retired, as raw files: a job
// record carrying "parallel" with one journaled cell, and a snapshot
// carrying "parallel" and "timed". The job must recover in flight with
// its cell, the snapshot must load with its canonical envelope and
// manifest intact, and compaction must rewrite the job record without
// the retired key.
func TestParentFormatStoreOpens(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.EncodeResult("a#result")
	if err != nil {
		t.Fatal(err)
	}
	journal := `{"kind":"header","version":"v1"}` + "\n" +
		`{"kind":"job","id":"job-000004","spec":"tiny","seed":42,"scale":1,"parallel":3,"created_ns":1000}` + "\n" +
		`{"kind":"cell","job":"job-000004","index":0,"key":"a","stat":{"key":"a","seed":7,"wall_ns":1234,"attempts":1},"result":"` +
		base64.StdEncoding.EncodeToString(res) + `"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	canonical, timed, manifest := []byte(`{"wall_ns":0}`), []byte(`{"workers":2}`), []byte(`{"tool":"serverd"}`)
	b64 := base64.StdEncoding.EncodeToString
	snapshot := `{
  "version": "v1",
  "id": "job-000003",
  "spec": "tiny",
  "seed": 42,
  "scale": 1,
  "parallel": 2,
  "state": "done",
  "cells_total": 4,
  "cells_done": 4,
  "created": "1970-01-01T00:00:00.000001Z",
  "started": "1970-01-01T00:00:00.000002Z",
  "finished": "1970-01-01T00:00:00.000003Z",
  "canonical": "` + b64(canonical) + `",
  "timed": "` + b64(timed) + `",
  "manifest": "` + b64(manifest) + `"
}
`
	if err := os.MkdirAll(filepath.Join(dir, snapshotDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotDirName, "job-000003.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}

	_, state := open(t, dir)
	if len(state.Warnings) != 0 {
		t.Fatalf("warnings = %v", state.Warnings)
	}
	if len(state.Jobs) != 1 || len(state.Jobs[0].Cells) != 1 {
		t.Fatalf("in-flight jobs = %+v, want job-000004 with one cell", state.Jobs)
	}
	want := JobMeta{ID: "job-000004", Spec: "tiny", Seed: 42, Scale: 1, Created: time.Unix(0, 1000).UTC()}
	if got := state.Jobs[0].Meta; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered meta = %+v, want %+v", got, want)
	}
	if len(state.Snapshots) != 1 {
		t.Fatalf("recovered %d snapshots, want 1", len(state.Snapshots))
	}
	snap := state.Snapshots[0]
	if snap.ID != "job-000003" || snap.State != "done" || snap.CellsDone != 4 ||
		string(snap.Canonical) != string(canonical) || string(snap.Manifest) != string(manifest) {
		t.Errorf("snapshot = %+v", snap)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"parallel"`) {
		t.Errorf("compacted journal still writes the retired key:\n%s", data)
	}
}

// TestSnapshotAloneIsTerminal: the snapshot is a job's terminal commit
// point. A job record, its cells and a snapshot without a done record
// (a store written before done records marked eviction, killed between
// its snapshot and its done record) recover as terminal only, not also
// as in flight.
func TestSnapshotAloneIsTerminal(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	if err := st.WriteSnapshot(&Snapshot{ID: "job-000001", Spec: "tiny", State: "done", CellsDone: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, state := open(t, dir)
	if len(state.Jobs) != 0 {
		t.Fatalf("snapshotted job also recovered in flight: %+v", state.Jobs[0].Meta)
	}
	if len(state.Snapshots) != 1 || state.Snapshots[0].ID != "job-000001" {
		t.Fatalf("snapshots = %+v, want job-000001", state.Snapshots)
	}
	if len(state.Warnings) != 0 {
		t.Fatalf("warnings = %v", state.Warnings)
	}
}

// TestEvictedJobDroppedSilently: retention eviction journals a done
// record and then deletes the snapshot. Open reads that pair as an
// eviction, not as damage: no warning, nothing recovered, and
// compaction drops the job's records.
func TestEvictedJobDroppedSilently(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	if err := st.WriteSnapshot(&Snapshot{ID: "job-000001", Spec: "tiny", State: "done", CellsDone: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDone("job-000001", "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSnapshot("job-000001"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	_, state := open(t, dir)
	if len(state.Jobs) != 0 || len(state.Snapshots) != 0 || len(state.Warnings) != 0 {
		t.Fatalf("evicted job recovered: jobs %d, snapshots %d, warnings %v",
			len(state.Jobs), len(state.Snapshots), state.Warnings)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "job-000001") {
		t.Fatalf("compacted journal still mentions the evicted job:\n%s", data)
	}
}

func TestTruncatedTailIgnored(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	st.Close()

	// Simulate a crash mid-append: a torn, non-JSON final line.
	jpath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"done","job":"job-000001","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, state := open(t, dir)
	if len(state.Jobs) != 1 || len(state.Jobs[0].Cells) != 2 {
		t.Fatalf("recovery with torn tail lost state: %+v", state.Jobs)
	}
	// The compacted journal no longer carries the torn bytes — the job
	// recovered as in-flight, not as the done the tail almost claimed.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"done"`) {
		t.Fatalf("torn tail survived compaction:\n%s", data)
	}
}

func TestCorruptMidLogIsTypedError(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	st.Close()

	// Corrupt a mid-file line (line 3: the first cell record), leaving
	// valid content after it — this is real corruption, not a torn tail.
	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[2] = "{\"kind\":\"cell\",garbage}\n"
	if err := os.WriteFile(jpath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir)
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("Open = %v, want *DecodeError", err)
	}
	if de.Kind != ErrSyntax || de.Line != 3 {
		t.Fatalf("DecodeError = kind %q line %d, want %q line 3", de.Kind, de.Line, ErrSyntax)
	}
	if !strings.Contains(de.Error(), "line 3") {
		t.Fatalf("error text %q does not name the line", de.Error())
	}
}

func TestDoubleReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	seedJob(t, st, "job-000001")
	st.Close()

	// Duplicate every record in the journal — the state a crash between
	// append and acknowledgment can leave behind — and recover.
	jpath := filepath.Join(dir, journalName)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(string(data), "\n")
	doubled := header + "\n" + rest + rest
	if err := os.WriteFile(jpath, []byte(doubled), 0o644); err != nil {
		t.Fatal(err)
	}

	_, state := open(t, dir)
	if len(state.Jobs) != 1 {
		t.Fatalf("doubled journal recovered %d jobs, want 1", len(state.Jobs))
	}
	if n := len(state.Jobs[0].Cells); n != 2 {
		t.Fatalf("doubled journal recovered %d cells, want 2", n)
	}

	// And recovery itself is idempotent: a second Open over the
	// compacted journal yields the same state.
	_, state2 := open(t, dir)
	if !reflect.DeepEqual(state.Jobs, state2.Jobs) {
		t.Fatalf("second replay diverged:\n%+v\nvs\n%+v", state.Jobs, state2.Jobs)
	}
}

func TestHeaderErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		kind ErrorKind
	}{
		{"missing", `{"kind":"job","id":"j","spec":"s","seed":1,"scale":1,"parallel":1,"created_ns":1}` + "\n", ErrHeader},
		{"wrong-version", `{"kind":"header","version":"v9"}` + "\n", ErrVersion},
		{"unknown-kind", "{\"kind\":\"header\",\"version\":\"v1\"}\n{\"kind\":\"lease\"}\n{\"kind\":\"done\",\"job\":\"j\",\"state\":\"done\"}\n", ErrUnknownKind},
		{"unknown-job", "{\"kind\":\"header\",\"version\":\"v1\"}\n{\"kind\":\"done\",\"job\":\"ghost\",\"state\":\"done\"}\n{\"kind\":\"header\",\"version\":\"v1\"}\n", ErrUnknownJob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalName), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := Open(dir)
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("Open = %v, want *DecodeError", err)
			}
			if de.Kind != tc.kind {
				t.Fatalf("kind = %q, want %q", de.Kind, tc.kind)
			}
		})
	}
}

// TestReplayKindKeysDisagree covers records whose kind the writer
// prefix does not settle. Replay must decide them exactly as a kind
// probe followed by a strict decode does: a later "kind" key overrides
// the first, and bytes after the record are a syntax error.
func TestReplayKindKeysDisagree(t *testing.T) {
	const head = `{"kind":"header","version":"v1"}` + "\n" +
		`{"kind":"job","id":"j","spec":"s","seed":1,"scale":1,"parallel":1,"created_ns":1}` + "\n"
	// Line 3 fits both the done and the cell shape; its last kind makes
	// it a cell record. Line 4 fits only the done shape its last kind
	// names.
	st, err := replayJournal([]byte(head +
		`{"kind":"done","job":"j","kind":"cell"}` + "\n" +
		`{"kind":"cell","job":"j","kind":"done","state":"failed"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	j := st.jobs["j"]
	if want := map[int]CellResult{0: {}}; !reflect.DeepEqual(j.Cells, want) || !j.Evicted {
		t.Fatalf("job = cells %+v evicted %v, want cells %+v evicted", j.Cells, j.Evicted, want)
	}

	// Not the final line, which would be dropped as a torn tail.
	_, err = replayJournal([]byte(head + `{"kind":"done","job":"j","state":"done"} {}` + "\n" +
		`{"kind":"done","job":"j","state":"done"}` + "\n"))
	var de *DecodeError
	if !errors.As(err, &de) || de.Kind != ErrSyntax || de.Line != 3 {
		t.Fatalf("trailing bytes: err = %v, want %q at line 3", err, ErrSyntax)
	}
}

func TestTornHeaderRecoversEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(`{"kind":"hea`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, state := open(t, dir)
	if len(state.Jobs) != 0 {
		t.Fatalf("torn header recovered jobs: %+v", state.Jobs)
	}
}

// TestCorruptSnapshotIsWarning: an unreadable snapshot is skipped with
// a warning naming it, and a journaled job whose snapshot it was is in
// flight again, so it re-runs from its journaled cells.
func TestCorruptSnapshotIsWarning(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	if err := st.WriteSnapshot(&Snapshot{ID: "job-000001", Spec: "tiny", State: "done"}); err != nil {
		t.Fatal(err)
	}
	seedJob(t, st, "job-000002")
	st.Close()
	bad := filepath.Join(dir, snapshotDirName, "job-000002.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, state := open(t, dir)
	if len(state.Snapshots) != 1 || state.Snapshots[0].ID != "job-000001" {
		t.Fatalf("snapshots = %+v", state.Snapshots)
	}
	if len(state.Warnings) != 1 || !strings.Contains(state.Warnings[0], "job-000002") {
		t.Fatalf("warnings = %v, want one naming job-000002", state.Warnings)
	}
	if len(state.Jobs) != 1 || state.Jobs[0].Meta.ID != "job-000002" || len(state.Jobs[0].Cells) != 2 {
		t.Fatalf("jobs = %+v, want job-000002 in flight with its 2 cells", state.Jobs)
	}
}

func TestDeleteSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	if err := st.WriteSnapshot(&Snapshot{ID: "job-000001", Spec: "tiny", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSnapshot("job-000001"); err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSnapshot("job-000001"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	st.Close()
	_, state := open(t, dir)
	if len(state.Snapshots) != 0 {
		t.Fatalf("snapshots after delete = %+v", state.Snapshots)
	}
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir)
	if err := st.WriteSnapshot(&Snapshot{ID: "kept"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := st.AppendJob(JobMeta{ID: "j", Spec: "s"}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := st.WriteSnapshot(&Snapshot{ID: "j"}); err == nil {
		t.Fatal("snapshot after Close succeeded")
	}
	if err := st.DeleteSnapshot("kept"); err == nil {
		t.Fatal("snapshot delete after Close succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotDirName, "kept.json")); err != nil {
		t.Fatalf("snapshot gone after a refused delete: %v", err)
	}
}

// BenchmarkReplayJournal replays a 927-record journal of the shape
// serve writes (103 jobs, each a job record, 7 cell records with
// 300-byte results and a done record) and reports µs per record: the
// cost store.Open pays per record when a coordinator restarts.
func BenchmarkReplayJournal(b *testing.B) {
	dir := b.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	res, err := campaign.EncodeResult(strings.Repeat("x", 300))
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 103; j++ {
		id := fmt.Sprintf("job-%06d", j)
		if err := st.AppendJob(JobMeta{ID: id, Spec: "fig9", Seed: int64(j), Scale: 0.5,
			Created: time.Unix(0, int64(j)).UTC()}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			key := fmt.Sprintf("arch/dimm/k%d", i)
			if err := st.AppendCell(id, CellResult{Index: i, Key: key, Node: "w-001",
				Stat:   campaign.CellStat{Key: key, Seed: int64(i) * 7919, Attempts: 1, Wall: 123456789},
				Result: res}); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.AppendDone(id, "done", ""); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		b.Fatal(err)
	}
	records := strings.Count(string(data), "\n") - 1 // the header is not a record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayJournal(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*records), "µs/record")
}
