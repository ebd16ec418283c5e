package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rhohammer/internal/replay"
)

// replayRequest is the POST /v1/replay body: an inline JSONL trace
// plus the replay parameters the trace's header may omit.
type replayRequest struct {
	// Trace is the JSONL trace text (obs.Trace.WriteJSONL output, a
	// capture dump, or a headered file; see internal/replay).
	Trace string `json:"trace"`
	// DIMM / Seed override the trace header's module profile and device
	// seed (required when the trace has no header).
	DIMM string `json:"dimm,omitempty"`
	Seed *int64 `json:"seed,omitempty"`
	// Session selects one session of a multi-session capture dump —
	// e.g. one cell of a GET /v1/jobs/{id}/trace body.
	Session string `json:"session,omitempty"`
}

// handleReplay admits a trace-replay job: the body's trace is decoded
// eagerly (malformed traces are a 400 at submission, never a failed
// job), wrapped as a one-cell campaign spec named by the trace's
// content hash, and pushed through the same admission tail as spec
// jobs — drain check, result cache, queue backpressure. The verdict
// envelope is canonical and byte-identical at any shard count.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxReplayBytes)
	var req replayRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				apiError{Error: fmt.Sprintf("replay body exceeds %d bytes", s.cfg.MaxReplayBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "invalid replay request: " + err.Error()})
		return
	}
	if req.Trace == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "\"trace\" is required"})
		return
	}
	f, err := replay.DecodeBytes([]byte(req.Trace), replay.Options{
		DIMM: req.DIMM, Seed: req.Seed, Session: req.Session,
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	spec := replay.Spec(f)
	j := newJob(spec.Name, spec, spec.Seed, 1)
	// The spec name embeds the trace content hash (which covers the
	// resolved DIMM and seed), so the (spec, seed, scale) cache key is
	// collision-free and replay jobs participate in the result cache
	// like registered specs.
	j.cacheable = true
	s.admit(w, j)
}

// handleTrace serves the per-job obs trace dump recorded while the job
// ran: JSONL in the capture format (one session per campaign cell,
// keyed by the cell's derived seed), ready to feed back through
// POST /v1/replay. The dump order is a pure function of the job's
// seeds, so the bytes are deterministic across shard counts and
// schedules.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state := j.state
	body := j.trace
	s.mu.Unlock()
	switch {
	case !state.terminal():
		writeJSON(w, http.StatusConflict, apiError{Error: "trace is recorded while the job runs and served when it finishes"})
	case len(body) == 0:
		writeJSON(w, http.StatusConflict, apiError{Error: "job recorded no trace (cached and replay jobs execute no sessions, and capture may be disabled)"})
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
}
