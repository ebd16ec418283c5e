package hammer

import (
	"rhohammer/internal/dram"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/obs"
)

// Observability surface of the hammering engine. The session keeps
// plain counters on its cold paths (per pattern, per payload compile —
// never per access) and flushes dram/memctrl deltas into the global
// obs registry at every completed hammer call, gated on obs.Enabled().

// SessionCounters is a cold snapshot of one session's activity: the
// attached device and controller counters plus the engine-level ones.
type SessionCounters struct {
	Dram dram.Counters `json:"dram"`
	Ctrl memctrl.Stats `json:"memctrl"`
	// PatternsHammered counts completed HammerPattern/HammerPatternFor
	// calls (pattern throughput = activations / simulated time, both
	// also recorded here via Dram.ACTs and the cpu results).
	PatternsHammered uint64 `json:"patterns_hammered"`
	// PayloadCompiles / PayloadCacheHits count the calls that compiled
	// a fresh payload and the calls that re-ran the memoized one, and
	// PayloadBatches counts the activation batches the executor handed
	// to the device.
	PayloadCompiles  uint64 `json:"payload_compiles"`
	PayloadCacheHits uint64 `json:"payload_cache_hits"`
	PayloadBatches   uint64 `json:"payload_batches"`
}

// Counters returns the session's current snapshot.
func (s *Session) Counters() SessionCounters {
	return SessionCounters{
		Dram:             s.Dev.Counters(),
		Ctrl:             s.Ctrl.Stats(),
		PatternsHammered: s.patternsHammered,
		PayloadCompiles:  s.payloadCompiles,
		PayloadCacheHits: s.payloadHits,
		PayloadBatches:   s.Eng.PayloadBatches(),
	}
}

// AttachTrace routes structured events from this session and its
// device into the given ring. NewSession attaches one automatically
// when global tracing (obs.EnableTracing) is armed.
func (s *Session) AttachTrace(t *obs.Trace) {
	s.trace = t
	s.Dev.SetTrace(t)
}

// noteHammer is the per-pattern cold boundary: it bumps the session
// counters, emits the pattern trace event, and — only when the obs
// layer is enabled — flushes the dram/memctrl deltas of this call into
// the global registry. Deltas are safe because Reset only happens
// between hammer calls, never inside one.
func (s *Session) noteHammer(devBefore dram.Counters, ctrlBefore memctrl.Stats, pbBefore uint64, res *Result) {
	s.patternsHammered++
	if s.trace != nil {
		s.trace.Emit(obs.Event{TimeNS: res.EndTime, Layer: "hammer", Kind: "pattern",
			N: int64(len(res.Flips))})
	}
	if !obs.Enabled() {
		return
	}
	dev := s.Dev.Counters()
	ctrl := s.Ctrl.Stats()
	obs.DramACTs.AddUint(dev.ACTs - devBefore.ACTs)
	obs.DramREFs.AddUint(dev.REFs - devBefore.REFs)
	obs.DramTRR.AddUint(dev.TRRTriggers - devBefore.TRRTriggers)
	obs.DramFlips.Add(int64(len(res.Flips)))
	obs.DramRFM.AddUint(dev.RFMEvents - devBefore.RFMEvents)
	obs.DramRowSwaps.AddUint(dev.RowSwapRelocations - devBefore.RowSwapRelocations)
	obs.CtrlAccesses.AddUint(ctrl.Accesses - ctrlBefore.Accesses)
	obs.CtrlRowHits.AddUint(ctrl.RowHits - ctrlBefore.RowHits)
	obs.CtrlConflicts.AddUint(ctrl.Conflicts - ctrlBefore.Conflicts)
	obs.CtrlDecodeHits.AddUint(ctrl.DecodeHits - ctrlBefore.DecodeHits)
	obs.CtrlDecodeMiss.AddUint(ctrl.DecodeMisses - ctrlBefore.DecodeMisses)
	obs.HammerPayloadBatches.AddUint(s.Eng.PayloadBatches() - pbBefore)
	obs.HammerPatterns.Inc()
}
