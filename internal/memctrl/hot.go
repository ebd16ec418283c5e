package memctrl

import "fmt"

// Compiled-payload fast path. The payload executor in internal/cpu
// replays precompiled activation schedules without walking Program ops;
// to do that at full speed it needs the controller's bank state machine
// inlined into its loop rather than behind a method call per access.
// This file is that contract: a Predecode step that resolves each
// payload line's translation once at compile time, a Hot view exposing
// the per-bank timing state and decode cache the executor advances in
// place, and the bookkeeping entry points (DecodeTouchSlow,
// AddAccessStats, AdvanceRefresh) that keep the controller's observable
// counters and decode-cache state bit-identical to the interpreted
// path.
//
// Bit-identity rules the executor relies on:
//
//   - The mapping is immutable, so a PreDecoded (bank, row) computed at
//     compile time equals what decodeAddr would return for the same
//     physical address at any later point.
//   - The decode-cache hit check runs inline against Hot.Decode (same
//     slot, same comparison as decodeAddr); anything else — a miss, or
//     any access in audit mode — goes through DecodeTouchSlow, which
//     replays decodeAddr's bookkeeping exactly. Inline hits are tallied
//     locally and folded in via AddAccessStats, which is observationally
//     identical because statistics are only read at run boundaries.
//   - The Hot slices alias the controller's own state; AdvanceRefresh
//     (the exported wrapper over the REF machinery) mutates them in
//     place, so the executor only reloads NextRefresh after calling it.

// PreDecoded is one payload line's compile-time address translation:
// the physical address, its (bank, row) decode, and the decode-cache
// slot the interpreted path would use for it.
type PreDecoded struct {
	PA   uint64
	Row  int64
	Bank int32
	Slot int32
}

// Predecode resolves pa through the immutable mapping without touching
// the decode cache or its statistics. Compile-time only.
func (c *Controller) Predecode(pa uint64) PreDecoded {
	return PreDecoded{
		PA:   pa,
		Row:  int64(c.Map.Row(pa)),
		Bank: int32(c.Map.Bank(pa)),
		Slot: int32(((pa >> 6) ^ (pa >> 18)) & decodeMask),
	}
}

// DecodeTouchSlow replays the decode-cache bookkeeping decodeAddr
// would perform for one DRAM-reaching access whose inline hit check
// (against Hot.Decode) did not take: a miss counts and refills the
// slot; in audit mode every access lands here, and a hit additionally
// cross-checks the cached entry against the predecoded truth.
func (c *Controller) DecodeTouchSlow(p *PreDecoded) {
	e := &c.decode[p.Slot]
	if e.OK && e.PA == p.PA {
		c.stats.DecodeHits++
		if e.Bank != p.Bank || e.Row != p.Row {
			panic(fmt.Sprintf("memctrl: audit: decode cache for pa=%#x holds (bank=%d,row=%d), predecode says (bank=%d,row=%d)",
				p.PA, e.Bank, e.Row, p.Bank, p.Row))
		}
		return
	}
	c.stats.DecodeMisses++
	*e = DecodeEntry{PA: p.PA, Row: p.Row, Bank: p.Bank, OK: true}
}

// BankState is one bank's state machine: the open row, the same-bank
// ACT clock and the bank busy clock, packed so a hot-loop access pays a
// single bounds check and stays within one cache line.
type BankState struct {
	OpenRow  int64   // -1 = precharged
	LastACT  float64 // last ACT issue time
	BusyUnit float64 // earliest next command
}

// Hot is the controller's per-bank timing state and decode cache,
// exposed by aliasing for the payload executor's inlined access loop.
// The slices share backing arrays with the controller: writes through
// either view are seen by both, and AdvanceRefresh's row closes land in
// Banks[b].OpenRow.
type Hot struct {
	Banks  []BankState   // per-bank state machines
	Decode []DecodeEntry // the decode cache, for the inline hit check
	T      Timings
	// Audit forces every decode touch through DecodeTouchSlow so the
	// cross-check runs (simcheck mode).
	Audit bool
}

// Hot returns the aliased hot view. Payload executor only.
func (c *Controller) Hot() Hot {
	return Hot{Banks: c.banks, Decode: c.decode, T: c.T, Audit: c.audit}
}

// AdvanceRefresh issues every REF due at or before now — the exported
// entry point the payload executor uses at the same decision points as
// the interpreted path (which calls the internal equivalent at the top
// of every Access). The executor must flush its buffered activations
// into the device first, so the REF's TRR scan sees them.
func (c *Controller) AdvanceRefresh(now float64) { c.advanceRefresh(now) }

// AddAccessStats folds the executor's locally tallied access
// classification counts and inline decode hits into the controller
// statistics at the end of a payload run. Refresh counts and decode
// misses are maintained live (by AdvanceRefresh and DecodeTouchSlow);
// only the hot-loop tallies are batched, which no observer can
// distinguish because statistics are read only between runs.
func (c *Controller) AddAccessStats(accesses, rowHits, rowEmpty, conflicts, decodeHits uint64) {
	c.stats.Accesses += accesses
	c.stats.RowHits += rowHits
	c.stats.RowEmpty += rowEmpty
	c.stats.Conflicts += conflicts
	c.stats.DecodeHits += decodeHits
}

// Armed reports whether the trace is recording. The payload executor
// reads it once per run and, while it holds, records its PRE and ACT
// commands through Trace.Record, so an armed trace sees the same
// command stream on the compiled path as on the interpreted one.
func (t *Trace) Armed() bool { return t.on }
