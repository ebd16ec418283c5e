// Package memctrl models the CPU's integrated memory controller: DRAM
// command timing with an open-page policy, per-bank state machines,
// periodic refresh, and the address translation given by a
// mapping.Mapping.
//
// The controller is the source of the SBDR (same-bank different-row)
// timing side channel: a row-buffer conflict costs tRP + tRCD + tCL,
// a row hit only tCL, and accesses to different banks overlap. The
// reverse-engineering algorithms consume exactly this latency contrast.
//
// The controller keeps no log of the commands it issues. Its ACTs and
// REFs land on the dram.Device, whose counters count them and whose
// obs.Trace, when attached, records them as the stream internal/replay
// replays.
package memctrl

import (
	"fmt"
	"math"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
)

// AccessKind classifies the DRAM-level behaviour of one access.
type AccessKind uint8

const (
	// KindRowHit means the target row was already open in its bank.
	KindRowHit AccessKind = iota
	// KindRowEmpty means the bank had no open row (ACT only).
	KindRowEmpty
	// KindRowConflict means another row was open (PRE + ACT): the slow
	// SBDR case.
	KindRowConflict
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case KindRowHit:
		return "row-hit"
	case KindRowEmpty:
		return "row-empty"
	case KindRowConflict:
		return "row-conflict"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Stats aggregates controller activity. The decode-cache pair is the
// hot-path observability the obs layer snapshots: hammer loops should
// run at a hit rate near 1 once warm, and a falling rate flags a
// working set outgrowing the direct-mapped cache.
type Stats struct {
	Accesses  uint64
	RowHits   uint64
	RowEmpty  uint64
	Conflicts uint64
	Refreshes uint64
	// DecodeHits / DecodeMisses count direct-mapped decode-cache
	// outcomes in decodeAddr (one translation per access).
	DecodeHits   uint64
	DecodeMisses uint64
}

// ACTs returns the number of row activations issued.
func (s Stats) ACTs() uint64 { return s.RowEmpty + s.Conflicts }

// DecodeHitRate returns DecodeHits/(DecodeHits+DecodeMisses), 0 before
// any translation.
func (s Stats) DecodeHitRate() float64 {
	total := s.DecodeHits + s.DecodeMisses
	if total == 0 {
		return 0
	}
	return float64(s.DecodeHits) / float64(total)
}

// Timings holds the DRAM timing parameters in nanoseconds, derived from
// the module's transfer rate with standard DDR4 cycle counts.
type Timings struct {
	TCL   float64 // CAS latency
	TRCD  float64 // ACT to CAS
	TRP   float64 // PRE to ACT
	TRC   float64 // ACT to ACT, same bank
	TRFC  float64 // refresh cycle time (all banks busy)
	TBus  float64 // data burst occupancy
	TCtrl float64 // fixed controller + on-die overhead per request
}

// DeriveTimings computes DDR4 timings for a transfer rate in MT/s.
func DeriveTimings(freqMTs int) Timings {
	clock := 2000.0 / float64(freqMTs) // ns per DRAM clock
	return Timings{
		TCL:   22 * clock,
		TRCD:  22 * clock,
		TRP:   22 * clock,
		TRC:   76 * clock, // tRAS(54) + tRP(22)
		TRFC:  350,
		TBus:  4 * clock,
		TCtrl: 18, // uncore / ring / MC queue constant
	}
}

// Controller is one single-channel memory controller fronting a device.
type Controller struct {
	Arch *arch.Arch
	Map  *mapping.Mapping
	Dev  *dram.Device
	T    Timings

	// banks holds the per-bank state machines as one array of structs:
	// a bank's open row, ACT clock and busy clock share a cache line and
	// a single bounds check in the hot loops.
	banks   []BankState
	nextREF float64

	// decode is a direct-mapped cache of the Map.Bank/Map.Row
	// translation. Hammer loops revisit the same ~dozen physical
	// addresses millions of times, and evaluating the XOR bank
	// functions (a popcount per function) dominates the open-row
	// bookkeeping; the mapping is immutable, so entries never go stale.
	decode []DecodeEntry

	// audit, when set (simcheck mode), cross-checks every decode-cache
	// hit against a fresh mapping computation and panics on any stale
	// entry. Off by default: the only cost is a branch on the hit path.
	audit bool

	stats Stats
}

// EnableAudit turns on the controller-side invariant audit (simcheck
// mode): every decode-cache hit is re-derived from the immutable mapping
// and compared, so a corrupted or stale cache entry fails loudly at its
// first use instead of silently mis-steering activations.
func (c *Controller) EnableAudit() { c.audit = true }

// Decode-cache geometry: aggressor lines differ in row bits and in the
// low bits the bank solver flips, so both ranges feed the index.
const (
	decodeBits = 12
	decodeSize = 1 << decodeBits
	decodeMask = decodeSize - 1
)

// DecodeEntry caches one physical address translation. Exported so the
// compiled-payload executor (via Hot.Decode) can run the hit check
// inline; only the controller mutates entries.
type DecodeEntry struct {
	PA   uint64
	Row  int64
	Bank int32
	OK   bool
}

// decodeAddr resolves pa to (bank, row) through the cache.
func (c *Controller) decodeAddr(pa uint64) (int, int64) {
	e := &c.decode[((pa>>6)^(pa>>18))&decodeMask]
	if e.OK && e.PA == pa {
		c.stats.DecodeHits++
		if c.audit {
			if bank, row := c.Map.Bank(pa), int64(c.Map.Row(pa)); int32(bank) != e.Bank || row != e.Row {
				panic(fmt.Sprintf("memctrl: audit: decode cache for pa=%#x holds (bank=%d,row=%d), mapping says (bank=%d,row=%d)",
					pa, e.Bank, e.Row, bank, row))
			}
		}
		return int(e.Bank), e.Row
	}
	c.stats.DecodeMisses++
	bank := c.Map.Bank(pa)
	row := int64(c.Map.Row(pa))
	*e = DecodeEntry{PA: pa, Row: row, Bank: int32(bank), OK: true}
	return bank, row
}

// New creates a controller. The mapping's bank count must not exceed the
// device's; the real systems in the paper always match exactly.
func New(a *arch.Arch, m *mapping.Mapping, dev *dram.Device) *Controller {
	if m.Banks() > dev.Banks() {
		panic(fmt.Sprintf("memctrl: mapping %s addresses %d banks but device has %d",
			m.Name, m.Banks(), dev.Banks()))
	}
	c := &Controller{
		Arch: a, Map: m, Dev: dev,
		T:       DeriveTimings(min(a.MemFreqMHz, dev.DIMM.FreqMHz)),
		banks:   make([]BankState, m.Banks()),
		nextREF: dram.TREFIns,
		decode:  make([]DecodeEntry, decodeSize),
	}
	for i := range c.banks {
		c.banks[i].OpenRow = -1
		c.banks[i].LastACT = math.Inf(-1)
	}
	return c
}

// Stats returns the accumulated controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// NextRefresh returns the time of the next scheduled REF command, the
// anchor real attacks synchronize their hammer loops to.
func (c *Controller) NextRefresh() float64 { return c.nextREF }

// advanceRefresh issues every REF due at or before time now. During a
// REF all banks are blocked for tRFC and all rows are closed.
func (c *Controller) advanceRefresh(now float64) {
	for c.nextREF <= now {
		t := c.nextREF
		c.Dev.Refresh(t)
		c.stats.Refreshes++
		for b := range c.banks {
			if c.banks[b].BusyUnit < t+c.T.TRFC {
				c.banks[b].BusyUnit = t + c.T.TRFC
			}
			c.banks[b].OpenRow = -1
		}
		c.nextREF += dram.TREFIns
	}
}

// Access services a memory read of the cache line at physical address pa
// issued at time `at`. It returns the completion time (when the line is
// available to the core) and the access classification.
func (c *Controller) Access(pa uint64, at float64) (complete float64, kind AccessKind) {
	c.advanceRefresh(at)
	bank, row := c.decodeAddr(pa)

	b := &c.banks[bank]
	start := at
	if b.BusyUnit > start {
		start = b.BusyUnit
	}

	c.stats.Accesses++
	switch {
	case b.OpenRow == row:
		kind = KindRowHit
		c.stats.RowHits++
		complete = start + c.T.TCL
		b.BusyUnit = start + c.T.TBus
	case b.OpenRow == -1:
		kind = KindRowEmpty
		c.stats.RowEmpty++
		actAt := start
		if tMin := b.LastACT + c.T.TRC; actAt < tMin {
			actAt = tMin
		}
		c.Dev.Activate(bank, uint64(row), actAt)
		b.LastACT = actAt
		b.OpenRow = row
		complete = actAt + c.T.TRCD + c.T.TCL
		b.BusyUnit = actAt + c.T.TRCD + c.T.TBus
	default:
		kind = KindRowConflict
		c.stats.Conflicts++
		preAt := start
		actAt := preAt + c.T.TRP
		if tMin := b.LastACT + c.T.TRC; actAt < tMin {
			actAt = tMin
		}
		c.Dev.Activate(bank, uint64(row), actAt)
		b.LastACT = actAt
		b.OpenRow = row
		complete = actAt + c.T.TRCD + c.T.TCL
		b.BusyUnit = actAt + c.T.TRCD + c.T.TBus
	}
	return complete + c.T.TCtrl, kind
}

// Classify reports what kind of access pa would be right now, without
// issuing it. Used by diagnostics only.
func (c *Controller) Classify(pa uint64) AccessKind {
	bank, row := c.decodeAddr(pa)
	switch c.banks[bank].OpenRow {
	case row:
		return KindRowHit
	case -1:
		return KindRowEmpty
	default:
		return KindRowConflict
	}
}

// CloseAll precharges every bank (e.g. between timing measurements).
func (c *Controller) CloseAll() {
	for i := range c.banks {
		c.banks[i].OpenRow = -1
	}
}

// Reset restores the controller to its initial state (banks closed,
// clocks rewound, statistics cleared). The attached device is untouched.
func (c *Controller) Reset() {
	for i := range c.banks {
		c.banks[i] = BankState{OpenRow: -1, LastACT: math.Inf(-1)}
	}
	c.nextREF = dram.TREFIns
	c.stats = Stats{}
}
