// Package dram models a DDR4 DRAM device at the granularity RowHammer
// cares about: per-row activation-disturbance accumulation within refresh
// windows, per-cell flip thresholds, regular refresh, and the in-DRAM
// Target Row Refresh (TRR) mitigation plus the platform-level pTRR option
// discussed in §6 of the paper.
//
// The model deliberately ignores columns and data transfer (the paper
// excludes RowPress and column addressing): an activation is the unit of
// disturbance, and a bit flip is a (bank, row, byte, bit, direction)
// tuple.
//
// Hot-path layout: a hammering campaign revisits the same ~dozen
// aggressor rows tens of millions of times, so the per-activation path is
// organized around a direct-mapped (bank,row)→state cache backed by the
// lazy per-bank maps. TRR sampling costs O(1) per activation: each row
// state carries an interval stamp and its slot in the bank's sampler, so
// a repeat activation bumps a count by index and no table is scanned.
// Refresh boundaries pay only the top-N selection, over the banks
// activated in the interval, and the pTRR sweep.
package dram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rhohammer/internal/arch"
	"rhohammer/internal/obs"
)

// Timing constants of the refresh machinery (DDR4 defaults).
const (
	TREFIns       = 7800.0 // average refresh command interval, ns
	RefreshSlices = 8192   // tREFW / tREFI: each row refreshed every 8192 REFs
	RowBytes      = 8192   // bytes per row (8 KB typical for x8 DDR4)
)

// maxBanks is the most geographic banks a device models: the sampled-
// bank mask is one 64-bit word. DDR5 D1's 2×32 is the largest profile.
const maxBanks = 64

// Flip records one observed bit flip.
type Flip struct {
	Bank      int
	Row       uint64
	ByteInRow int
	Bit       uint8
	// Direction is true for a 1->0 flip (charged cell drained), false
	// for 0->1. Whether a flip is *observable* depends on the data
	// pattern the attacker initialized the victim row with.
	OneToZero bool
	// Time is the simulation timestamp (ns) at which the cell crossed
	// its disturbance threshold.
	Time float64
}

// VisibleUnder reports whether the flip would be observable when the
// victim row was initialized with the given repeating byte pattern: a
// cell can only be seen flipping 1->0 if the pattern stored a 1 there,
// and 0->1 if it stored a 0. Real templating scans with complementary
// patterns (e.g. 0x55 then 0xAA) to expose both directions.
func (f Flip) VisibleUnder(dataPattern byte) bool {
	storedOne := dataPattern&(1<<f.Bit) != 0
	return storedOne == f.OneToZero
}

// String implements fmt.Stringer.
func (f Flip) String() string {
	dir := "0->1"
	if f.OneToZero {
		dir = "1->0"
	}
	return fmt.Sprintf("bank %d row %d byte %d bit %d (%s)", f.Bank, f.Row, f.ByteInRow, f.Bit, dir)
}

// weakCell is one flippable cell of a row, pre-drawn deterministically
// from the DIMM's vulnerability distribution.
type weakCell struct {
	threshold float64 // activations-within-window needed to flip
	byteInRow int
	bit       uint8
	oneToZero bool
	flipped   bool
}

// rowState tracks the RowHammer-relevant state of one row that has seen
// neighbor activity or been activated itself. Rows are materialized
// lazily; an idle device uses no per-row memory.
type rowState struct {
	disturbance float64 // accumulated neighbor activations this window
	minThresh   float64 // cheapest threshold among unflipped weak cells
	// gate is the disturbance level at which the slow path must run:
	// materializeFloor while the weak-cell population is undrawn,
	// minThresh afterwards. A single comparison against it keeps the
	// steady-state disturb fast path inlineable.
	gate  float64
	epoch uint64 // refresh epoch at the last disturbance update
	// epochRef is the device refCount when epoch was last derived; the
	// epoch is a pure function of (row, refCount), so while refCount is
	// unchanged the derivation can be skipped entirely.
	epochRef uint64
	acts     uint64 // activations of this row itself since Reset
	// trrStamp is the device TRR interval of the row's last activation,
	// and trrSlot the bank sampler slot it took then (-1: the table was
	// full, so the row goes untracked for the rest of that interval).
	// See trrSampler.sample.
	trrStamp     uint64
	trrSlot      int32
	materialized bool // weak-cell population drawn
	// nbr caches the states of the four blast-radius neighbors
	// (row-1, row+1, row-2, row+2; nil = off the edge of the bank),
	// filled on the row's first activation. States are created once and
	// never replaced, so the pointers stay valid for the device's
	// lifetime — Activate touches one cache line instead of four
	// row-cache probes.
	nbrOK bool
	nbr   [4]*rowState
	cells []weakCell
}

// materializeFloor defers drawing a row's weak-cell population until its
// in-window disturbance reaches this level. Real thresholds are tens of
// thousands, so the deferral never changes behaviour — it only keeps
// casually touched rows (e.g. during timing measurements) cheap.
const materializeFloor = 512

// Direct-mapped row-state cache geometry. The aggressor working set of
// any pattern is a few dozen (bank,row) pairs, so a 4096-entry cache
// makes the steady-state Activate path hash-free; conflicting keys
// simply fall back to the per-bank maps.
const (
	rowCacheBits = 12
	rowCacheSize = 1 << rowCacheBits
	rowCacheMask = rowCacheSize - 1
	rowCacheTag  = uint64(1) << 63 // valid marker OR'ed into cached keys
)

// rowCacheEntry is one slot of the direct-mapped (bank,row)→state cache.
type rowCacheEntry struct {
	key uint64 // row | bank<<48 | rowCacheTag; 0 = empty
	st  *rowState
}

// Device is one simulated DIMM attached to a memory controller.
type Device struct {
	DIMM *arch.DIMM
	Seed int64

	// PTRR enables the platform pseudo-TRR mitigation ("Rowhammer
	// Prevention" BIOS option, §6): the memory controller tracks the
	// most-activated rows with near-perfect fidelity and preemptively
	// refreshes their neighborhoods at every REF.
	PTRR bool

	banks    int
	rows     uint64
	rowsMask uint64

	// rowsPerSlice is rows/RefreshSlices (min 1), precomputed so the
	// per-victim epoch check never divides; when it is a power of two
	// (every profile in arch), sliceShift replaces even the cached
	// division with a shift.
	rowsPerSlice uint64
	sliceShift   uint
	sliceByShift bool

	// touched maps bank -> row -> state, for rows adjacent to any
	// activated row and for activated rows themselves (act counting).
	touched []map[uint64]*rowState

	// rowCache short-circuits the touched-map lookups for the hot
	// working set. Entries are never invalidated: states are created
	// exactly once and mutated in place, so a cached pointer stays
	// correct for the device's lifetime.
	rowCache []rowCacheEntry

	// trr holds the per-bank TRR sampler state (cleared every REF);
	// real DDR4 TRR logic operates independently per bank.
	trr []trrSampler

	// sampled has bit b set when bank b's sampler took an ACT in the
	// current interval. Only those samplers can hold entries, so
	// Refresh visits just them, in ascending bank order as a walk over
	// every bank would (an empty sampler's top is nil and its clear a
	// no-op). Both per-ACT bodies set it; NewDevice caps the device at
	// 64 banks so one word covers them.
	sampled uint64

	// trrInterval numbers the sampler intervals for the row stamps.
	// Refresh and Reset both leave every sampler empty and advance it; it
	// starts at 1 (a fresh row state's stamp is 0) and is never zeroed,
	// so no stamp outlives the table contents it indexes. refCount
	// cannot serve, because Reset zeroes it.
	trrInterval uint64

	// ptrrCounts tracks per-REF activation counts for the pTRR model in
	// a flat open-addressing table cleared at every REF.
	ptrrCounts ptrrTable

	flips     []Flip
	refCount  uint64 // total REF commands issued
	actCount  uint64
	trrEvents uint64

	// rfm holds the DDR5 refresh-management state (nil on DDR4).
	rfm       []rfmState
	rfmEvents uint64

	// rowSwap holds the randomized row-swap mitigation state (§6).
	rowSwap       rowSwapState
	rowSwapEvents uint64

	// shadow, when non-nil, receives a copy of every Activate, Refresh
	// and Reset (the simcheck audit mode, see audit.go). auditTRR logs
	// targeted-refresh events while a shadow is attached.
	shadow   Shadow
	auditTRR []TRRTrigger

	// trace, when non-nil, receives structured observability events
	// (see SetTrace in obs.go). Costs one nil check per hot-path event
	// when detached.
	trace *obs.Trace

	// stateSlab is the bump allocator behind stateSlow: row states are
	// carved from fixed-size chunks instead of allocated one by one.
	// Mapping-recovery campaigns touch ~10⁵ distinct rows per run, and
	// per-row allocation was the top object-count site in the table6 /
	// recovery heap profiles. States never free individually (touched
	// pins them for the device's lifetime), so a slab retains nothing
	// beyond what the maps already hold. Kept at the end of the struct
	// so the hot fields above keep their cache-line placement.
	stateSlab []rowState
}

// NewDevice builds a device for the given DIMM profile. Seed fixes the
// per-cell vulnerability map: two devices with the same DIMM and seed
// flip the exact same cells, which is how the paper's "flips depend on
// physical location" observation (Orosa et al.) is reproduced.
func NewDevice(d *arch.DIMM, seed int64) *Device {
	if n := d.TotalBanks(); n > maxBanks {
		panic(fmt.Sprintf("dram: DIMM %s has %d banks; the device models at most %d", d.ID, n, maxBanks))
	}
	dev := &Device{
		DIMM:     d,
		Seed:     seed,
		banks:    d.TotalBanks(),
		rows:     d.RowsPerBank,
		rowsMask: d.RowsPerBank - 1,
	}
	dev.rowsPerSlice = dev.rows / RefreshSlices
	if dev.rowsPerSlice == 0 {
		dev.rowsPerSlice = 1
	}
	if dev.rowsPerSlice&(dev.rowsPerSlice-1) == 0 {
		dev.sliceShift = uint(bits.TrailingZeros64(dev.rowsPerSlice))
		dev.sliceByShift = true
	}
	dev.touched = make([]map[uint64]*rowState, dev.banks)
	for i := range dev.touched {
		dev.touched[i] = make(map[uint64]*rowState)
	}
	dev.rowCache = make([]rowCacheEntry, rowCacheSize)
	dev.trr = make([]trrSampler, dev.banks)
	for i := range dev.trr {
		dev.trr[i] = newTRRSampler(d.TRRSamplerSize)
	}
	dev.trrInterval = 1
	dev.ptrrCounts.init()
	dev.initRFM()
	return dev
}

// Banks returns the number of geographic banks.
func (d *Device) Banks() int { return d.banks }

// Rows returns the number of rows per bank.
func (d *Device) Rows() uint64 { return d.rows }

// ActivationCount returns the total number of ACT commands seen.
func (d *Device) ActivationCount() uint64 { return d.actCount }

// TRREvents returns how many targeted refreshes TRR has issued.
func (d *Device) TRREvents() uint64 { return d.trrEvents }

// blastWeights[dist] is the disturbance one activation deposits on a
// neighbor at the given row distance. Distance-2 coupling is an order of
// magnitude weaker (Half-Double-style far aggressors are out of scope
// but the coupling keeps double-sided patterns realistically stronger
// than single-sided ones).
var blastWeights = [3]float64{0, 1.0, 0.08}

// blast returns the disturbance weight at the given row distance.
func blast(dist int) float64 {
	if dist < 0 || dist >= len(blastWeights) {
		return 0
	}
	return blastWeights[dist]
}

// rowKey packs a (bank, row) pair into the 64-bit key used by the state
// store and the pTRR table.
func rowKey(bank int, row uint64) uint64 { return row | uint64(bank)<<48 }

// state returns the row's state, creating it on first touch. The
// direct-mapped cache serves the steady-state working set without
// hashing; misses fall back to (and refill from) the per-bank map. The
// fast path is kept small enough to inline into Activate and disturb.
func (d *Device) state(bank int, row uint64) *rowState {
	e := &d.rowCache[(row^uint64(bank)<<6)&rowCacheMask]
	if e.key == rowKey(bank, row)|rowCacheTag {
		return e.st
	}
	return d.stateSlow(bank, row)
}

// stateSlabChunk is the slab granularity: big enough to amortize the
// allocation, small enough that a short-lived device wastes little.
const stateSlabChunk = 1024

// stateSlow is the cache-miss path of state.
func (d *Device) stateSlow(bank int, row uint64) *rowState {
	st := d.touched[bank][row]
	if st == nil {
		if len(d.stateSlab) == 0 {
			d.stateSlab = make([]rowState, stateSlabChunk)
		}
		st = &d.stateSlab[0]
		d.stateSlab = d.stateSlab[1:]
		st.minThresh = math.Inf(1)
		st.gate = materializeFloor
		d.touched[bank][row] = st
	}
	e := &d.rowCache[(row^uint64(bank)<<6)&rowCacheMask]
	e.key = rowKey(bank, row) | rowCacheTag
	e.st = st
	return st
}

// peek returns the row's state without creating one, refilling the cache
// on a map hit.
func (d *Device) peek(bank int, row uint64) *rowState {
	key := rowKey(bank, row) | rowCacheTag
	e := &d.rowCache[(row^uint64(bank)<<6)&rowCacheMask]
	if e.key == key {
		return e.st
	}
	st := d.touched[bank][row]
	if st != nil {
		e.key = key
		e.st = st
	}
	return st
}

// Activate registers one ACT on (bank, row) at simulation time now (ns).
// It deposits disturbance on the neighboring rows and records any cells
// whose thresholds are crossed.
func (d *Device) Activate(bank int, row uint64, now float64) {
	d.activate(d.state(bank, row), bank, row, now)
}

// activate is the one per-ACT body with every observer and mitigation
// hook in place; st is the state of (bank, row) before any row swap.
// Activate resolves it per call, ActivateBatch takes it pinned from
// PrepareAct.
func (d *Device) activate(st *rowState, bank int, row uint64, now float64) {
	if d.shadow != nil {
		// Forwarded before any mutation: the shadow models the same
		// substrate input (pre-row-swap logical address).
		d.shadow.Activate(bank, row, now)
	}
	d.actCount++
	if d.trace != nil {
		// Pre-swap logical address, like the shadow: the trace records
		// the substrate's input stream.
		d.trace.Emit(obs.Event{TimeNS: now, Layer: "dram", Kind: "act", Bank: bank, Row: row})
	}
	st.acts++
	if d.rowSwap.enabled {
		// The swap layer sits between the address and the physical
		// array: everything below — disturbance, TRR sampling, RFM —
		// sees the row's current physical location.
		d.rowSwapObserve(bank, row)
		row = d.swapTarget(bank, row)
		st = d.state(bank, row)
	}
	d.trr[bank].sample(st, row, d.trrInterval)
	d.sampled |= 1 << uint(bank)
	if d.PTRR {
		d.ptrrCounts.add(rowKey(bank, row))
	}
	if d.DIMM.DDR5 {
		d.rfmObserve(bank, row)
	}
	if !st.nbrOK {
		d.fillNeighbors(bank, row, st)
	}
	// Victim order (near pair before far pair) matches the original
	// dist-loop so the flip log sequence is bit-identical.
	if n := st.nbr[0]; n != nil {
		d.disturb(n, bank, row-1, blastWeights[1], now)
	}
	if n := st.nbr[1]; n != nil {
		d.disturb(n, bank, row+1, blastWeights[1], now)
	}
	if n := st.nbr[2]; n != nil {
		d.disturb(n, bank, row-2, blastWeights[2], now)
	}
	if n := st.nbr[3]; n != nil {
		d.disturb(n, bank, row+2, blastWeights[2], now)
	}
}

// fillNeighbors resolves and pins the blast-radius neighbor states of a
// row on its first activation.
func (d *Device) fillNeighbors(bank int, row uint64, st *rowState) {
	st.nbrOK = true
	if row >= 1 {
		st.nbr[0] = d.state(bank, row-1)
	}
	if row+1 < d.rows {
		st.nbr[1] = d.state(bank, row+1)
	}
	if row >= 2 {
		st.nbr[2] = d.state(bank, row-2)
	}
	if row+2 < d.rows {
		st.nbr[3] = d.state(bank, row+2)
	}
}

// rowEpoch returns how many times the row's refresh slice has been
// refreshed so far; a change since the last update means the row was
// refreshed in between and its window accumulator restarts.
func (d *Device) rowEpoch(row uint64) uint64 {
	var slice uint64
	if d.sliceByShift {
		slice = row >> d.sliceShift
	} else {
		slice = row / d.rowsPerSlice
	}
	if slice >= RefreshSlices {
		slice = RefreshSlices - 1
	}
	return (d.refCount + RefreshSlices - 1 - slice) / RefreshSlices
}

// disturb adds disturbance w to the victim row's (pre-resolved) state
// and fires flips. The body is the steady-state fast path — same epoch,
// gate not reached — kept small enough to inline into activate; anything
// else goes to disturbSlow.
func (d *Device) disturb(st *rowState, bank int, row uint64, w float64, now float64) {
	if st.epochRef == d.refCount && st.disturbance+w < st.gate {
		st.disturbance += w
		return
	}
	d.disturbSlow(st, bank, row, w, now)
}

// disturbSlow handles epoch rollover, materialization, and threshold
// crossings; it is the pre-split disturb body, bit-for-bit.
func (d *Device) disturbSlow(st *rowState, bank int, row uint64, w float64, now float64) {
	if st.epochRef != d.refCount {
		// A REF happened since this row's last update; re-derive its
		// refresh epoch. (While refCount is unchanged the epoch cannot
		// change, so the steady state skips the derivation.)
		st.epochRef = d.refCount
		if e := d.rowEpoch(row); e != st.epoch {
			// The row's regular refresh passed since the last update:
			// its disturbance window restarted.
			st.epoch = e
			st.disturbance = 0
		}
	}
	st.disturbance += w
	if !st.materialized {
		if st.disturbance < materializeFloor {
			return
		}
		d.materializeRow(bank, row, st)
	}
	if st.disturbance < st.minThresh {
		return
	}
	// One or more cells crossed their thresholds.
	next := math.Inf(1)
	for i := range st.cells {
		c := &st.cells[i]
		if c.flipped {
			continue
		}
		if st.disturbance >= c.threshold {
			c.flipped = true
			d.flips = append(d.flips, Flip{
				Bank: bank, Row: row,
				ByteInRow: c.byteInRow, Bit: c.bit,
				OneToZero: c.oneToZero, Time: now,
			})
			if d.trace != nil {
				d.trace.Emit(obs.Event{TimeNS: now, Layer: "dram", Kind: "flip",
					Bank: bank, Row: row, N: int64(c.byteInRow)*8 + int64(c.bit)})
			}
		} else if c.threshold < next {
			next = c.threshold
		}
	}
	st.minThresh = next
	st.gate = next
}

// materializeRow draws the weak-cell population of a row from the
// DIMM's vulnerability distribution, deterministically in (seed, bank,
// row) — the same cells appear no matter when or in which run the row
// is first pressured.
func (d *Device) materializeRow(bank int, row uint64, st *rowState) {
	st.materialized = true
	st.minThresh = math.Inf(1)
	st.gate = math.Inf(1)
	if !d.DIMM.Flippable {
		return
	}
	h := newHashRand(d.Seed, uint64(bank), row)
	n := h.poisson(d.DIMM.WeakCellsPerRowLambda)
	if n == 0 {
		return
	}
	st.cells = make([]weakCell, n)
	for i := range st.cells {
		c := &st.cells[i]
		c.threshold = math.Exp(h.norm()*d.DIMM.ThresholdSigma + d.DIMM.ThresholdMu)
		c.byteInRow = int(h.next() % RowBytes)
		c.bit = uint8(h.next() % 8)
		c.oneToZero = h.next()&1 == 0
		if c.threshold < st.minThresh {
			st.minThresh = c.threshold
		}
	}
	st.gate = st.minThresh
	if d.trace != nil {
		// Blast-radius event: this row came under enough neighbor
		// pressure to enter the vulnerable population.
		d.trace.Emit(obs.Event{Layer: "dram", Kind: "blast", Bank: bank, Row: row, N: int64(n)})
	}
}

// Refresh executes one REF command at simulation time now: the rotating
// 1/8192 slice of every bank is refreshed, TRR fires its targeted
// refreshes, and (if enabled) pTRR refreshes the hottest neighborhoods.
func (d *Device) Refresh(now float64) {
	// Regular refresh of the rotating row slice is applied lazily via
	// rowEpoch; only the counter advances here.
	d.refCount++
	d.trrInterval++
	if d.trace != nil {
		d.trace.Emit(obs.Event{TimeNS: now, Layer: "dram", Kind: "ref"})
	}

	// TRR: each bank's logic proactively refreshes the neighborhood of
	// its sampler's top candidates, then clears for the next interval.
	// Banks no ACT reached this interval have nothing to refresh.
	for m := d.sampled; m != 0; m &= m - 1 {
		bank := bits.TrailingZeros64(m)
		for _, row := range d.trr[bank].top(d.DIMM.TRRRefreshPerREF) {
			d.refreshNeighborhood(bank, row)
		}
		d.trr[bank].clear()
	}
	d.sampled = 0

	if d.PTRR {
		d.ptrrSweep()
	}

	if d.shadow != nil {
		// Forwarded after the REF is fully processed, so a diffing
		// shadow compares both models past the same event.
		d.shadow.Refresh(now)
	}
}

// refreshNeighborhood resets the disturbance of rows adjacent to an
// identified aggressor (the TRR action).
func (d *Device) refreshNeighborhood(bank int, row uint64) {
	d.trrEvents++
	if d.trace != nil {
		d.trace.Emit(obs.Event{Layer: "dram", Kind: "trr", Bank: bank, Row: row})
	}
	if d.shadow != nil {
		d.auditTRR = append(d.auditTRR, TRRTrigger{Bank: bank, Row: row})
	}
	for dist := uint64(1); dist <= 2; dist++ {
		if row >= dist {
			if st := d.peek(bank, row-dist); st != nil {
				st.disturbance = 0
			}
		}
		if row+dist < d.rows {
			if st := d.peek(bank, row+dist); st != nil {
				st.disturbance = 0
			}
		}
	}
}

// ptrrSweep is the platform mitigation: unlike the capacity-limited DRAM
// sampler it sees every activation, so it reliably neutralizes all
// heavily hammered rows each interval.
func (d *Device) ptrrSweep() {
	hot := d.ptrrCounts.hot(3)
	// Stable sort on count with insertion order breaking ties, so the
	// top-64 cut is deterministic (the map-based predecessor broke ties
	// by map iteration order).
	sort.SliceStable(hot, func(i, j int) bool { return hot[i].count > hot[j].count })
	if len(hot) > 64 {
		hot = hot[:64]
	}
	for _, h := range hot {
		d.refreshNeighborhood(int(h.key>>48), h.key&d.rowsMask)
	}
	d.ptrrCounts.clear()
}

// Flips returns all flips recorded since the last Reset. The returned
// slice is only valid until the next Reset, which recycles its backing
// array; callers that retain flips across trials must copy them (the
// hammer session result path already does).
func (d *Device) Flips() []Flip { return d.flips }

// Reset clears disturbance state and recorded flips, modeling the
// attacker re-initializing victim memory between trials. The per-cell
// vulnerability map (seeded) is preserved, as are the lazily built
// per-row states and the row cache (pointers stay valid — states are
// mutated in place, never replaced).
func (d *Device) Reset() {
	if d.trace != nil {
		// Reset is a substrate command like ACT/REF: without it in the
		// trace, a replay would carry disturbance across trial
		// boundaries the recording session cleared.
		d.trace.Emit(obs.Event{Layer: "dram", Kind: "reset"})
	}
	for bank := range d.touched {
		for _, st := range d.touched[bank] {
			st.disturbance = 0
			st.epoch = 0
			st.epochRef = 0
			st.acts = 0
			if !st.materialized {
				continue
			}
			next := math.Inf(1)
			for i := range st.cells {
				st.cells[i].flipped = false
				if st.cells[i].threshold < next {
					next = st.cells[i].threshold
				}
			}
			st.minThresh = next
			st.gate = next
		}
	}
	d.flips = d.flips[:0]
	for i := range d.trr {
		d.trr[i].clear()
	}
	d.sampled = 0
	d.trrInterval++
	d.ptrrCounts.clear()
	d.refCount = 0
	d.actCount = 0
	d.trrEvents = 0
	d.resetRFM()
	d.resetRowSwap()
	if d.shadow != nil {
		d.auditTRR = d.auditTRR[:0]
		d.shadow.Reset()
	}
}

// ActCount reports the total activations a row has received since the
// last Reset.
func (d *Device) ActCount(bank int, row uint64) uint64 {
	if st := d.peek(bank, row); st != nil {
		return st.acts
	}
	return 0
}

// RowDisturbance reports the current in-window disturbance of a row,
// mainly for tests and diagnostics.
func (d *Device) RowDisturbance(bank int, row uint64) float64 {
	if st := d.peek(bank, row); st != nil {
		return st.disturbance
	}
	return 0
}

// WeakCellCount reports how many weak cells a row holds (materializing
// it if needed) — used by tests and the templating analysis.
func (d *Device) WeakCellCount(bank int, row uint64) int {
	st := d.state(bank, row)
	if !st.materialized {
		d.materializeRow(bank, row, st)
	}
	return len(st.cells)
}
