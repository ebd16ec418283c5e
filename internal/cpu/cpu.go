// Package cpu is a behavioral model of the speculative execution core
// that executes hammering programs: out-of-order early issue of memory
// operations bounded by a µop reorder window, branch-prediction
// speculation across loop iterations, line-fill-buffer and load-queue
// occupancy, the interaction of prefetches with in-flight cache flushes
// (Fig. 7 of the paper), NOP-based ROB pressure, and the x86
// fence/serialization instructions.
//
// The model is not cycle-accurate; it reproduces the causal mechanisms
// the paper identifies:
//
//   - A memory access may effectively issue up to W µops earlier than
//     its program position (W = the architecture's reorder window, far
//     larger for prefetches than for loads and growing sharply on
//     Alder/Raptor Lake). If that early issue reorders the access
//     before the older flush of the same line, the access sees the
//     line still cached and performs no DRAM activation — the prefetch
//     is dropped (Fig. 7).
//   - NOP sleds occupy ROB slots: N NOPs between a flush and the next
//     access to the same line push their µop distance beyond W, which
//     restores ordering at a tiny time cost — the pseudo-barrier of
//     §4.4. The optimal N balances restored order against lost
//     activation rate (Fig. 10's inverted U).
//   - Loads hold a load-queue entry until data returns, capping
//     memory-level parallelism; prefetches retire at dispatch and only
//     occupy a line-fill buffer, so they saturate DRAM bank timing
//     (§4.5 — the root of the prefetch throughput advantage).
//   - An access issued while the same line's fill is still in flight
//     merges with the outstanding fill buffer entry and produces no
//     extra activation — which is why effective patterns need their
//     aggressor revisits spread out.
//   - Control-flow obfuscation removes the branch-predictor's share of
//     the reorder window at a small per-iteration cost.
//   - LFENCE orders loads; it orders prefetches only indirectly, via
//     the address-generation dependency of the indexed ("C++ style")
//     primitive — with immediate addressing (the "AsmJit style") it
//     does not (§4.4, Table 3). MFENCE and CPUID serialize at much
//     higher cost; only CPUID orders prefetches architecturally.
package cpu

import (
	"fmt"
	"math"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/stats"
)

// OpKind enumerates the micro-operations a hammering program consists of.
type OpKind uint8

const (
	// OpLoad is an ordinary memory read (x86 MOV).
	OpLoad OpKind = iota
	// OpPrefetch is a software prefetch (PREFETCHT0/T1/T2/NTA).
	OpPrefetch
	// OpFlush is CLFLUSHOPT of one cache line.
	OpFlush
	// OpNop is a run of `N` NOP instructions.
	OpNop
	// OpLFence, OpMFence, OpCPUID are the barrier instructions of
	// Table 3.
	OpLFence
	OpMFence
	OpCPUID
	// OpIterStart marks a loop iteration boundary carrying the
	// control-flow obfuscation work (rdrand/rdtscp mixing) when the
	// run has obfuscation enabled.
	OpIterStart
)

// Hint selects the prefetch locality hint. The paper finds the
// differences marginal (Fig. 6) with T2/NTA slightly preferable; the
// model reflects that with small per-hint issue-cost deltas.
type Hint uint8

const (
	HintT0 Hint = iota
	HintT1
	HintT2
	HintNTA
)

// String implements fmt.Stringer.
func (h Hint) String() string {
	switch h {
	case HintT0:
		return "PREFETCHT0"
	case HintT1:
		return "PREFETCHT1"
	case HintT2:
		return "PREFETCHT2"
	case HintNTA:
		return "PREFETCHNTA"
	default:
		return fmt.Sprintf("Hint(%d)", uint8(h))
	}
}

// hintCost is the extra issue+pollution cost of a hint relative to
// PREFETCHNTA: fetching into more cache levels costs slightly more.
func hintCost(h Hint) float64 {
	switch h {
	case HintT0:
		return 0.22
	case HintT1:
		return 0.12
	case HintT2:
		return 0.02
	default:
		return 0
	}
}

// Op is one micro-operation of a program.
type Op struct {
	Kind OpKind
	Line int32 // index into the program's line table
	N    int32 // NOP repeat count (OpNop only)
	Hint Hint  // prefetch hint (OpPrefetch only)

	// robUops memoizes the NOP ROB-share conversion (a pure function of
	// N, always >= 1); 0 means not yet computed. Filled on first
	// execution so program builders don't need to know about it.
	robUops int32
}

// Program is the per-iteration body of a hammering loop plus the line
// table mapping line handles to physical addresses.
type Program struct {
	Ops   []Op
	Lines []uint64 // line handle -> physical address (64B aligned)
}

// Accesses returns the number of memory accesses (loads or prefetches)
// per iteration.
func (p *Program) Accesses() int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == OpLoad || op.Kind == OpPrefetch {
			n++
		}
	}
	return n
}

// Style distinguishes the two primitive implementations compared in
// §4.2: the C++ loop with indexed addressing (whose idx dependency chain
// throttles speculation) and the AsmJit-unrolled variant with immediate
// addresses (which the scheduler reorders aggressively).
type Style uint8

const (
	// StyleCPP is the indexed-addressing loop of Listing 1.
	StyleCPP Style = iota
	// StyleAsmJit is the loop-unrolled, immediate-address variant.
	StyleAsmJit
)

// String implements fmt.Stringer.
func (s Style) String() string {
	if s == StyleCPP {
		return "C++"
	}
	return "AsmJit"
}

// cppDepFactor scales the reorder window under the C++ primitive's
// address dependency chain.
const cppDepFactor = 0.42

// asmJitIssueFactor scales issue costs for the unrolled JIT code, which
// has no loop or indexing overhead.
const asmJitIssueFactor = 0.72

// obfUops is the ROB footprint of one obfuscation preamble.
const obfUops = 10

// nopRobShare is the fraction of NOPs that actually occupy scheduler
// resources: modern renamers eliminate most NOPs, so hundreds of NOPs
// are needed to exert real ROB pressure — which is why the optimal
// pseudo-barrier count in Fig. 10 sits in the hundreds.
const nopRobShare = 0.1

// Config selects the execution conditions of one run.
type Config struct {
	Style     Style
	Obfuscate bool // control-flow obfuscation enabled
}

// Result summarizes one program run.
type Result struct {
	TimeNS    float64 // CPU time consumed
	Accesses  uint64  // loads + prefetches executed
	Hits      uint64  // accesses served without DRAM activity
	Misses    uint64  // accesses that reached DRAM
	ACTs      uint64  // row activations issued (from the controller)
	StartTime float64 // controller time at run start
	EndTime   float64 // controller time at run end
}

// MissRate returns Misses/Accesses, the quantity plotted in Fig. 8.
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// lineState tracks the cache residency of one line.
type lineState struct {
	filled   bool
	decoded  bool    // payload executor: this run already touched the decode slot
	fillDone float64 // when the last fill completed (may be in flight)
	flushEff float64 // when the last flush takes effect; <0 = none
	flushUop int64   // µop index of the last flush; <0 = none
}

// Engine executes programs against one memory controller.
type Engine struct {
	Arch *arch.Arch
	Ctrl *memctrl.Controller
	Rand *stats.Rand

	now     float64
	uop     int64 // µop index, monotonically increasing
	lines   []lineState
	fills   fifoTimes // outstanding line fills (LFB entries)
	loads   fifoTimes // outstanding loads (effective MLP slots)
	fenceLD bool      // next load issues in order (post-fence)
	fencePF bool      // next prefetch issues in order

	accesses uint64
	hits     uint64
	misses   uint64

	// actBuf and payloadBatches belong to the compiled-payload executor
	// (payload.go): the deferred activation buffer, reused across runs,
	// and the cumulative count of batches handed to the device.
	actBuf         []dram.ActEntry
	payloadBatches uint64
}

// NewEngine builds an engine bound to a controller. The engine keeps its
// own clock, which advances monotonically across Run calls so the
// DRAM-side refresh machinery sees continuous time.
func NewEngine(a *arch.Arch, ctrl *memctrl.Controller, r *stats.Rand) *Engine {
	return &Engine{Arch: a, Ctrl: ctrl, Rand: r}
}

// Now returns the engine's current time in nanoseconds.
func (e *Engine) Now() float64 { return e.now }

// SyncToRefresh advances the engine's clock to the next REF boundary —
// the refresh synchronization step at the top of the paper's hammering
// primitive (Listing 1), which anchors the pattern's phase against the
// TRR sampler's observation intervals.
func (e *Engine) SyncToRefresh() {
	if t := e.Ctrl.NextRefresh(); t > e.now {
		e.now = t
	}
}

// Run executes the program body `iterations` times under cfg and returns
// the aggregate result. Line residency state is reset at the start of
// the run (the attacker flushes all aggressors before hammering). Run
// interprets one op at a time; it is the reference RunPayload is
// tested against, while hammer sessions execute compiled payloads.
func (e *Engine) Run(p *Program, iterations int, cfg Config) Result {
	if len(p.Lines) == 0 || len(p.Ops) == 0 {
		return Result{StartTime: e.now, EndTime: e.now}
	}
	// Reuse the line-state scratch across runs: the differential tests
	// call Run once per chunk, like the payload executor.
	if cap(e.lines) >= len(p.Lines) {
		e.lines = e.lines[:len(p.Lines)]
	} else {
		e.lines = make([]lineState, len(p.Lines))
	}
	for i := range e.lines {
		e.lines[i] = lineState{flushEff: -1, flushUop: -1}
	}
	e.fills.reset()
	e.loads.reset()
	e.fenceLD, e.fencePF = false, false
	e.accesses, e.hits, e.misses = 0, 0, 0

	start := e.now
	actsBefore := e.Ctrl.Stats().ACTs()

	issueScale := 1.0
	if cfg.Style == StyleAsmJit {
		issueScale = asmJitIssueFactor
	}
	wPF := e.window(e.Arch.WindowPF, cfg)
	wLD := e.window(e.Arch.WindowLD, cfg)

	for it := 0; it < iterations; it++ {
		for i := range p.Ops {
			op := &p.Ops[i]
			switch op.Kind {
			case OpLoad:
				e.access(p.Lines[op.Line], op, wLD, issueScale, true)
			case OpPrefetch:
				e.access(p.Lines[op.Line], op, wPF, issueScale, false)
			case OpFlush:
				e.uop++
				e.now += e.Arch.IssueCostFlush * issueScale
				ls := &e.lines[op.Line]
				if ls.filled {
					// A flush racing an in-flight fill takes effect
					// just after the fill lands; otherwise after the
					// eviction latency.
					eff := e.now + e.Arch.FlushLatencyNS
					if ls.fillDone+1 > eff {
						eff = ls.fillDone + 1
					}
					ls.flushEff = eff
					ls.flushUop = e.uop
				}
			case OpNop:
				if op.robUops == 0 {
					r := int32(float64(op.N)*nopRobShare + 0.5)
					if r < 1 {
						r = 1
					}
					op.robUops = r
				}
				e.uop += int64(op.robUops)
				e.now += float64(op.N) * e.Arch.NopCostNS
			case OpLFence:
				e.uop++
				e.now += e.Arch.LFenceNS
				e.now = e.loads.drainAll(e.now)
				e.fenceLD = true
				if cfg.Style == StyleCPP {
					// The fence stalls the address-generation loads
					// the indexed primitive feeds prefetches with,
					// ordering them indirectly (§4.4).
					e.fencePF = true
				}
			case OpMFence:
				e.uop++
				e.now += e.Arch.MFenceNS
				e.now = e.loads.drainAll(e.now)
				e.now = e.fills.drainAll(e.now)
				e.fenceLD = true
				// Prefetches are architecturally NOT ordered by
				// MFENCE (Intel SDM; Table 3's zero-flip column).
			case OpCPUID:
				e.uop++
				e.now += e.Arch.CPUIDNS
				e.now = e.loads.drainAll(e.now)
				e.now = e.fills.drainAll(e.now)
				e.fenceLD, e.fencePF = true, true
			case OpIterStart:
				if cfg.Obfuscate {
					e.uop += obfUops
					e.now += e.Arch.ObfuscationNS
				}
			}
		}
	}

	acts := e.Ctrl.Stats().ACTs() - actsBefore
	return Result{
		TimeNS:    e.now - start,
		Accesses:  e.accesses,
		Hits:      e.hits,
		Misses:    e.misses,
		ACTs:      acts,
		StartTime: start,
		EndTime:   e.now,
	}
}

// window computes the effective reorder window in µops for a run.
func (e *Engine) window(base float64, cfg Config) float64 {
	w := base
	if cfg.Style == StyleCPP {
		w *= cppDepFactor
	}
	if cfg.Obfuscate {
		w *= 1 - e.Arch.BranchSpecShare
	}
	return w
}

// access executes one load or prefetch of the line at physical address
// pa. window is the run's effective reorder window for this access kind.
func (e *Engine) access(pa uint64, op *Op, window, issueScale float64, isLoad bool) {
	e.accesses++
	e.uop++

	ls := &e.lines[op.Line]
	if e.servedFromCache(ls, window, isLoad) {
		e.hits++
		if isLoad {
			e.now += (e.Arch.IssueCostLD + 1.0) * issueScale
		} else {
			e.now += (e.Arch.IssueCostPF + hintCost(op.Hint)) * issueScale
		}
		return
	}

	// Miss: the access goes to DRAM.
	e.misses++
	var complete float64
	if isLoad {
		// A load occupies an MLP slot until data returns; with the
		// interleaved flushes of the hammer pair the ROB keeps the
		// effective parallelism at LoadMLP (§4.5).
		e.now = e.loads.waitForSlot(e.Arch.LoadMLP, e.now)
		complete, _ = e.Ctrl.Access(pa, e.now)
		e.loads.push(complete + e.Arch.LoadSerializeNS)
		e.now += e.Arch.IssueCostLD * issueScale
	} else {
		e.now = e.fills.waitForSlot(e.Arch.LFBCount, e.now)
		complete, _ = e.Ctrl.Access(pa, e.now)
		e.fills.push(complete)
		e.now += (e.Arch.IssueCostPF + hintCost(op.Hint)) * issueScale
	}
	ls.filled = true
	ls.fillDone = complete
	ls.flushEff = -1
	ls.flushUop = -1
}

// servedFromCache decides whether an access is served without DRAM
// activity. It consumes a pending fence flag and may draw a speculation
// skew, so it must be called exactly once per access.
func (e *Engine) servedFromCache(ls *lineState, window float64, isLoad bool) bool {
	fenced := false
	if isLoad {
		fenced = e.fenceLD
		e.fenceLD = false
	} else {
		fenced = e.fencePF
		e.fencePF = false
	}

	if !ls.filled {
		return false // never fetched: compulsory miss
	}
	if e.now < ls.fillDone {
		return true // fill still in flight: merges with the LFB entry
	}
	if ls.flushUop < 0 {
		return true // resident, never flushed since the fill
	}
	if e.now < ls.flushEff {
		return true // flush not yet taken effect: still resident
	}
	// The line was evicted in program order. Speculative early issue
	// may still reorder this access before the flush (Fig. 7): it then
	// sees the stale resident line and is dropped.
	if !fenced && window > 0 {
		skew := e.Rand.Float64() * window
		if skew > float64(e.uop-ls.flushUop) {
			return true
		}
	}
	// Load-queue replay speculation reissues a fraction of loads out
	// of order no matter how saturated the ROB is — fences and NOPs
	// cannot drain it (§4.4: counter-speculation does not revive
	// load-based hammering on the newest cores).
	if isLoad && e.Arch.LoadReplayShare > 0 && e.Rand.Float64() < e.Arch.LoadReplayShare {
		return true
	}
	return false
}

// fifoTimes is a small FIFO of completion timestamps used for the LFB
// and load-queue occupancy models. Occupancy is architecturally bounded:
// every push is preceded by waitForSlot(capSlots) with capSlots ≤
// LFBCount, so a fixed power-of-two ring holds the queue with no
// allocation, no compaction and mask-only index arithmetic. The FIFO
// values and pop order are unchanged from the slice version, so the
// timing results are bit-identical.
const (
	fifoRingSize = 64 // > max LFBCount across all arch models
	fifoRingMask = fifoRingSize - 1
)

type fifoTimes struct {
	buf  [fifoRingSize]float64
	head uint32
	tail uint32
}

func (f *fifoTimes) reset() { f.head, f.tail = 0, 0 }

func (f *fifoTimes) len() int { return int(f.tail - f.head) }

func (f *fifoTimes) push(t float64) {
	if f.tail-f.head == fifoRingSize {
		panic("cpu: fifoTimes overflow (occupancy bound violated)")
	}
	f.buf[f.tail&fifoRingMask] = t
	f.tail++
}

func (f *fifoTimes) oldest() float64 {
	if f.head == f.tail {
		return math.Inf(-1)
	}
	return f.buf[f.head&fifoRingMask]
}

// drainUntil pops every entry completing at or before t.
func (f *fifoTimes) drainUntil(t float64) {
	for f.head != f.tail && f.buf[f.head&fifoRingMask] <= t {
		f.head++
	}
}

// drainAll empties the queue (a full fence) and returns now advanced
// past the last outstanding completion. The clock goes in and comes
// back by value, so a caller's clock never needs an address and can
// stay in a register.
func (f *fifoTimes) drainAll(now float64) float64 {
	for f.head != f.tail {
		if v := f.buf[f.head&fifoRingMask]; v > now {
			now = v
		}
		f.head++
	}
	return now
}

// waitForSlot blocks until fewer than cap entries remain outstanding
// and returns now advanced as needed.
func (f *fifoTimes) waitForSlot(capSlots int, now float64) float64 {
	f.drainUntil(now)
	for int(f.tail-f.head) >= capSlots {
		if v := f.buf[f.head&fifoRingMask]; v > now {
			now = v
		}
		f.head++
	}
	return now
}
