package cpu

import (
	"fmt"

	"rhohammer/internal/dram"
	"rhohammer/internal/memctrl"
)

// Compiled payloads: the execution path of the hammering hot loop
// (the LiteX payload-executor idiom). Compile lowers a Program under
// one execution Config into a Payload — a flat slot
// array with every per-op decision already taken: issue costs and
// reorder windows multiplied out, NOP/obfuscation ROB-and-time deltas
// folded into the next slot, flushes of the just-accessed line fused
// into its access slot, and every line's address translation and DRAM
// row state preresolved. RunPayload then executes the schedule with the
// memory controller's bank state machine inlined and DRAM activations
// buffered into batches, producing bit-identical results to Run.
//
// Determinism policy — why compiled ≡ interpreted, exactly:
//
//   - RNG draws: the executor reproduces servedFromCache's draw
//     conditions and order verbatim (a speculation-skew draw only when
//     unfenced with a positive window, then a load-replay draw only for
//     still-unserved loads). Same draws, same order, same stream. Both
//     executors draw through stats.Rand's inlined Float64, so this
//     differential cannot catch a wrong draw; the stats stream tests
//     (TestRandMatchesMathRand, FuzzRandStream) hold that draw to
//     math/rand's.
//   - Floating point: time deltas are applied in program order, one add
//     per original op (two folded delta slots per slot, defaulting to
//     +0.0 which is exact for the non-negative clock), and every
//     compile-time constant is the same single expression the
//     interpreter evaluates per call — never an algebraic refactoring.
//     The LFB and load-queue helpers take the clock and return it
//     rather than taking its address, so the clock stays in a register;
//     they only raise it to a queued completion time, never add.
//   - Event order: the controller's decode-cache, refresh and bank
//     bookkeeping runs at the same decision points; buffered ACTs are
//     flushed to the device before any REF and at run end, preserving
//     the device's event call order (ACT timestamps may legitimately
//     exceed the CPU clock, so order — not time — is the contract).
//
// There is no fallback: every hammer run executes a payload. Row-swap,
// pTRR, DDR5-RFM, the device's obs trace and the simcheck shadow are
// handled inside dram.ActivateBatch per entry, so a device trace
// records the executor's ACTs (and the REFs AdvanceRefresh issues)
// exactly as it records the interpreted path's. Run stays as the
// reference the differential tests compare RunPayload against.

// slotKind enumerates the compiled schedule's operations.
type slotKind uint8

const (
	// slotAccess is a load or prefetch, optionally fused with the
	// flush of the same line that follows it.
	slotAccess slotKind = iota
	// slotFlush is an unfused CLFLUSHOPT.
	slotFlush
	// slotLFence, slotMFence, slotCPUID are the barrier instructions.
	slotLFence
	slotMFence
	slotCPUID
	// slotAdvance only applies its folded clock/ROB deltas (trailing
	// NOP runs, or delta runs too long to fold into one slot).
	slotAdvance
)

// slot is one compiled schedule entry. preUop/pre1/pre2 carry the ROB
// and clock deltas of the pure-advance ops (NOPs, obfuscation
// preambles) that preceded this op, applied in program order before the
// op itself.
type slot struct {
	pre1       float64 // first folded clock delta (+0.0 when none)
	pre2       float64 // second folded clock delta (+0.0 when none)
	hitCost    float64 // clock advance when served from cache
	missCost   float64 // clock advance when the access reaches DRAM
	window     float64 // effective reorder window for this access kind
	preUop     int64   // folded ROB delta
	line       int32   // line index (slotAccess, slotFlush)
	kind       slotKind
	isLoad     bool
	flushAfter bool // fused flush of the same line follows the access
}

// payloadLine is one program line with its translation preresolved: the
// controller decode and the device activation target.
type payloadLine struct {
	pd  memctrl.PreDecoded
	act dram.ActRef
}

// Payload is one compiled (Program, Config) pair. It is immutable after
// Compile and, like the Program it was lowered from, reusable across
// runs; all mutable execution state lives in the Engine.
type Payload struct {
	slots []slot
	lines []payloadLine

	// distinctSlots records that no two lines share a decode-cache slot.
	// When it holds, only a line's first DRAM-reaching access of a run
	// can miss the decode cache (nothing else touches the cache during a
	// run, and distinct slots cannot evict each other), so the executor
	// checks the table once per line and counts the rest as hits without
	// the table lookup.
	distinctSlots bool

	// Per-run constants, multiplied out under the compiled Config.
	flushCost    float64 // IssueCostFlush * issueScale
	flushLatency float64
	lfenceCost   float64
	mfenceCost   float64
	cpuidCost    float64
	loadReplay   float64
	serializeNS  float64
	mlp, lfb     int
	lfSetsPF     bool // LFENCE also fences prefetches (C++ style)
}

// Slots reports the compiled schedule length (diagnostics and tests).
func (pl *Payload) Slots() int { return len(pl.slots) }

// actBufSize bounds the executor's activation buffer: large enough to
// amortize the batch call, small enough to stay cache-resident.
const actBufSize = 512

// Compile lowers a program under cfg. The result is bound to this
// engine's controller and device (line translations are preresolved
// against them) and to cfg (windows and issue costs are baked in).
func (e *Engine) Compile(p *Program, cfg Config) (*Payload, error) {
	if len(p.Lines) == 0 || len(p.Ops) == 0 {
		return nil, fmt.Errorf("cpu: cannot compile empty program")
	}
	issueScale := 1.0
	if cfg.Style == StyleAsmJit {
		issueScale = asmJitIssueFactor
	}
	wPF := e.window(e.Arch.WindowPF, cfg)
	wLD := e.window(e.Arch.WindowLD, cfg)

	pl := &Payload{
		flushCost:    e.Arch.IssueCostFlush * issueScale,
		flushLatency: e.Arch.FlushLatencyNS,
		lfenceCost:   e.Arch.LFenceNS,
		mfenceCost:   e.Arch.MFenceNS,
		cpuidCost:    e.Arch.CPUIDNS,
		loadReplay:   e.Arch.LoadReplayShare,
		serializeNS:  e.Arch.LoadSerializeNS,
		mlp:          e.Arch.LoadMLP,
		lfb:          e.Arch.LFBCount,
		lfSetsPF:     cfg.Style == StyleCPP,
	}

	pl.lines = make([]payloadLine, len(p.Lines))
	pl.distinctSlots = true
	for i, pa := range p.Lines {
		pd := e.Ctrl.Predecode(pa)
		pl.lines[i] = payloadLine{
			pd:  pd,
			act: e.Ctrl.Dev.PrepareAct(int(pd.Bank), uint64(pd.Row)),
		}
		for j := 0; j < i; j++ {
			if pl.lines[j].pd.Slot == pd.Slot {
				pl.distinctSlots = false
				break
			}
		}
	}
	// Size the schedule exactly: pure-advance ops (NOPs, iteration
	// markers) fold into their successor and emit no slot of their own,
	// except when a delta run spills (handled by append growth, rare).
	nSlots := 0
	for i := range p.Ops {
		switch p.Ops[i].Kind {
		case OpNop, OpIterStart:
		case OpFlush:
			// Usually fused into the preceding access; count separately
			// only when unfused (conservative overcount is one slot).
			nSlots++
		default:
			nSlots++
		}
	}
	pl.slots = make([]slot, 0, nSlots)

	// Pending pure-advance deltas, folded into the next slot. At most
	// two clock deltas fold into one slot; longer runs spill into
	// dedicated advance slots so every add keeps its program order.
	var preUop int64
	var pre [2]float64
	preN := 0
	flush := func() {
		if preUop != 0 || preN > 0 {
			pl.slots = append(pl.slots, slot{kind: slotAdvance, preUop: preUop, pre1: pre[0], pre2: pre[1]})
		}
		preUop, pre[0], pre[1], preN = 0, 0, 0, 0
	}
	pushDelta := func(d float64) {
		if preN == 2 {
			flush()
		}
		pre[preN] = d
		preN++
	}
	take := func(s slot) slot {
		s.preUop, s.pre1, s.pre2 = preUop, pre[0], pre[1]
		preUop, pre[0], pre[1], preN = 0, 0, 0, 0
		return s
	}

	for i := 0; i < len(p.Ops); i++ {
		op := &p.Ops[i]
		switch op.Kind {
		case OpLoad, OpPrefetch:
			isLoad := op.Kind == OpLoad
			s := slot{kind: slotAccess, line: op.Line, isLoad: isLoad}
			if isLoad {
				s.window = wLD
				s.hitCost = (e.Arch.IssueCostLD + 1.0) * issueScale
				s.missCost = e.Arch.IssueCostLD * issueScale
			} else {
				s.window = wPF
				c := (e.Arch.IssueCostPF + hintCost(op.Hint)) * issueScale
				s.hitCost = c
				s.missCost = c
			}
			if i+1 < len(p.Ops) && p.Ops[i+1].Kind == OpFlush && p.Ops[i+1].Line == op.Line {
				s.flushAfter = true
				i++
			}
			pl.slots = append(pl.slots, take(s))
		case OpFlush:
			pl.slots = append(pl.slots, take(slot{kind: slotFlush, line: op.Line}))
		case OpNop:
			r := int64(float64(op.N)*nopRobShare + 0.5)
			if r < 1 {
				r = 1
			}
			preUop += r
			pushDelta(float64(op.N) * e.Arch.NopCostNS)
		case OpLFence:
			pl.slots = append(pl.slots, take(slot{kind: slotLFence}))
		case OpMFence:
			pl.slots = append(pl.slots, take(slot{kind: slotMFence}))
		case OpCPUID:
			pl.slots = append(pl.slots, take(slot{kind: slotCPUID}))
		case OpIterStart:
			if cfg.Obfuscate {
				preUop += obfUops
				pushDelta(e.Arch.ObfuscationNS)
			}
		default:
			return nil, fmt.Errorf("cpu: cannot compile op kind %d", op.Kind)
		}
	}
	flush()
	return pl, nil
}

// PayloadBatches reports how many activation batches this engine has
// handed to the device (cumulative; the session snapshots deltas).
func (e *Engine) PayloadBatches() uint64 { return e.payloadBatches }

// RunPayload executes a compiled payload `iterations` times. Must be
// called with a payload compiled by this engine (its line translations
// are bound to this controller and device); results are bit-identical
// to Run of the source program under the compiled Config.
func (e *Engine) RunPayload(pl *Payload, iterations int) Result {
	if len(pl.slots) == 0 {
		return Result{StartTime: e.now, EndTime: e.now}
	}
	if cap(e.lines) >= len(pl.lines) {
		e.lines = e.lines[:len(pl.lines)]
	} else {
		e.lines = make([]lineState, len(pl.lines))
	}
	for i := range e.lines {
		e.lines[i] = lineState{flushEff: -1, flushUop: -1}
	}
	e.fills.reset()
	e.loads.reset()
	if cap(e.actBuf) == 0 {
		e.actBuf = make([]dram.ActEntry, 0, actBufSize)
	}

	start := e.now

	// Hot state in locals; written back in the epilogue.
	now := e.now
	uop := e.uop
	fenceLD, fencePF := false, false
	var accesses, hits, misses uint64
	var rowHits, rowEmpty, conflicts uint64
	var decodeHits uint64
	var batches uint64

	ctrl := e.Ctrl
	dev := ctrl.Dev
	hot := ctrl.Hot()
	banks := hot.Banks
	decode, auditing := hot.Decode, hot.Audit
	// With distinct slots and no audit, the decode table is touched once
	// per line per run; every later touch is a provable hit.
	onceDecode := pl.distinctSlots && !auditing
	tCL, tRCD, tRP, tRC, tBus, tCtrl := hot.T.TCL, hot.T.TRCD, hot.T.TRP, hot.T.TRC, hot.T.TBus, hot.T.TCtrl
	nextREF := ctrl.NextRefresh()
	buf := e.actBuf[:0]
	rnd := e.Rand
	lines := e.lines
	slots := pl.slots

	for it := 0; it < iterations; it++ {
		for si := range slots {
			s := &slots[si]
			uop += s.preUop
			now += s.pre1
			now += s.pre2
			switch s.kind {
			case slotAccess:
				accesses++
				uop++
				ls := &lines[s.line]
				var fenced bool
				if s.isLoad {
					fenced, fenceLD = fenceLD, false
				} else {
					fenced, fencePF = fencePF, false
				}
				served := false
				if ls.filled {
					if now < ls.fillDone || ls.flushUop < 0 || now < ls.flushEff {
						served = true
					} else {
						if !fenced && s.window > 0 {
							if rnd.Float64()*s.window > float64(uop-ls.flushUop) {
								served = true
							}
						}
						if !served && s.isLoad && pl.loadReplay > 0 && rnd.Float64() < pl.loadReplay {
							served = true
						}
					}
				}
				if served {
					hits++
					now += s.hitCost
				} else {
					misses++
					if s.isLoad {
						now = e.loads.waitForSlot(pl.mlp, now)
					} else {
						now = e.fills.waitForSlot(pl.lfb, now)
					}
					if nextREF <= now {
						if len(buf) > 0 {
							dev.ActivateBatch(buf)
							buf = buf[:0]
							batches++
						}
						ctrl.AdvanceRefresh(now)
						nextREF = ctrl.NextRefresh()
					}
					pline := &pl.lines[s.line]
					// Decode-cache hit check inlined from decodeAddr; the
					// slow path replays its miss/audit bookkeeping. Once a
					// line's slot is warm it cannot be evicted within the
					// run (distinct slots), so the table lookup drops out.
					if onceDecode && ls.decoded {
						decodeHits++
					} else if de := &decode[pline.pd.Slot]; de.OK && de.PA == pline.pd.PA && !auditing {
						decodeHits++
						ls.decoded = true
					} else {
						ctrl.DecodeTouchSlow(&pline.pd)
						ls.decoded = true
					}
					bk := &banks[pline.pd.Bank]
					row := pline.pd.Row
					st := now
					if bk.BusyUnit > st {
						st = bk.BusyUnit
					}
					var complete float64
					switch {
					case bk.OpenRow == row:
						rowHits++
						complete = st + tCL
						bk.BusyUnit = st + tBus
					case bk.OpenRow == -1:
						rowEmpty++
						actAt := st
						if tMin := bk.LastACT + tRC; actAt < tMin {
							actAt = tMin
						}
						buf = append(buf, dram.ActEntry{Ref: &pline.act, At: actAt})
						if len(buf) == actBufSize {
							dev.ActivateBatch(buf)
							buf = buf[:0]
							batches++
						}
						bk.LastACT = actAt
						bk.OpenRow = row
						complete = actAt + tRCD + tCL
						bk.BusyUnit = actAt + tRCD + tBus
					default:
						conflicts++
						preAt := st
						actAt := preAt + tRP
						if tMin := bk.LastACT + tRC; actAt < tMin {
							actAt = tMin
						}
						buf = append(buf, dram.ActEntry{Ref: &pline.act, At: actAt})
						if len(buf) == actBufSize {
							dev.ActivateBatch(buf)
							buf = buf[:0]
							batches++
						}
						bk.LastACT = actAt
						bk.OpenRow = row
						complete = actAt + tRCD + tCL
						bk.BusyUnit = actAt + tRCD + tBus
					}
					complete += tCtrl
					if s.isLoad {
						e.loads.push(complete + pl.serializeNS)
					} else {
						e.fills.push(complete)
					}
					now += s.missCost
					ls.filled = true
					ls.fillDone = complete
					ls.flushEff = -1
					ls.flushUop = -1
				}
				if s.flushAfter {
					uop++
					now += pl.flushCost
					if ls.filled {
						eff := now + pl.flushLatency
						if ls.fillDone+1 > eff {
							eff = ls.fillDone + 1
						}
						ls.flushEff = eff
						ls.flushUop = uop
					}
				}
			case slotFlush:
				uop++
				now += pl.flushCost
				ls := &lines[s.line]
				if ls.filled {
					eff := now + pl.flushLatency
					if ls.fillDone+1 > eff {
						eff = ls.fillDone + 1
					}
					ls.flushEff = eff
					ls.flushUop = uop
				}
			case slotLFence:
				uop++
				now += pl.lfenceCost
				now = e.loads.drainAll(now)
				fenceLD = true
				if pl.lfSetsPF {
					fencePF = true
				}
			case slotMFence:
				uop++
				now += pl.mfenceCost
				now = e.loads.drainAll(now)
				now = e.fills.drainAll(now)
				fenceLD = true
			case slotCPUID:
				uop++
				now += pl.cpuidCost
				now = e.loads.drainAll(now)
				now = e.fills.drainAll(now)
				fenceLD, fencePF = true, true
			case slotAdvance:
				// Deltas already applied above.
			}
		}
	}

	if len(buf) > 0 {
		dev.ActivateBatch(buf)
		buf = buf[:0]
		batches++
	}
	e.actBuf = buf

	e.now = now
	e.uop = uop
	e.fenceLD, e.fencePF = fenceLD, fencePF
	e.accesses, e.hits, e.misses = accesses, hits, misses
	e.payloadBatches += batches
	ctrl.AddAccessStats(misses, rowHits, rowEmpty, conflicts, decodeHits)

	return Result{
		TimeNS:    now - start,
		Accesses:  accesses,
		Hits:      hits,
		Misses:    misses,
		ACTs:      rowEmpty + conflicts,
		StartTime: start,
		EndTime:   now,
	}
}
