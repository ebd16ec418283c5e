// Package hammer implements ρHammer's hammering engine: it lowers a
// non-uniform pattern into a micro-op program (hammer instruction +
// CLFLUSHOPT per aggressor, with the configured barrier strategy and
// optional control-flow obfuscation), optionally interleaves it across
// multiple banks (§4.3), executes it on the speculative CPU model, and
// collects the bit flips induced in the DRAM device.
//
// The package also provides the counter-speculation tuning phase (§4.4)
// that searches for the platform's optimal NOP count.
package hammer

import (
	"fmt"
	"slices"

	"rhohammer/internal/arch"
	"rhohammer/internal/cpu"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/obs"
	"rhohammer/internal/pattern"
	"rhohammer/internal/refmodel"
	"rhohammer/internal/stats"
)

// Instr selects the hammering instruction (§4.2, Fig. 6).
type Instr uint8

const (
	// InstrLoad is the conventional MOV-based baseline.
	InstrLoad Instr = iota
	// InstrPrefetchT0 .. InstrPrefetchNTA are the four PREFETCHh
	// variants; ρHammer uses T2 or NTA.
	InstrPrefetchT0
	InstrPrefetchT1
	InstrPrefetchT2
	InstrPrefetchNTA
)

// IsPrefetch reports whether the instruction is a software prefetch.
func (i Instr) IsPrefetch() bool { return i != InstrLoad }

// Hint returns the cpu-level prefetch hint for prefetch instructions.
func (i Instr) Hint() cpu.Hint {
	switch i {
	case InstrPrefetchT0:
		return cpu.HintT0
	case InstrPrefetchT1:
		return cpu.HintT1
	case InstrPrefetchT2:
		return cpu.HintT2
	default:
		return cpu.HintNTA
	}
}

// String implements fmt.Stringer.
func (i Instr) String() string {
	switch i {
	case InstrLoad:
		return "load"
	case InstrPrefetchT0:
		return "prefetcht0"
	case InstrPrefetchT1:
		return "prefetcht1"
	case InstrPrefetchT2:
		return "prefetcht2"
	case InstrPrefetchNTA:
		return "prefetchnta"
	default:
		return fmt.Sprintf("Instr(%d)", uint8(i))
	}
}

// Barrier selects the ordering strategy compared in Table 3.
type Barrier uint8

const (
	// BarrierNone issues hammer+flush pairs with no ordering at all.
	BarrierNone Barrier = iota
	// BarrierNop inserts Config.Nops NOPs after every hammer pair —
	// ρHammer's pseudo-barrier.
	BarrierNop
	// BarrierLFence / BarrierMFence / BarrierCPUID insert the
	// respective x86 instruction after every hammer pair.
	BarrierLFence
	BarrierMFence
	BarrierCPUID
)

// String implements fmt.Stringer.
func (b Barrier) String() string {
	switch b {
	case BarrierNone:
		return "none"
	case BarrierNop:
		return "nop"
	case BarrierLFence:
		return "lfence"
	case BarrierMFence:
		return "mfence"
	case BarrierCPUID:
		return "cpuid"
	default:
		return fmt.Sprintf("Barrier(%d)", uint8(b))
	}
}

// Config is one hammering strategy: instruction choice, primitive style,
// bank-level parallelism and counter-speculation settings.
type Config struct {
	Instr     Instr
	Style     cpu.Style
	Banks     int     // number of banks hammered in parallel (>= 1)
	Barrier   Barrier // ordering strategy
	Nops      int     // NOP count for BarrierNop
	Obfuscate bool    // control-flow obfuscation (§4.4)
	// SyncRefresh aligns the hammer loop's start with the next REF
	// command (the first step of Listing 1), pinning the pattern's
	// phase relative to the TRR observation intervals.
	SyncRefresh bool
}

// Baseline returns the conventional load-based configuration
// (Blacksmith/ZenHammer-style): C++ primitive, single bank, no barrier.
func Baseline() Config {
	return Config{Instr: InstrLoad, Style: cpu.StyleCPP, Banks: 1, Barrier: BarrierNone}
}

// RhoHammer returns ρHammer's recommended configuration for the given
// architecture: prefetch-based C++ primitive with counter-speculation
// (obfuscation + tuned NOPs) and the given bank parallelism.
func RhoHammer(a *arch.Arch, banks, nops int) Config {
	return Config{
		Instr: InstrPrefetchT2, Style: cpu.StyleCPP,
		Banks: banks, Barrier: BarrierNop, Nops: nops, Obfuscate: true,
	}
}

// String renders the strategy compactly for logs and reports.
func (c Config) String() string {
	s := fmt.Sprintf("%s/%s banks=%d barrier=%s", c.Instr, c.Style, c.Banks, c.Barrier)
	if c.Barrier == BarrierNop {
		s += fmt.Sprintf("(%d)", c.Nops)
	}
	if c.Obfuscate {
		s += " +obf"
	}
	return s
}

// validate normalizes a config and reports misuse.
func (c *Config) validate(banks int) error {
	if c.Banks < 1 {
		c.Banks = 1
	}
	if c.Banks > banks {
		return fmt.Errorf("hammer: config wants %d banks but platform has %d", c.Banks, banks)
	}
	if c.Nops < 0 {
		return fmt.Errorf("hammer: negative NOP count %d", c.Nops)
	}
	return nil
}

// Session binds one attack context: an architecture profile, a DIMM, the
// platform's DRAM address mapping, the memory controller and the
// speculative CPU model. All hammering, sweeping and fuzzing operations
// run through a session.
type Session struct {
	Arch *arch.Arch
	DIMM *arch.DIMM
	Map  *mapping.Mapping
	Dev  *dram.Device
	Ctrl *memctrl.Controller
	Eng  *cpu.Engine
	Rand *stats.Rand

	// memo is the last compiled payload with the inputs it was compiled
	// from: repeated calls on the same pattern and placement — the
	// templating and benchmarking steady state — re-run it without
	// lowering or compiling again.
	memo payloadMemo

	// auditor is non-nil in simcheck mode; see EnableAudit.
	auditor *refmodel.Auditor

	// trace, when non-nil, receives pattern-level observability events;
	// see AttachTrace in obs.go. The per-pattern counters below are
	// plain fields on cold paths (never touched per access).
	trace            *obs.Trace
	patternsHammered uint64
	payloadCompiles  uint64
	payloadHits      uint64
}

// payloadMemo is one compiled payload and the inputs it was compiled
// from. The pattern's slot count and tuples are copied, not referenced,
// so a pattern edited in place after a call compiles afresh.
type payloadMemo struct {
	pl      *cpu.Payload
	perIter int // hammer accesses per pattern iteration
	slots   int
	tuples  []pattern.Tuple
	cfg     Config // normalized, SyncRefresh cleared
	bank    int
	baseRow uint64
}

// matches reports whether the memo was compiled from these inputs. The
// pattern ID only names a pattern, so it does not take part.
func (m *payloadMemo) matches(pat *pattern.Pattern, cfg Config, bank int, baseRow uint64) bool {
	if m.pl == nil || m.cfg != cfg || m.bank != bank || m.baseRow != baseRow ||
		m.slots != pat.Slots || len(m.tuples) != len(pat.Tuples) {
		return false
	}
	for i := range m.tuples {
		a, b := &m.tuples[i], &pat.Tuples[i]
		if a.Freq != b.Freq || a.Phase != b.Phase || a.Amplitude != b.Amplitude ||
			!slices.Equal(a.Offsets, b.Offsets) {
			return false
		}
	}
	return true
}

// deviceSeedSalt decorrelates the device's vulnerability map from the
// engine's reordering stream while keeping both a pure function of the
// session seed.
const deviceSeedSalt = 0x5ca1ab1e

// DeviceSeed maps a session seed to the dram.Device seed NewSession
// derives from it. Replaying a trace recorded by a session requires
// the device seed, not the session seed — internal/replay clients use
// this to name it.
func DeviceSeed(sessionSeed int64) int64 { return sessionSeed ^ deviceSeedSalt }

// NewSession creates a session for the architecture/DIMM pair. The seed
// fixes both the DIMM's vulnerability map and the engine's stochastic
// reordering.
func NewSession(a *arch.Arch, d *arch.DIMM, seed int64) (*Session, error) {
	family := a.MappingFamily
	if d.DDR5 {
		// DDR5 systems use the extended mapping with the sub-channel
		// function (§6).
		family += "-ddr5"
	}
	m, ok := mapping.ForPlatform(family, d.SizeGiB)
	if !ok {
		return nil, fmt.Errorf("hammer: no mapping for family %q at %d GiB", family, d.SizeGiB)
	}
	r := stats.NewRand(seed)
	dev := dram.NewDevice(d, DeviceSeed(seed))
	ctrl := memctrl.New(a, m, dev)
	s := &Session{
		Arch: a, DIMM: d, Map: m, Dev: dev, Ctrl: ctrl,
		Eng:  cpu.NewEngine(a, ctrl, r),
		Rand: r,
	}
	if simcheckFromEnv() {
		s.EnableAudit()
	}
	if t := obs.SessionTrace(seed); t != nil {
		s.AttachTrace(t)
	}
	return s, nil
}

// check is the validation prologue of every hammer call; it normalizes
// cfg in place.
func (s *Session) check(pat *pattern.Pattern, cfg *Config, baseRow uint64) error {
	if err := pat.Validate(); err != nil {
		return err
	}
	if err := cfg.validate(s.Map.Banks()); err != nil {
		return err
	}
	maxOff := uint64(pat.MaxOffset())
	if baseRow+maxOff+2 >= s.Map.Rows() {
		return fmt.Errorf("hammer: base row %d + offset %d exceeds %d rows", baseRow, maxOff, s.Map.Rows())
	}
	return nil
}

// payload validates a hammer call and returns its compiled payload with
// the hammer accesses per pattern iteration. It reuses the memo when
// the pattern contents, the config (SyncRefresh aside: it moves the
// start, not the schedule), the bank and the base row all match;
// otherwise it lowers and compiles afresh and memoizes the result.
func (s *Session) payload(pat *pattern.Pattern, cfg *Config, bank int, baseRow uint64) (*cpu.Payload, int, error) {
	if err := s.check(pat, cfg, baseRow); err != nil {
		return nil, 0, err
	}
	key := *cfg
	key.SyncRefresh = false
	if s.memo.matches(pat, key, bank, baseRow) {
		s.payloadHits++
		if obs.Enabled() {
			obs.HammerPayloadHits.Inc()
			obs.HammerProgHits.Inc()
		}
		return s.memo.pl, s.memo.perIter, nil
	}
	prog, err := s.build(pat, *cfg, bank, baseRow)
	if err != nil {
		return nil, 0, err
	}
	pl, err := s.Eng.Compile(prog, cpu.Config{Style: cfg.Style, Obfuscate: cfg.Obfuscate})
	if err != nil {
		return nil, 0, err
	}
	s.payloadCompiles++
	if obs.Enabled() {
		obs.HammerPayloadCompiles.Inc()
		obs.HammerProgBuilds.Inc()
	}
	tuples := make([]pattern.Tuple, len(pat.Tuples))
	for i, t := range pat.Tuples {
		t.Offsets = slices.Clone(t.Offsets)
		tuples[i] = t
	}
	s.memo = payloadMemo{
		pl: pl, perIter: prog.Accesses(), slots: pat.Slots, tuples: tuples,
		cfg: key, bank: bank, baseRow: baseRow,
	}
	return pl, s.memo.perIter, nil
}

// EnablePTRR turns on the platform pTRR mitigation (§6).
func (s *Session) EnablePTRR(on bool) { s.Dev.PTRR = on }

// Result is the outcome of hammering one pattern at one location.
type Result struct {
	cpu.Result
	Flips []dram.Flip
}

// FlipCount returns the number of observed bit flips.
func (r Result) FlipCount() int { return len(r.Flips) }

// ActivationsPerSecond returns the achieved DRAM activation rate.
func (r Result) ActivationsPerSecond() float64 {
	if r.TimeNS <= 0 {
		return 0
	}
	return float64(r.ACTs) / (r.TimeNS * 1e-9)
}

// add accumulates one step's cpu result; the first step fixes the start
// time.
func (r *Result) add(res cpu.Result, first bool) {
	r.TimeNS += res.TimeNS
	r.Accesses += res.Accesses
	r.Hits += res.Hits
	r.Misses += res.Misses
	r.ACTs += res.ACTs
	if first {
		r.StartTime = res.StartTime
	}
	r.EndTime = res.EndTime
}

// HammerPattern executes pat for approximately `activations` hammer
// accesses at the given base row and bank under cfg, and returns timing,
// ordering and flip results. For multi-bank configs the pattern is
// interleaved across cfg.Banks banks starting at `bank`.
func (s *Session) HammerPattern(pat *pattern.Pattern, cfg Config, bank int, baseRow uint64, activations int) (Result, error) {
	pl, perIter, err := s.payload(pat, &cfg, bank, baseRow)
	if err != nil {
		return Result{}, err
	}
	step := func(iters int) cpu.Result { return s.Eng.RunPayload(pl, iters) }
	return s.run(cfg, perIter, max(activations/perIter, 1), 0, step), nil
}

// HammerPatternFor hammers like HammerPattern but with a simulated-time
// budget instead of an access count: the pattern repeats until at least
// durationNS of simulated time has elapsed. Fixed-time budgets make
// strategy comparisons fair — a faster primitive simply lands more
// hammer attempts, exactly as in the paper's wall-clock-bounded
// campaigns — and guarantee every run spans multiple refresh windows.
func (s *Session) HammerPatternFor(pat *pattern.Pattern, cfg Config, bank int, baseRow uint64, durationNS float64) (Result, error) {
	pl, perIter, err := s.payload(pat, &cfg, bank, baseRow)
	if err != nil {
		return Result{}, err
	}
	step := func(iters int) cpu.Result { return s.Eng.RunPayload(pl, iters) }
	return s.run(cfg, perIter, 0, durationNS, step), nil
}

// run is the execution loop behind every hammer call: step executes a
// number of pattern iterations (HammerPattern and HammerPatternFor pass
// the compiled payload's executor). With iters > 0, run takes exactly
// one step of that many iterations. Otherwise it steps in chunks until
// durationNS of simulated time has elapsed, re-estimating the remaining
// iteration count from the measured pace; a few passes converge for any
// configuration.
func (s *Session) run(cfg Config, perIter, iters int, durationNS float64, step func(iters int) cpu.Result) Result {
	flipsBefore := len(s.Dev.Flips())
	devBefore, ctrlBefore, pbBefore := s.Dev.Counters(), s.Ctrl.Stats(), s.Eng.PayloadBatches()
	if cfg.SyncRefresh {
		s.Eng.SyncToRefresh()
	}
	var out Result
	if iters > 0 {
		out.add(step(iters), true)
	} else {
		chunkIters := 200_000/perIter + 1
		deadline := s.Eng.Now() + durationNS
		for first := true; s.Eng.Now() < deadline; first = false {
			if out.TimeNS > 0 && out.Accesses > 0 {
				pace := out.TimeNS / float64(out.Accesses) // ns per access
				chunkIters = int((deadline-s.Eng.Now())/pace)/perIter + 1
			}
			out.add(step(chunkIters), first)
		}
	}
	out.Flips = append(out.Flips, s.Dev.Flips()[flipsBefore:]...)
	s.noteHammer(devBefore, ctrlBefore, pbBefore, &out)
	return out
}

// build lowers a pattern into a cpu.Program under cfg.
func (s *Session) build(pat *pattern.Pattern, cfg Config, firstBank int, baseRow uint64) (*cpu.Program, error) {
	seq := pat.Render()
	if len(seq) == 0 {
		return nil, fmt.Errorf("hammer: pattern %d rendered empty", pat.ID)
	}

	// Line table: one cache line per (bank, row offset).
	type key struct {
		bank int
		off  int
	}
	lineOf := map[key]int32{}
	var prog cpu.Program
	addLine := func(bank, off int) (int32, error) {
		k := key{bank, off}
		if id, ok := lineOf[k]; ok {
			return id, nil
		}
		pa, err := s.Map.PhysAddr(bank, baseRow+uint64(off), 0)
		if err != nil {
			return 0, err
		}
		id := int32(len(prog.Lines))
		prog.Lines = append(prog.Lines, pa)
		lineOf[k] = id
		return id, nil
	}

	accessKind := cpu.OpLoad
	if cfg.Instr.IsPrefetch() {
		accessKind = cpu.OpPrefetch
	}
	hint := cfg.Instr.Hint()

	prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpIterStart})
	banks := cfg.Banks
	for _, off := range seq {
		// Multi-bank: the same pattern slot is replicated across the
		// parallel banks back-to-back (SledgeHammer interleaving).
		for b := 0; b < banks; b++ {
			bank := (firstBank + b) % s.Map.Banks()
			line, err := addLine(bank, off)
			if err != nil {
				return nil, err
			}
			prog.Ops = append(prog.Ops, cpu.Op{Kind: accessKind, Line: line, Hint: hint})
			prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpFlush, Line: line})
			switch cfg.Barrier {
			case BarrierNop:
				if cfg.Nops > 0 {
					prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpNop, N: int32(cfg.Nops)})
				}
			case BarrierLFence:
				prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpLFence})
			case BarrierMFence:
				prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpMFence})
			case BarrierCPUID:
				prog.Ops = append(prog.Ops, cpu.Op{Kind: cpu.OpCPUID})
			}
		}
	}
	return &prog, nil
}

// ResetDevice clears accumulated DRAM state (disturbance and recorded
// flips) — the equivalent of re-initializing victim memory between
// trials.
func (s *Session) ResetDevice() { s.Dev.Reset() }
