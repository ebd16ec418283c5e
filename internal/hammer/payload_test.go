package hammer

import (
	"fmt"
	"slices"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/cpu"
	"rhohammer/internal/obs"
	"rhohammer/internal/pattern"
	"rhohammer/internal/stats"
)

// hammerReference runs a hammer call on the interpreted reference
// engine: the same validation prologue and run loop as HammerPattern
// (durationNS <= 0) or HammerPatternFor, stepping cpu.Engine.Run over
// the lowered program instead of a compiled payload.
func hammerReference(s *Session, pat *pattern.Pattern, cfg Config, bank int, baseRow uint64, activations int, durationNS float64) (Result, error) {
	if err := s.check(pat, &cfg, baseRow); err != nil {
		return Result{}, err
	}
	prog, err := s.build(pat, cfg, bank, baseRow)
	if err != nil {
		return Result{}, err
	}
	perIter, iters := prog.Accesses(), 0
	if durationNS <= 0 {
		iters = max(activations/perIter, 1)
	}
	step := func(n int) cpu.Result {
		return s.Eng.Run(prog, n, cpu.Config{Style: cfg.Style, Obfuscate: cfg.Obfuscate})
	}
	return s.run(cfg, perIter, iters, durationNS, step), nil
}

// hammerOn runs one hammer call on the compiled path, or on the
// reference engine when reference is set.
func hammerOn(s *Session, reference bool, pat *pattern.Pattern, cfg Config, bank int, baseRow uint64, activations int, durationNS float64) (Result, error) {
	switch {
	case reference:
		return hammerReference(s, pat, cfg, bank, baseRow, activations, durationNS)
	case durationNS > 0:
		return s.HammerPatternFor(pat, cfg, bank, baseRow, durationNS)
	default:
		return s.HammerPattern(pat, cfg, bank, baseRow, activations)
	}
}

// resultFingerprint serializes every observable of a session after a
// hammer run: the cpu-level result, the full device and controller
// counter snapshots, and each individual flip.
func resultFingerprint(s *Session, res Result) string {
	c := s.Counters()
	fp := fmt.Sprintf("time=%.9f end=%.9f acc=%d hit=%d miss=%d acts=%d"+
		"|dram acts=%d refs=%d trr=%d rfm=%d swap=%d flips=%d"+
		"|ctrl acc=%d rh=%d re=%d cf=%d ref=%d dh=%d dm=%d|",
		res.TimeNS, res.EndTime, res.Accesses, res.Hits, res.Misses, res.ACTs,
		c.Dram.ACTs, c.Dram.REFs, c.Dram.TRRTriggers, c.Dram.RFMEvents,
		c.Dram.RowSwapRelocations, c.Dram.Flips,
		c.Ctrl.Accesses, c.Ctrl.RowHits, c.Ctrl.RowEmpty, c.Ctrl.Conflicts,
		c.Ctrl.Refreshes, c.Ctrl.DecodeHits, c.Ctrl.DecodeMisses)
	for _, f := range res.Flips {
		fp += fmt.Sprintf("f%d:%d:%d:%d:%v:%.9f|", f.Bank, f.Row, f.ByteInRow, f.Bit, f.OneToZero, f.Time)
	}
	return fp
}

// rngFingerprint records the position of the session RNG stream via one
// probe draw. Two runs with equal result and RNG fingerprints executed
// the same simulation, consumed the same random numbers, and left the
// machine in the same state.
func rngFingerprint(s *Session) string { return fmt.Sprintf("rng=%.17g", s.Rand.Float64()) }

// payloadScenario is one compiled-vs-interpreted comparison case.
type payloadScenario struct {
	name    string
	arch    func() *arch.Arch
	dimm    func() *arch.DIMM
	cfg     Config
	setup   func(s *Session) // extra session configuration (mitigations, audit, ...)
	pattern func() *pattern.Pattern
	bank    int
	baseRow uint64
	// One of the two drives the run: activations via HammerPattern,
	// durationNS via HammerPatternFor.
	activations int
	durationNS  float64
	// deviceTrace, when > 0, attaches an obs.Trace of that capacity to
	// the device; the run must fit it without dropping an event.
	deviceTrace int
}

// scenarioRun is what one engine observed for a scenario.
type scenarioRun struct {
	fingerprint string
	compiles    uint64      // payload compiles (0 on the reference engine)
	events      []obs.Event // the device's event trace, if attached
}

// runScenario executes the scenario on a fresh session, on the compiled
// path or on the reference engine.
func runScenario(t *testing.T, sc payloadScenario, reference bool) scenarioRun {
	t.Helper()
	s, err := NewSession(sc.arch(), sc.dimm(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if sc.setup != nil {
		sc.setup(s)
	}
	var dev *obs.Trace
	if sc.deviceTrace > 0 {
		dev = obs.NewTrace(sc.deviceTrace)
		s.Dev.SetTrace(dev)
	}
	res, err := hammerOn(s, reference, sc.pattern(), sc.cfg, sc.bank, sc.baseRow, sc.activations, sc.durationNS)
	if err != nil {
		t.Fatal(err)
	}
	if d := dev.Dropped(); d > 0 {
		t.Fatalf("device trace dropped %d of %d events", d, uint64(dev.Len())+d)
	}
	return scenarioRun{
		fingerprint: resultFingerprint(s, res) + rngFingerprint(s),
		compiles:    s.Counters().PayloadCompiles,
		events:      dev.Events(),
	}
}

// compareRuns fails the test when the compiled run diverged from the
// reference run in any observable, the device event trace included.
func compareRuns(t *testing.T, compiled, reference scenarioRun) {
	t.Helper()
	if compiled.fingerprint != reference.fingerprint {
		t.Errorf("compiled path diverged from interpreted:\ncompiled:    %s\ninterpreted: %s",
			compiled.fingerprint, reference.fingerprint)
	}
	if !slices.Equal(compiled.events, reference.events) {
		i := firstDiff(compiled.events, reference.events)
		t.Errorf("device traces differ: compiled emitted %d events, interpreted %d (first difference at %d: %+v vs %+v)",
			len(compiled.events), len(reference.events), i, at(compiled.events, i), at(reference.events, i))
	}
}

// at returns events[i], or the zero Event past the end.
func at(events []obs.Event, i int) obs.Event {
	if i < len(events) {
		return events[i]
	}
	return obs.Event{}
}

// firstDiff returns the index of the first differing event.
func firstDiff(a, b []obs.Event) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// payloadScenarios spans the configuration surface the compiled
// executor must reproduce bit-exactly: both instruction kinds, every
// barrier, both primitive styles, multi-bank interleave, obfuscation,
// refresh-synchronized starts, and all four mitigations (TRR is always
// on; pTRR, DDR5 RFM, row swap, plus the simcheck shadow auditor).
func payloadScenarios() []payloadScenario {
	base := func() payloadScenario {
		return payloadScenario{
			arch:       arch.RaptorLake,
			dimm:       arch.DIMMS3,
			cfg:        Config{Instr: InstrPrefetchT0, Barrier: BarrierNop, Nops: 240, Banks: 1},
			pattern:    pattern.KnownGood,
			baseRow:    4096,
			durationNS: 8e6,
		}
	}
	var scs []payloadScenario
	add := func(name string, mut func(*payloadScenario)) {
		sc := base()
		sc.name = name
		mut(&sc)
		scs = append(scs, sc)
	}

	add("prefetch-nop-cpp", func(sc *payloadScenario) {})
	add("prefetch-asmjit", func(sc *payloadScenario) { sc.cfg.Style = cpu.StyleAsmJit })
	add("load-none", func(sc *payloadScenario) {
		sc.cfg = Config{Instr: InstrLoad, Barrier: BarrierNone, Banks: 1}
	})
	add("load-lfence-cpp", func(sc *payloadScenario) {
		sc.cfg = Config{Instr: InstrLoad, Barrier: BarrierLFence, Banks: 1}
	})
	add("prefetch-lfence-asmjit", func(sc *payloadScenario) {
		sc.cfg = Config{Instr: InstrPrefetchT1, Barrier: BarrierLFence, Banks: 1, Style: cpu.StyleAsmJit}
	})
	add("load-mfence", func(sc *payloadScenario) {
		sc.cfg = Config{Instr: InstrLoad, Barrier: BarrierMFence, Banks: 1}
	})
	add("prefetch-cpuid", func(sc *payloadScenario) {
		sc.cfg = Config{Instr: InstrPrefetchNTA, Barrier: BarrierCPUID, Banks: 1}
	})
	add("multibank", func(sc *payloadScenario) { sc.cfg.Banks = 3; sc.bank = 5 })
	add("obfuscate", func(sc *payloadScenario) { sc.cfg.Obfuscate = true })
	add("sync-refresh", func(sc *payloadScenario) { sc.cfg.SyncRefresh = true })
	add("activation-budget", func(sc *payloadScenario) {
		sc.durationNS = 0
		sc.activations = 60000
	})
	add("comet-lake", func(sc *payloadScenario) { sc.arch = arch.CometLake; sc.dimm = arch.DIMMS1 })
	add("ptrr", func(sc *payloadScenario) { sc.setup = func(s *Session) { s.EnablePTRR(true) } })
	add("ddr5-rfm", func(sc *payloadScenario) { sc.arch = arch.AlderLake; sc.dimm = arch.DIMMD1 })
	add("row-swap", func(sc *payloadScenario) {
		sc.setup = func(s *Session) { s.Dev.EnableRowSwap(5000) }
	})
	add("simcheck-shadow", func(sc *payloadScenario) {
		sc.setup = func(s *Session) { s.EnableAudit() }
		sc.durationNS = 4e6 // the shadow replay doubles the cost
	})
	// The device trace carries every ACT's issue time, which no other
	// scenario observes unless a flip lands: on the base config, and
	// with row swap and pTRR putting the hooked per-ACT path under it.
	add("trace-armed", func(sc *payloadScenario) {
		sc.deviceTrace = 1 << 18 // ~168k events
	})
	add("device-trace-rowswap-ptrr", func(sc *payloadScenario) {
		sc.setup = func(s *Session) {
			s.Dev.EnableRowSwap(5000)
			s.EnablePTRR(true)
		}
		sc.durationNS = 0
		sc.activations = 60000 // ~54k events
		sc.deviceTrace = 1 << 16
	})
	return scs
}

// TestPayloadDifferential is the bit-identity contract of the compiled
// executor: for every scenario, a session running compiled payloads and
// a session on the interpreted reference engine must agree on every
// observable — results, flips, device and controller counters, the RNG
// stream position and, when attached, the device's event trace.
func TestPayloadDifferential(t *testing.T) {
	for _, sc := range payloadScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			if testing.Short() && sc.durationNS > 4e6 {
				sc.durationNS = 4e6
			}
			compiled := runScenario(t, sc, false)
			compareRuns(t, compiled, runScenario(t, sc, true))
			if compiled.compiles == 0 {
				t.Error("scenario never exercised the compiled path (0 payload compiles)")
			}
			if sc.deviceTrace > 0 && len(compiled.events) == 0 {
				t.Error("device trace recorded no events")
			}
		})
	}
}

// TestPayloadDifferentialMultiCall extends the contract from one call
// to a session's lifetime. A Fuzz-shaped sequence — fresh patterns, each
// hammered at several locations with ResetDevice between, the last
// location then repeated under SyncRefresh (a memo hit on the compiled
// path) — must leave both engines in the same state after every call,
// under each mitigation set-up.
func TestPayloadDifferentialMultiCall(t *testing.T) {
	setups := []struct {
		name  string
		arch  func() *arch.Arch
		dimm  func() *arch.DIMM
		setup func(*Session)
	}{
		{"trr", arch.RaptorLake, arch.DIMMS3, nil},
		{"ptrr", arch.RaptorLake, arch.DIMMS3, func(s *Session) { s.EnablePTRR(true) }},
		{"ddr5-rfm", arch.AlderLake, arch.DIMMD1, nil},
		{"row-swap", arch.RaptorLake, arch.DIMMS3, func(s *Session) { s.Dev.EnableRowSwap(5000) }},
	}
	patterns, locations := 3, 2
	if testing.Short() {
		patterns = 2
	}
	for _, su := range setups {
		t.Run(su.name, func(t *testing.T) {
			sequence := func(reference bool) ([]string, SessionCounters) {
				s, err := NewSession(su.arch(), su.dimm(), 5)
				if err != nil {
					t.Fatal(err)
				}
				if su.setup != nil {
					su.setup(s)
				}
				cfg := Recommended(s.Arch)
				fz := pattern.NewFuzzer(pattern.FuzzParams{}, s.Rand)
				rows := s.Map.Rows()
				var fps []string
				for i := 0; i < patterns; i++ {
					pat := fz.Next()
					span := uint64(pat.MaxOffset() + 8)
					for loc := 0; loc <= locations; loc++ {
						c, l := cfg, loc
						if loc == locations {
							c.SyncRefresh, l = true, loc-1
						}
						s.ResetDevice()
						baseRow := (uint64(i*locations+l)*10007*span + 128) % (rows - span - 4)
						res, err := hammerOn(s, reference, pat, c, (i+l)%s.Map.Banks(), baseRow, 0, 3e6)
						if err != nil {
							t.Fatal(err)
						}
						fps = append(fps, resultFingerprint(s, res))
					}
				}
				return append(fps, rngFingerprint(s)), s.Counters()
			}
			compiled, counters := sequence(false)
			reference, _ := sequence(true)
			for i := range compiled {
				if compiled[i] != reference[i] {
					t.Fatalf("call %d diverged:\ncompiled:    %s\ninterpreted: %s", i, compiled[i], reference[i])
				}
			}
			if want := uint64(patterns * locations); counters.PayloadCompiles != want || counters.PayloadCacheHits != uint64(patterns) {
				t.Errorf("compiled %d payloads with %d memo hits, want %d and %d",
					counters.PayloadCompiles, counters.PayloadCacheHits, want, patterns)
			}
		})
	}
}

// TestPayloadMemoReuse pins the memo's reuse rule: a call re-runs the
// last compiled payload exactly when the pattern contents, the config
// (SyncRefresh aside), the bank and the base row all match.
func TestPayloadMemoReuse(t *testing.T) {
	s, err := NewSession(arch.RaptorLake(), arch.DIMMS3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Recommended(s.Arch)
	synced, moreNops := cfg, cfg
	synced.SyncRefresh = true
	moreNops.Nops++
	pat := pattern.KnownGood()
	for _, c := range []struct {
		name    string
		edit    func()
		pat     *pattern.Pattern
		cfg     Config
		bank    int
		baseRow uint64
		compile bool
	}{
		{name: "first call", pat: pat, cfg: cfg, baseRow: 4096, compile: true},
		{name: "same pattern", pat: pat, cfg: cfg, baseRow: 4096},
		{name: "fresh copy", pat: pattern.KnownGood(), cfg: cfg, baseRow: 4096},
		{name: "sync refresh", pat: pat, cfg: synced, baseRow: 4096},
		{name: "offset edited in place", edit: func() { pat.Tuples[0].Offsets[0]++ }, pat: pat, cfg: cfg, baseRow: 4096, compile: true},
		{name: "other base row", pat: pat, cfg: cfg, baseRow: 4200, compile: true},
		{name: "other bank", pat: pat, cfg: cfg, bank: 1, baseRow: 4200, compile: true},
		{name: "other config", pat: pat, cfg: moreNops, bank: 1, baseRow: 4200, compile: true},
	} {
		if c.edit != nil {
			c.edit()
		}
		before := s.Counters().PayloadCompiles
		if _, err := s.HammerPattern(c.pat, c.cfg, c.bank, c.baseRow, 1000); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if compiled := s.Counters().PayloadCompiles > before; compiled != c.compile {
			t.Errorf("%s: compiled = %v, want %v", c.name, compiled, c.compile)
		}
	}
}

// TestPatternEditedInPlace is the regression test for a memo keyed by
// pattern pointer: a pattern trimmed in place after a call must be
// hammered as trimmed, exactly as a session that hammered fresh copies
// of the same two patterns in the same order.
func TestPatternEditedInPlace(t *testing.T) {
	cfg := Recommended(arch.RaptorLake())
	hammerBoth := func(first, second func() *pattern.Pattern) string {
		s, err := NewSession(arch.RaptorLake(), arch.DIMMS3(), 3)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		for _, pat := range []func() *pattern.Pattern{first, second} {
			s.ResetDevice()
			if res, err = s.HammerPatternFor(pat(), cfg, 0, 4096, 20e6); err != nil {
				t.Fatal(err)
			}
		}
		return resultFingerprint(s, res)
	}
	trimmed := func(p *pattern.Pattern) *pattern.Pattern {
		p.Tuples = p.Tuples[:2]
		return p
	}

	pat := pattern.KnownGood()
	got := hammerBoth(func() *pattern.Pattern { return pat }, func() *pattern.Pattern { return trimmed(pat) })
	want := hammerBoth(pattern.KnownGood, func() *pattern.Pattern { return trimmed(pattern.KnownGood()) })
	if got != want {
		t.Errorf("pattern edited in place ran a stale program:\nedited in place: %s\nfresh copies:    %s", got, want)
	}
}

// TestPayloadDifferentialRandomTraces drives both engines over fuzzer-
// generated patterns — irregular slot sequences, decoy tuples, varying
// amplitudes — at pseudorandom banks and rows.
func TestPayloadDifferentialRandomTraces(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		fz := pattern.NewFuzzer(pattern.FuzzParams{}, stats.NewRand(seed))
		pat := fz.Next()
		sc := payloadScenario{
			name:       fmt.Sprintf("seed%d", seed),
			arch:       arch.RaptorLake,
			dimm:       arch.DIMMS3,
			cfg:        Config{Instr: InstrPrefetchT0, Barrier: BarrierNop, Nops: 120 + int(seed)*17, Banks: 1 + int(seed)%2},
			pattern:    func() *pattern.Pattern { return pat },
			bank:       int(seed) % 8,
			baseRow:    3000 + uint64(seed)*977,
			durationNS: 5e6,
		}
		t.Run(sc.name, func(t *testing.T) {
			compareRuns(t, runScenario(t, sc, false), runScenario(t, sc, true))
		})
	}
}

// fuzzTraceCap sizes FuzzPayloadDifferential's device trace. A timed
// run's first step is about 200k hammer accesses whatever its duration
// (Session.run), so a traced input emits up to ~200k act events plus
// its REFs and their TRR events: at most 263k over the seeds and 190
// sampled inputs, the slowest barriers and four banks included. The
// ring holds twice that.
const fuzzTraceCap = 1 << 19

// FuzzPayloadDifferential is the native fuzz target for the same
// contract: arbitrary (seed, config, placement) tuples must never
// produce a compiled/interpreted divergence. Bit 0x40 of banks
// attaches a device trace, whose event streams must match too.
func FuzzPayloadDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), uint16(4096))
	f.Add(int64(42), uint8(3), uint8(4), uint8(2), uint16(900))
	f.Add(int64(7), uint8(17), uint8(255), uint8(0), uint16(60000))
	f.Add(int64(9), uint8(0x41), uint8(1), uint8(0x41), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, cfgBits, barrierStyle, banks uint8, rowSel uint16) {
		archs := arch.All()
		a := archs[int(cfgBits)%len(archs)]
		dimm := arch.DIMMS3
		if cfgBits&0x20 != 0 {
			a = arch.AlderLake()
			dimm = arch.DIMMD1 // DDR5: RFM + extended mapping
		}
		instrs := []Instr{InstrLoad, InstrPrefetchT0, InstrPrefetchT1, InstrPrefetchT2, InstrPrefetchNTA}
		barriers := []Barrier{BarrierNone, BarrierNop, BarrierLFence, BarrierMFence, BarrierCPUID}
		cfg := Config{
			Instr:     instrs[int(cfgBits)%len(instrs)],
			Barrier:   barriers[int(barrierStyle)%len(barriers)],
			Nops:      int(barrierStyle)%512 + 1,
			Banks:     int(banks)%4 + 1,
			Obfuscate: cfgBits&0x40 != 0,
		}
		if barrierStyle&0x80 != 0 {
			cfg.Style = cpu.StyleAsmJit
		}
		fz := pattern.NewFuzzer(pattern.FuzzParams{}, stats.NewRand(seed))
		pat := fz.Next()
		sc := payloadScenario{
			arch:       func() *arch.Arch { return a },
			dimm:       dimm,
			cfg:        cfg,
			pattern:    func() *pattern.Pattern { return pat },
			bank:       int(cfgBits) % 8,
			baseRow:    2048 + uint64(rowSel)%61440, // below 1<<16 rows with the fuzzer's largest offset
			durationNS: 1.5e6,
		}
		rowSwap, traced := cfgBits&0x80 != 0, banks&0x40 != 0
		if rowSwap {
			sc.setup = func(s *Session) { s.Dev.EnableRowSwap(uint64(rowSel)%8000 + 100) }
		}
		if traced {
			sc.deviceTrace = fuzzTraceCap
		}
		compareRuns(t, runScenario(t, sc, false), runScenario(t, sc, true))
		if t.Failed() {
			t.Logf("seed=%d cfg=%+v row-swap=%v traced=%v", seed, cfg, rowSwap, traced)
		}
	})
}

// TestPayloadSteadyStateAllocs pins the executor's zero-allocation
// contract: once the engine, payload and device are warm, RunPayload
// must not allocate (the activation buffer, line scratch and FIFOs are
// all reused across runs).
func TestPayloadSteadyStateAllocs(t *testing.T) {
	s, err := NewSession(arch.RaptorLake(), arch.DIMMS3(), 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Instr: InstrPrefetchT0, Barrier: BarrierNop, Nops: 240, Banks: 1}
	pl, _, err := s.payload(pattern.KnownGood(), &cfg, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every lazily grown structure: line scratch, activation
	// buffer, materialized row states.
	for i := 0; i < 3; i++ {
		s.Eng.RunPayload(pl, 2000)
	}
	if n := testing.AllocsPerRun(20, func() {
		s.Eng.RunPayload(pl, 200)
	}); n > 0 {
		t.Errorf("RunPayload allocates %.1f objects per run in steady state, want 0", n)
	}
}

// BenchmarkFreshPatternCell times the per-pattern unit of a fuzzing
// cell (Session.Fuzz): a fresh pattern is drawn, lowered, compiled and
// run for 50 ms of simulated time on a reset device. Every iteration
// draws the next pattern, so the payload memo misses as it does in
// table6 and fig9. Drawing, lowering and compiling allocate for each
// pattern; the run itself does not (TestPayloadSteadyStateAllocs).
func BenchmarkFreshPatternCell(b *testing.B) {
	s, err := NewSession(arch.CometLake(), arch.DIMMS1(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := RecommendedSingleBank(s.Arch)
	fz := pattern.NewFuzzer(pattern.FuzzParams{}, stats.NewRand(7))
	b.ReportAllocs()
	b.ResetTimer()
	var acts uint64
	for i := 0; i < b.N; i++ {
		s.ResetDevice()
		res, err := s.HammerPatternFor(fz.Next(), cfg, i%s.Map.Banks(), 4096, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		acts += res.ACTs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acts), "ns/ACT")
}
