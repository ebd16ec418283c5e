package cpu

import (
	"math"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/stats"
)

// testEngine builds an engine over a Comet Lake platform with n distinct
// cache lines, each in the same bank but a different row.
func testEngine(t *testing.T, a *arch.Arch, lines int) (*Engine, *Program) {
	t.Helper()
	d := arch.DIMMS3()
	m, _ := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	ctrl := memctrl.New(a, m, dram.NewDevice(d, 1))
	e := NewEngine(a, ctrl, stats.NewRand(1))
	p := &Program{}
	for i := 0; i < lines; i++ {
		pa, err := m.PhysAddr(0, uint64(1000+4*i), 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Lines = append(p.Lines, pa)
	}
	return e, p
}

// hammerBody appends one access+flush pair per line, with optional NOPs.
func hammerBody(p *Program, kind OpKind, nops int32) {
	p.Ops = append(p.Ops, Op{Kind: OpIterStart})
	for i := range p.Lines {
		p.Ops = append(p.Ops, Op{Kind: kind, Line: int32(i), Hint: HintT2})
		p.Ops = append(p.Ops, Op{Kind: OpFlush, Line: int32(i)})
		if nops > 0 {
			p.Ops = append(p.Ops, Op{Kind: OpNop, N: nops})
		}
	}
}

func TestInOrderLoadsAllMiss(t *testing.T) {
	e, p := testEngine(t, arch.CometLake(), 12)
	hammerBody(p, OpLoad, 0)
	res := e.Run(p, 500, Config{Style: StyleCPP})
	if res.MissRate() < 0.99 {
		t.Errorf("in-order widely spaced loads miss rate = %.3f, want ~1", res.MissRate())
	}
	if res.ACTs == 0 {
		t.Error("no activations issued")
	}
}

func TestPrefetchFasterThanLoad(t *testing.T) {
	e, p := testEngine(t, arch.CometLake(), 12)
	hammerBody(p, OpLoad, 0)
	loadRes := e.Run(p, 2000, Config{Style: StyleCPP})

	e2, p2 := testEngine(t, arch.CometLake(), 12)
	hammerBody(p2, OpPrefetch, 200) // paced just above the bank cycle
	pfRes := e2.Run(p2, 2000, Config{Style: StyleCPP})

	loadRate := float64(loadRes.ACTs) / loadRes.TimeNS
	pfRate := float64(pfRes.ACTs) / pfRes.TimeNS
	if pfRate < loadRate*1.5 {
		t.Errorf("prefetch activation rate %.3f should be >=1.5x load rate %.3f (§4.5)",
			pfRate*1e3, loadRate*1e3)
	}
}

// The Fig. 7 mechanism: on a deep-speculation core, unordered prefetches
// race their flushes and are dropped; NOP pseudo-barriers restore them.
func TestSpeculativeDropsAndNopRecovery(t *testing.T) {
	raptor := arch.RaptorLake()

	e, p := testEngine(t, raptor, 12)
	hammerBody(p, OpPrefetch, 0)
	unordered := e.Run(p, 500, Config{Style: StyleCPP, Obfuscate: true})

	e2, p2 := testEngine(t, raptor, 12)
	hammerBody(p2, OpPrefetch, 300)
	ordered := e2.Run(p2, 500, Config{Style: StyleCPP, Obfuscate: true})

	if unordered.MissRate() > 0.6 {
		t.Errorf("unordered prefetch miss rate %.2f, expected heavy drops", unordered.MissRate())
	}
	if ordered.MissRate() < 0.95 {
		t.Errorf("NOP-barriered prefetch miss rate %.2f, expected ~1", ordered.MissRate())
	}
}

// Drops must be much rarer on Comet Lake than Raptor Lake for identical
// programs — the reorder-window ladder.
func TestDisorderGrowsWithGeneration(t *testing.T) {
	rates := map[string]float64{}
	for _, a := range arch.All() {
		e, p := testEngine(t, a, 12)
		hammerBody(p, OpPrefetch, 0)
		res := e.Run(p, 500, Config{Style: StyleCPP})
		rates[a.Name] = res.MissRate()
	}
	if rates["Comet Lake"] <= rates["Raptor Lake"] {
		t.Errorf("miss rates: comet %.2f should exceed raptor %.2f",
			rates["Comet Lake"], rates["Raptor Lake"])
	}
}

// AsmJit's immediate addressing removes the dependency chain: more
// reordering, fewer misses, faster run (§4.2).
func TestAsmJitMoreDisorderedThanCPP(t *testing.T) {
	a := arch.CometLake()
	e, p := testEngine(t, a, 6)
	hammerBody(p, OpPrefetch, 0)
	cpp := e.Run(p, 1000, Config{Style: StyleCPP})

	e2, p2 := testEngine(t, a, 6)
	hammerBody(p2, OpPrefetch, 0)
	jit := e2.Run(p2, 1000, Config{Style: StyleAsmJit})

	if jit.MissRate() > cpp.MissRate() {
		t.Errorf("AsmJit miss %.3f should not exceed C++ miss %.3f", jit.MissRate(), cpp.MissRate())
	}
	if jit.TimeNS > cpp.TimeNS {
		t.Errorf("AsmJit time %.1f should not exceed C++ time %.1f", jit.TimeNS, cpp.TimeNS)
	}
}

// Obfuscation removes the branch predictor's share of the window.
func TestObfuscationReducesDrops(t *testing.T) {
	a := arch.AlderLake()
	e, p := testEngine(t, a, 12)
	hammerBody(p, OpPrefetch, 60)
	plain := e.Run(p, 500, Config{Style: StyleCPP})

	e2, p2 := testEngine(t, a, 12)
	hammerBody(p2, OpPrefetch, 60)
	obf := e2.Run(p2, 500, Config{Style: StyleCPP, Obfuscate: true})

	if obf.MissRate() < plain.MissRate() {
		t.Errorf("obfuscation should not reduce miss rate: %.3f vs %.3f",
			obf.MissRate(), plain.MissRate())
	}
}

// LFENCE orders loads everywhere, and prefetches only through the C++
// primitive's address-generation chain (§4.4 / Table 3).
func TestLFenceSemantics(t *testing.T) {
	a := arch.RaptorLake()
	body := func(p *Program, kind OpKind) {
		for i := range p.Lines {
			p.Ops = append(p.Ops, Op{Kind: kind, Line: int32(i), Hint: HintT2})
			p.Ops = append(p.Ops, Op{Kind: OpFlush, Line: int32(i)})
			p.Ops = append(p.Ops, Op{Kind: OpLFence})
		}
	}

	e, p := testEngine(t, a, 12)
	body(p, OpPrefetch)
	cppPF := e.Run(p, 500, Config{Style: StyleCPP})
	if cppPF.MissRate() < 0.9 {
		t.Errorf("LFENCE+C++ prefetch miss %.2f, want ~1 (indirect ordering)", cppPF.MissRate())
	}

	e2, p2 := testEngine(t, a, 12)
	body(p2, OpPrefetch)
	jitPF := e2.Run(p2, 500, Config{Style: StyleAsmJit})
	if jitPF.MissRate() > 0.8 {
		t.Errorf("LFENCE+AsmJit prefetch miss %.2f: immediate addressing must defeat the fence", jitPF.MissRate())
	}

	e3, p3 := testEngine(t, a, 12)
	body(p3, OpLoad)
	ld := e3.Run(p3, 500, Config{Style: StyleAsmJit})
	if ld.MissRate() < 0.55 {
		t.Errorf("LFENCE load miss %.2f: loads must be ordered regardless of style", ld.MissRate())
	}
}

// MFENCE does not order prefetches (Intel SDM; Table 3's zero flips);
// CPUID does.
func TestMFenceVsCPUIDForPrefetch(t *testing.T) {
	a := arch.RaptorLake()
	body := func(p *Program, barrier OpKind) {
		for i := range p.Lines {
			p.Ops = append(p.Ops, Op{Kind: OpPrefetch, Line: int32(i), Hint: HintT2})
			p.Ops = append(p.Ops, Op{Kind: OpFlush, Line: int32(i)})
			p.Ops = append(p.Ops, Op{Kind: barrier})
		}
	}
	e, p := testEngine(t, a, 12)
	body(p, OpMFence)
	mf := e.Run(p, 400, Config{Style: StyleAsmJit})

	e2, p2 := testEngine(t, a, 12)
	body(p2, OpCPUID)
	id := e2.Run(p2, 400, Config{Style: StyleAsmJit})

	if id.MissRate() < 0.95 {
		t.Errorf("CPUID-serialized prefetch miss %.2f, want ~1", id.MissRate())
	}
	if mf.MissRate() > id.MissRate()-0.2 {
		t.Errorf("MFENCE (%.2f) should order prefetches much less than CPUID (%.2f)",
			mf.MissRate(), id.MissRate())
	}
	if id.TimeNS < mf.TimeNS {
		t.Error("CPUID must be slower than MFENCE")
	}
}

// Loads replay out of order on Raptor Lake no matter the barrier — the
// reason counter-speculation cannot revive load hammering.
func TestLoadReplayFloor(t *testing.T) {
	a := arch.RaptorLake()
	e, p := testEngine(t, a, 12)
	hammerBody(p, OpLoad, 500)
	res := e.Run(p, 400, Config{Style: StyleCPP, Obfuscate: true})
	want := 1 - a.LoadReplayShare
	if math.Abs(res.MissRate()-want) > 0.06 {
		t.Errorf("heavily barriered Raptor loads miss %.3f, want ~%.2f (replay floor)",
			res.MissRate(), want)
	}
}

// Back-to-back accesses to the same line merge in the fill buffers and
// produce one activation.
func TestFillBufferMerging(t *testing.T) {
	e, p := testEngine(t, arch.CometLake(), 1)
	for i := 0; i < 8; i++ {
		p.Ops = append(p.Ops, Op{Kind: OpPrefetch, Line: 0, Hint: HintT2})
	}
	res := e.Run(p, 1, Config{})
	if res.Misses != 1 {
		t.Errorf("8 back-to-back prefetches produced %d misses, want 1 (LFB merge)", res.Misses)
	}
}

// NOP cost: pure time, proportional to the count.
func TestNopTiming(t *testing.T) {
	a := arch.CometLake()
	e, _ := testEngine(t, a, 1)
	p := &Program{Lines: []uint64{0}, Ops: []Op{{Kind: OpNop, N: 1000}}}
	res := e.Run(p, 10, Config{})
	want := 10 * 1000 * a.NopCostNS
	if math.Abs(res.TimeNS-want) > 1 {
		t.Errorf("NOP time %.1f, want %.1f", res.TimeNS, want)
	}
}

func TestEmptyProgram(t *testing.T) {
	e, _ := testEngine(t, arch.CometLake(), 1)
	res := e.Run(&Program{}, 100, Config{})
	if res.Accesses != 0 || res.TimeNS != 0 {
		t.Errorf("empty program did work: %+v", res)
	}
}

func TestEngineTimeMonotonic(t *testing.T) {
	e, p := testEngine(t, arch.CometLake(), 4)
	hammerBody(p, OpPrefetch, 10)
	t0 := e.Now()
	e.Run(p, 100, Config{})
	t1 := e.Now()
	e.Run(p, 100, Config{})
	t2 := e.Now()
	if !(t0 < t1 && t1 < t2) {
		t.Errorf("engine time not monotonic: %v %v %v", t0, t1, t2)
	}
}

func TestResultMissRate(t *testing.T) {
	r := Result{Accesses: 10, Misses: 4}
	if r.MissRate() != 0.4 {
		t.Errorf("MissRate = %v", r.MissRate())
	}
	if (Result{}).MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestProgramAccesses(t *testing.T) {
	p := &Program{Ops: []Op{
		{Kind: OpLoad}, {Kind: OpPrefetch}, {Kind: OpFlush}, {Kind: OpNop, N: 5},
	}}
	if p.Accesses() != 2 {
		t.Errorf("Accesses = %d", p.Accesses())
	}
}

func TestHintAndStyleStrings(t *testing.T) {
	if HintT0.String() != "PREFETCHT0" || HintNTA.String() != "PREFETCHNTA" {
		t.Error("hint strings")
	}
	if StyleCPP.String() != "C++" || StyleAsmJit.String() != "AsmJit" {
		t.Error("style strings")
	}
	if hintCost(HintT0) <= hintCost(HintNTA) {
		t.Error("T0 should cost more than NTA (cache pollution)")
	}
}

func TestFifoTimes(t *testing.T) {
	var f fifoTimes
	f.push(1)
	f.push(2)
	f.push(3)
	if f.len() != 3 || f.oldest() != 1 {
		t.Fatalf("fifo state: len %d oldest %v", f.len(), f.oldest())
	}
	f.drainUntil(2)
	if f.len() != 1 || f.oldest() != 3 {
		t.Errorf("drainUntil: len %d oldest %v", f.len(), f.oldest())
	}
	now := f.drainAll(0)
	if f.len() != 0 || now != 3 {
		t.Errorf("drainAll: len %d now %v", f.len(), now)
	}
	if !math.IsInf(f.oldest(), -1) {
		t.Error("oldest on empty fifo")
	}

	// waitForSlot advances time to free a slot.
	f.reset()
	f.push(100)
	f.push(200)
	now = f.waitForSlot(2, 0)
	if now != 100 || f.len() != 1 {
		t.Errorf("waitForSlot: now %v len %d", now, f.len())
	}
}

func TestFifoCompaction(t *testing.T) {
	var f fifoTimes
	for i := 0; i < 500; i++ {
		f.push(float64(i))
		if i%2 == 0 {
			f.drainUntil(float64(i))
		}
	}
	if f.len() == 0 {
		t.Fatal("fifo drained completely")
	}
	if len(f.buf) > 400 {
		t.Errorf("fifo buffer not compacted: %d", len(f.buf))
	}
}
