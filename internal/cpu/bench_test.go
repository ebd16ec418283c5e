package cpu

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/pattern"
	"rhohammer/internal/stats"
)

// The cpu rung of the benchmark ladder: the compiled executor on the
// two shapes that bound the fuzz workload's cost per ACT, and the
// compile step every fresh pattern pays. The programs are lowered here
// the way hammer sessions lower a pattern (one access and its flush per
// slot and bank, then the barrier), since an in-package test cannot
// import hammer.

// benchShape is one hammering strategy, as the hammer package's Config
// would lower it.
type benchShape struct {
	kind      OpKind
	hint      Hint
	banks     int
	nops      int32
	obfuscate bool
}

var (
	// hitHeavy is BL-S: loads with no barrier on the C++ primitive.
	// On Raptor Lake speculation serves most of its accesses from the
	// cache, so the executor pays several accesses per ACT.
	hitHeavy = benchShape{kind: OpLoad, banks: 1}
	// missHeavy is ρ-M: PREFETCHT2 over three banks with the tuned
	// multi-bank NOP pseudo-barrier and control-flow obfuscation. Nearly
	// every access reaches DRAM.
	missHeavy = benchShape{kind: OpPrefetch, hint: HintT2, banks: 3, nops: 110, obfuscate: true}
)

// benchProgram builds a Raptor Lake engine over an S1 DIMM and lowers
// the known-good pattern under shape at bank 0, base row 4096.
func benchProgram(tb testing.TB, shape benchShape) (*Engine, *Program, Config) {
	tb.Helper()
	a, d := arch.RaptorLake(), arch.DIMMS1()
	m, ok := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	if !ok {
		tb.Fatalf("no mapping for %s at %d GiB", a.MappingFamily, d.SizeGiB)
	}
	e := NewEngine(a, memctrl.New(a, m, dram.NewDevice(d, 1)), stats.NewRand(1))
	type key struct{ bank, off int }
	lineOf := map[key]int32{}
	p := &Program{Ops: []Op{{Kind: OpIterStart}}}
	for _, off := range pattern.KnownGood().Render() {
		for bank := 0; bank < shape.banks; bank++ {
			k := key{bank, off}
			line, ok := lineOf[k]
			if !ok {
				pa, err := m.PhysAddr(bank, 4096+uint64(off), 0)
				if err != nil {
					tb.Fatal(err)
				}
				line = int32(len(p.Lines))
				p.Lines = append(p.Lines, pa)
				lineOf[k] = line
			}
			p.Ops = append(p.Ops, Op{Kind: shape.kind, Line: line, Hint: shape.hint}, Op{Kind: OpFlush, Line: line})
			if shape.nops > 0 {
				p.Ops = append(p.Ops, Op{Kind: OpNop, N: shape.nops})
			}
		}
	}
	return e, p, Config{Style: StyleCPP, Obfuscate: shape.obfuscate}
}

// benchRunIters is how many pattern iterations one RunPayload call of
// the benchmark executes: about 0.5 ms simulated for BL-S and 2.6 ms
// for ρ-M, so each call crosses REFs.
const benchRunIters = 200

// BenchmarkRunPayload times one warm RunPayload call of benchRunIters
// iterations, the fuzz loop's steady state: the payload is compiled,
// every lazily grown structure is warm and the reachable cells have
// flipped, so a call must not allocate. It reports host ns per ACT and
// the executor's accesses per ACT.
func BenchmarkRunPayload(b *testing.B) {
	for _, c := range []struct {
		name  string
		shape benchShape
	}{
		{"hit_heavy", hitHeavy},
		{"miss_heavy", missHeavy},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, p, cfg := benchProgram(b, c.shape)
			pl, err := e.Compile(p, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// One refresh window (64 ms simulated) exhausts the flips
			// this placement can reach.
			for e.Now() < 64e6 {
				e.RunPayload(pl, 20*benchRunIters)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var acts, accesses uint64
			for i := 0; i < b.N; i++ {
				res := e.RunPayload(pl, benchRunIters)
				acts += res.ACTs
				accesses += res.Accesses
			}
			if acts == 0 {
				b.Fatal("no ACTs issued")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acts), "ns/ACT")
			b.ReportMetric(float64(accesses)/float64(acts), "accesses/ACT")
		})
	}
}

// BenchmarkCompile times lowering the ρ-M program into a payload: line
// translation, schedule sizing and delta folding, paid once per fresh
// pattern.
func BenchmarkCompile(b *testing.B) {
	e, p, cfg := benchProgram(b, missHeavy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Compile(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
