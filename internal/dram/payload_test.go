package dram

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rhohammer/internal/arch"
)

// TestActivateBatchMatchesActivate runs random ACT/REF/Reset traces
// (six seeds) through twin devices: one takes each interval's ACTs in
// chunks through ActivateBatch, which with no hook attached is the
// lean loop; the other takes them one Activate call at a time, the
// hooked body. Each interval spreads over several banks and activates
// more distinct rows per bank than the TRR sampler holds, so the
// sampler's first-come cut and its untracked rows are both exercised,
// and one Reset lands mid-interval. After every REF the devices must
// agree on flips, TRR events and each touched row's ACT count and
// disturbance.
func TestActivateBatchMatchesActivate(t *testing.T) {
	// Thresholds just above the materialization floor, so the trace
	// flips cells within a few hundred intervals.
	dimm := vulnerableDIMM()
	dimm.ThresholdMu = math.Log(600)
	banks := []int{0, 5, 17}
	const (
		rowsPerBank = 14 // > every profile's TRRSamplerSize
		intervals   = 240
		resetAt     = intervals / 2
	)
	if rowsPerBank <= dimm.TRRSamplerSize {
		t.Fatalf("trace holds %d rows per bank, sampler %d: the untracked path would go unexercised", rowsPerBank, dimm.TRRSamplerSize)
	}
	var totalFlips int
	var totalTRR uint64
	for seed := int64(1); seed <= 6; seed++ {
		lean := NewDevice(dimm, seed)
		hooked := NewDevice(dimm, seed)
		rng := rand.New(rand.NewSource(seed))

		type addr struct {
			bank int
			row  uint64
		}
		// Rows two apart share victims, so decoys and aggressors
		// interleave their disturbance as in a real pattern.
		var rows []addr
		refs := map[addr]*ActRef{}
		touched := map[addr]bool{}
		for _, b := range banks {
			base := uint64(1000 + rng.Intn(50000))
			for i := 0; i < rowsPerBank; i++ {
				a := addr{b, base + 2*uint64(i)}
				rows = append(rows, a)
				ref := lean.PrepareAct(a.bank, a.row)
				refs[a] = &ref
				for d := -2; d <= 2; d++ {
					touched[addr{b, uint64(int(a.row) + d)}] = true
				}
			}
		}
		// A skewed weight per row: a few rows dominate each bank's
		// counts, so TRR has top candidates to pick and others to miss.
		weights := make([]int, len(rows))
		for i := range weights {
			weights[i] = 1 + rng.Intn(4)*rng.Intn(4)
		}
		var bag []int
		for i, w := range weights {
			for k := 0; k < w; k++ {
				bag = append(bag, i)
			}
		}

		// apply hands entries to the lean device in random chunks and to
		// the hooked one call by call.
		apply := func(entries []ActEntry) {
			for len(entries) > 0 {
				m := min(1+rng.Intn(64), len(entries))
				lean.ActivateBatch(entries[:m])
				for _, e := range entries[:m] {
					hooked.Activate(int(e.Ref.bank), e.Ref.row, e.At)
				}
				entries = entries[m:]
			}
		}
		now := 0.0
		var entries []ActEntry
		for iv := 0; iv < intervals; iv++ {
			n := 150 + rng.Intn(450)
			entries = entries[:0]
			for k := 0; k < n; k++ {
				now += 45
				entries = append(entries, ActEntry{Ref: refs[rows[bag[rng.Intn(len(bag))]]], At: now})
			}
			if iv == resetAt {
				// Half the interval's ACTs are in the samplers when the
				// Reset lands.
				apply(entries[:n/2])
				lean.Reset()
				hooked.Reset()
				entries = entries[n/2:]
			}
			apply(entries)
			now += TREFIns
			lean.Refresh(now)
			hooked.Refresh(now)

			if !slices.Equal(lean.Flips(), hooked.Flips()) {
				t.Fatalf("seed %d interval %d: flips diverged: lean %d, hooked %d", seed, iv, len(lean.Flips()), len(hooked.Flips()))
			}
			if lean.TRREvents() != hooked.TRREvents() {
				t.Fatalf("seed %d interval %d: TRR events lean %d, hooked %d", seed, iv, lean.TRREvents(), hooked.TRREvents())
			}
			if lean.ActivationCount() != hooked.ActivationCount() {
				t.Fatalf("seed %d interval %d: ACT count lean %d, hooked %d", seed, iv, lean.ActivationCount(), hooked.ActivationCount())
			}
			for a := range touched {
				if l, h := lean.ActCount(a.bank, a.row), hooked.ActCount(a.bank, a.row); l != h {
					t.Fatalf("seed %d interval %d: bank %d row %d ActCount lean %d, hooked %d", seed, iv, a.bank, a.row, l, h)
				}
				if l, h := lean.RowDisturbance(a.bank, a.row), hooked.RowDisturbance(a.bank, a.row); l != h {
					t.Fatalf("seed %d interval %d: bank %d row %d disturbance lean %v, hooked %v", seed, iv, a.bank, a.row, l, h)
				}
			}
		}
		totalFlips += len(lean.Flips())
		totalTRR += lean.TRREvents()
	}
	// The comparison is only as strong as what the trace provokes.
	if totalFlips == 0 || totalTRR == 0 {
		t.Fatalf("trace provoked %d flips and %d TRR events; both must be nonzero", totalFlips, totalTRR)
	}
	t.Logf("%d flips, %d TRR events over the seeds", totalFlips, totalTRR)
}

// BenchmarkActivateBatch times the lean ActivateBatch loop in its
// steady state: one bank hammered by a decoy-dominated pattern of eight
// rows, 173 ACTs per REF interval (~45 ns per ACT at tREFI), with the
// interval's REF included. Warm-up materializes every row and exhausts
// the reachable flips, so the measured loop must not allocate.
func BenchmarkActivateBatch(b *testing.B) {
	dev := NewDevice(arch.DIMMS1(), 1)
	var refs [8]ActRef
	for i := range refs {
		refs[i] = dev.PrepareAct(0, 4096+2*uint64(i))
	}
	const perREF = 173
	entries := make([]ActEntry, perREF)
	for i := range entries {
		// Rows 0 and 1 are decoys at 3x the others' rate.
		k := i % 12
		if k >= 8 {
			k &= 1
		}
		entries[i] = ActEntry{Ref: &refs[k], At: float64(i) * 45}
	}
	for i := 0; i < 20000; i++ {
		dev.ActivateBatch(entries)
		dev.Refresh(float64(i) * TREFIns)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.ActivateBatch(entries)
		dev.Refresh(float64(i) * TREFIns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perREF), "ns/ACT")
}
