package dram_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/refmodel"
)

// Refresh visits only the banks whose TRR sampler took an ACT in the
// interval, read from a mask both per-ACT bodies set. The refmodel
// traces hammer banks 0 and 1 only, so this test hammers the mask's
// edges: bank 0, bank 31 and the device's last bank (63 on D1's 2×32).
//
// Each interval every hammered bank activates more distinct rows than
// TRR refreshes per REF, so every hammered bank must fire exactly
// TRRRefreshPerREF targeted refreshes at the REF: a bank the walk skips
// shows as a short count, and the reference auditor, attached to the
// device the hooked Activate feeds, checks the trigger order, flips and
// row state. The S1 run also feeds the same ACTs through ActivateBatch's
// lean loop on a twin and requires it to agree with the audited device.
// A Reset lands mid-interval, after which only bank 0 is hammered: no
// bank sampled before the Reset may fire at the next REF.
func TestRefreshVisitsSampledBanks(t *testing.T) {
	for _, d := range []*arch.DIMM{arch.DIMMD1(), arch.DIMMS1()} {
		t.Run(d.ID+"/Activate", func(t *testing.T) { runEdgeBanks(t, weakCells(d), false) })
	}
	t.Run("S1/ActivateBatch", func(t *testing.T) { runEdgeBanks(t, weakCells(arch.DIMMS1()), true) })
}

// weakCells returns d with cells weak enough to flip within this
// test's few hundred intervals.
func weakCells(d *arch.DIMM) *arch.DIMM {
	d.ThresholdMu = math.Log(600)
	d.ThresholdSigma = 0.05
	d.WeakCellsPerRowLambda = 3
	return d
}

// act is one ACT of the trace.
type act struct {
	bank int
	row  uint64
	at   float64
}

// runEdgeBanks drives the edge-bank trace through a device with the
// reference auditor attached and, with lean set, through an unhooked
// twin by ActivateBatch.
func runEdgeBanks(t *testing.T, d *arch.DIMM, lean bool) {
	const (
		seed      = 5
		poolRows  = 10 // > every profile's TRRSamplerSize
		intervals = 200
		resetAt   = intervals / 2
	)
	audited := dram.NewDevice(d, seed)
	aud := refmodel.NewAuditor(audited)
	var twin *dram.Device
	if lean {
		twin = dram.NewDevice(d, seed)
	}
	rng := rand.New(rand.NewSource(seed))

	banks := []int{0}
	for _, b := range []int{31, audited.Banks() - 1} {
		if !slices.Contains(banks, b) {
			banks = append(banks, b)
		}
	}
	// Rows two apart share victims, so the pool's rows pressure each
	// other's neighbors as a real pattern does.
	pools := map[int][]uint64{}
	refs := map[act]*dram.ActRef{} // keyed by bank and row, at zero
	for _, b := range banks {
		base := uint64(1000 + rng.Intn(50000))
		for i := 0; i < poolRows; i++ {
			row := base + 2*uint64(i)
			pools[b] = append(pools[b], row)
			if twin != nil {
				ref := twin.PrepareAct(b, row)
				refs[act{bank: b, row: row}] = &ref
			}
		}
	}

	now := 0.0
	// draw returns n ACTs over banks; the minimum of two draws skews
	// each bank's counts, so TRR has top candidates to pick and others
	// to miss.
	draw := func(banks []int, n int) []act {
		acts := make([]act, n)
		for k := range acts {
			b := banks[rng.Intn(len(banks))]
			now += 45
			acts[k] = act{bank: b, row: pools[b][min(rng.Intn(poolRows), rng.Intn(poolRows))], at: now}
		}
		return acts
	}
	apply := func(acts []act) {
		for _, a := range acts {
			audited.Activate(a.bank, a.row, a.at)
		}
		if twin == nil {
			return
		}
		entries := make([]dram.ActEntry, len(acts))
		for k, a := range acts {
			entries[k] = dram.ActEntry{Ref: refs[act{bank: a.bank, row: a.row}], At: a.at}
		}
		for len(entries) > 0 {
			m := min(1+rng.Intn(64), len(entries))
			twin.ActivateBatch(entries[:m])
			entries = entries[m:]
		}
	}
	// fires is what the REF after acts must fire: TRRRefreshPerREF
	// targeted refreshes per hammered bank, or one per distinct row
	// where a bank saw fewer.
	fires := func(acts []act) uint64 {
		rows := map[int]map[uint64]bool{}
		for _, a := range acts {
			if rows[a.bank] == nil {
				rows[a.bank] = map[uint64]bool{}
			}
			rows[a.bank][a.row] = true
		}
		var n uint64
		for _, r := range rows {
			n += uint64(min(len(r), d.TRRRefreshPerREF))
		}
		return n
	}

	for iv := 0; iv < intervals; iv++ {
		acts := draw(banks, 200+rng.Intn(300))
		if iv == resetAt {
			// Every bank's sampler holds entries when the Reset lands.
			apply(acts[:len(acts)/2])
			audited.Reset()
			if twin != nil {
				twin.Reset()
			}
			acts = draw([]int{0}, 100)
		}
		apply(acts)
		before := audited.TRREvents()
		now += dram.TREFIns
		audited.Refresh(now)
		if got, want := audited.TRREvents()-before, fires(acts); got != want {
			t.Fatalf("interval %d: REF fired %d targeted refreshes, want %d over banks %v", iv, got, want, banks)
		}
		if err := aud.Err(); err != nil {
			t.Fatalf("interval %d: %v", iv, err)
		}
		if twin == nil {
			continue
		}
		twin.Refresh(now)
		if l, h := twin.TRREvents(), audited.TRREvents(); l != h {
			t.Fatalf("interval %d: TRR events ActivateBatch %d, Activate %d", iv, l, h)
		}
		if !slices.Equal(twin.Flips(), audited.Flips()) {
			t.Fatalf("interval %d: flips diverged: ActivateBatch %d, Activate %d", iv, len(twin.Flips()), len(audited.Flips()))
		}
		for _, b := range banks {
			for _, row := range pools[b] {
				for v := row - 2; v <= row+2; v++ {
					if l, h := twin.RowDisturbance(b, v), audited.RowDisturbance(b, v); l != h {
						t.Fatalf("interval %d: bank %d row %d disturbance ActivateBatch %v, Activate %v", iv, b, v, l, h)
					}
				}
			}
		}
	}
	if err := aud.Check(); err != nil {
		t.Fatal(err)
	}
	if !d.DDR5 && len(audited.Flips()) == 0 {
		t.Fatal("the trace flipped no cell; the flip comparison would be empty")
	}
	t.Logf("%d flips, %d TRR events since the Reset", len(audited.Flips()), audited.TRREvents())
}
