package memctrl

import (
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
)

func testController() *Controller {
	a := arch.CometLake()
	d := arch.DIMMS3()
	m, _ := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	return New(a, m, dram.NewDevice(d, 1))
}

func addr(t testing.TB, c *Controller, bank int, row uint64) uint64 {
	t.Helper()
	pa, err := c.Map.PhysAddr(bank, row, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pa
}

func TestRowHitVsConflictLatency(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	b := addr(t, c, 0, 200) // same bank, different row
	now := 0.0

	// First access: bank empty.
	done, kind := c.Access(a, now)
	if kind != KindRowEmpty {
		t.Fatalf("first access kind = %v", kind)
	}
	emptyLat := done - now
	now = done

	// Repeat: row hit, strictly faster.
	done, kind = c.Access(a, now)
	if kind != KindRowHit {
		t.Fatalf("second access kind = %v", kind)
	}
	hitLat := done - now
	now = done

	// Other row: conflict, strictly slower than both.
	done, kind = c.Access(b, now)
	if kind != KindRowConflict {
		t.Fatalf("third access kind = %v", kind)
	}
	conflictLat := done - now

	if !(hitLat < emptyLat && emptyLat < conflictLat) {
		t.Errorf("latency ordering broken: hit %.1f, empty %.1f, conflict %.1f",
			hitLat, emptyLat, conflictLat)
	}
}

func TestSBDRContrast(t *testing.T) {
	c := testController()
	sameBank := [2]uint64{addr(t, c, 3, 100), addr(t, c, 3, 900)}
	diffBank := [2]uint64{addr(t, c, 4, 100), addr(t, c, 5, 900)}

	measure := func(pair [2]uint64) float64 {
		now := 1e6
		var total float64
		for i := 0; i < 20; i++ {
			d0, _ := c.Access(pair[0], now)
			d1, _ := c.Access(pair[1], d0)
			total += d1 - now
			now = d1 + 30
		}
		return total / 20
	}
	slow := measure(sameBank)
	fast := measure(diffBank)
	if slow <= fast+20 {
		t.Errorf("SBDR contrast too weak: same-bank %.1f vs diff-bank %.1f ns", slow, fast)
	}
}

func TestActivationsReachDevice(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	b := addr(t, c, 0, 200)
	for i := 0; i < 10; i++ {
		c.Access(a, float64(i)*1000)
		c.Access(b, float64(i)*1000+500)
	}
	st := c.Stats()
	if st.Accesses != 20 {
		t.Errorf("accesses = %d", st.Accesses)
	}
	if st.ACTs() != c.Dev.ActivationCount() {
		t.Errorf("controller ACTs %d != device %d", st.ACTs(), c.Dev.ActivationCount())
	}
	if c.Dev.ActCount(0, 100) == 0 || c.Dev.ActCount(0, 200) == 0 {
		t.Error("activations not attributed to rows")
	}
}

func TestRefreshAdvances(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	c.Access(a, 0)
	if got := c.Stats().Refreshes; got != 0 {
		t.Fatalf("refreshes before tREFI = %d", got)
	}
	// Jump past 10 refresh intervals.
	c.Access(a, 10.5*dram.TREFIns)
	if got := c.Stats().Refreshes; got != 10 {
		t.Errorf("refreshes = %d, want 10", got)
	}
}

func TestRefreshClosesRowsAndBlocks(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	done, _ := c.Access(a, 0)
	// Just after a REF boundary the row must be closed again and the
	// bank blocked for tRFC.
	start := dram.TREFIns + 1
	done2, kind := c.Access(a, start)
	if kind == KindRowHit {
		t.Error("row survived refresh")
	}
	if done2-start < c.T.TRFC-dram.TREFIns/2 && done2-start < c.T.TRFC {
		// The access must wait out the refresh blocking window.
		t.Errorf("access during REF completed too fast: %.1f ns", done2-start)
	}
	_ = done
}

func TestBankParallelism(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	b := addr(t, c, 1, 200)
	// Issue both at the same instant: different banks overlap, so the
	// second completes well before a serialized schedule would allow.
	d0, _ := c.Access(a, 0)
	d1, _ := c.Access(b, 0)
	if d1 >= d0+c.T.TRCD {
		t.Errorf("different banks serialized: %.1f vs %.1f", d0, d1)
	}
}

func TestSameBankACTsRespectTRC(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	b := addr(t, c, 0, 200)
	c.Access(a, 0)
	c.Access(b, 0) // conflict: PRE+ACT
	// Issue a third ACT immediately: it cannot start before lastACT+tRC.
	d3, _ := c.Access(a, 0)
	if d3 < c.T.TRC {
		t.Errorf("third ACT completed at %.1f, before tRC %.1f", d3, c.T.TRC)
	}
}

func TestClassify(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	b := addr(t, c, 0, 200)
	if c.Classify(a) != KindRowEmpty {
		t.Error("fresh bank should classify empty")
	}
	c.Access(a, 0)
	if c.Classify(a) != KindRowHit {
		t.Error("open row should classify hit")
	}
	if c.Classify(b) != KindRowConflict {
		t.Error("other row should classify conflict")
	}
	c.CloseAll()
	if c.Classify(a) != KindRowEmpty {
		t.Error("CloseAll did not precharge")
	}
}

func TestReset(t *testing.T) {
	c := testController()
	a := addr(t, c, 0, 100)
	c.Access(a, 5*dram.TREFIns)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Error("stats survive Reset")
	}
	if c.Classify(a) != KindRowEmpty {
		t.Error("rows survive Reset")
	}
}

func TestDeriveTimings(t *testing.T) {
	tm := DeriveTimings(3200)
	if tm.TCL != 22*0.625 {
		t.Errorf("TCL = %v", tm.TCL)
	}
	if tm.TRC <= tm.TRP+tm.TRCD {
		t.Errorf("tRC %v should exceed tRP+tRCD", tm.TRC)
	}
	slow := DeriveTimings(2400)
	if slow.TCL <= tm.TCL {
		t.Error("slower module should have larger latencies")
	}
}

func TestControllerUsesSlowerOfCPUAndDIMM(t *testing.T) {
	a := arch.RaptorLake() // 3200
	d := arch.DIMMS5()     // 2400
	m, _ := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	c := New(a, m, dram.NewDevice(d, 1))
	want := DeriveTimings(2400)
	if c.T.TCL != want.TCL {
		t.Errorf("controller TCL %v, want DIMM-limited %v", c.T.TCL, want.TCL)
	}
}

func TestAccessKindString(t *testing.T) {
	if KindRowHit.String() != "row-hit" || KindRowConflict.String() != "row-conflict" ||
		KindRowEmpty.String() != "row-empty" {
		t.Error("AccessKind strings")
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestMismatchedBankCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mapping larger than device")
		}
	}()
	a := arch.CometLake()
	m, _ := mapping.ForPlatform("comet-rocket", 16) // 32 banks
	d := arch.DIMMS2()                              // single-rank: 16 banks
	New(a, m, dram.NewDevice(d, 1))
}

// BenchmarkAccess times one Controller.Access, the per-access path of
// the timing measurements behind mapping recovery. Both halves
// alternate two rows of one bank, so every access issues an ACT (a row
// conflict, or a row-empty ACT after a REF) that reaches the device.
// In decode_hit the two addresses sit in different decode-cache slots,
// so their translations stay cached. In decode_miss they share a slot
// and evict each other, so every access also evaluates the mapping's
// bank and row functions. Neither allocates.
func BenchmarkAccess(b *testing.B) {
	for _, bc := range []struct {
		name   string
		misses bool
	}{{"decode_hit", false}, {"decode_miss", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c := testController()
			pas := [2]uint64{addr(b, c, 0, 100), addr(b, c, 0, 200)}
			if bc.misses {
				pas[1] = sameSlotOtherRow(b, c, pas[0])
			}
			now := 0.0
			for i := 0; i < 1000; i++ {
				now, _ = c.Access(pas[i&1], now)
			}
			before := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ = c.Access(pas[i&1], now)
			}
			b.StopTimer()
			st := c.Stats()
			misses, acts := st.DecodeMisses-before.DecodeMisses, st.ACTs()-before.ACTs()
			if want := uint64(b.N); (bc.misses && misses != want) || (!bc.misses && misses != 0) || acts != want {
				b.Fatalf("%d decode misses and %d ACTs in %d accesses", misses, acts, b.N)
			}
		})
	}
}

// sameSlotOtherRow returns an address in pa's bank, in another row,
// that indexes pa's decode-cache slot. Flipping bits 6+i and 18+i
// together leaves ((pa>>6)^(pa>>18)) unchanged in the slot bits.
func sameSlotOtherRow(b *testing.B, c *Controller, pa uint64) uint64 {
	for k := uint64(1); k < decodeSize; k++ {
		q := pa ^ (k<<6 | k<<18)
		if q < c.Map.Size() && c.Map.Bank(q) == c.Map.Bank(pa) && c.Map.Row(q) != c.Map.Row(pa) {
			return q
		}
	}
	b.Fatal("no same-slot address in another row of the bank")
	return 0
}
