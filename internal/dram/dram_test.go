package dram

import (
	"math"
	"testing"

	"rhohammer/internal/arch"
)

// vulnerableDIMM returns a test DIMM with low, tight thresholds so
// deterministic small-scale hammering crosses them.
func vulnerableDIMM() *arch.DIMM {
	d := arch.DIMMS4()
	d.ThresholdMu = math.Log(1000)
	d.ThresholdSigma = 0.05
	d.WeakCellsPerRowLambda = 3
	return d
}

func TestActivationBookkeeping(t *testing.T) {
	dev := NewDevice(arch.DIMMS1(), 1)
	if dev.Banks() != 32 || dev.Rows() != 1<<16 {
		t.Fatalf("geometry %d banks %d rows", dev.Banks(), dev.Rows())
	}
	dev.Activate(3, 100, 0)
	dev.Activate(3, 100, 10)
	dev.Activate(4, 100, 20)
	if dev.ActivationCount() != 3 {
		t.Errorf("activation count = %d", dev.ActivationCount())
	}
	if dev.ActCount(3, 100) != 2 || dev.ActCount(4, 100) != 1 {
		t.Errorf("per-row act counts wrong")
	}
}

func TestBlastRadius(t *testing.T) {
	dev := NewDevice(arch.DIMMS1(), 1)
	dev.Activate(0, 100, 0)
	if d := dev.RowDisturbance(0, 99); d != 1 {
		t.Errorf("distance-1 victim disturbance = %v, want 1", d)
	}
	if d := dev.RowDisturbance(0, 101); d != 1 {
		t.Errorf("distance-1 victim disturbance = %v, want 1", d)
	}
	if d := dev.RowDisturbance(0, 98); d != 0.08 {
		t.Errorf("distance-2 victim disturbance = %v, want 0.08", d)
	}
	if d := dev.RowDisturbance(0, 103); d != 0 {
		t.Errorf("distance-3 row disturbed: %v", d)
	}
	if d := dev.RowDisturbance(1, 99); d != 0 {
		t.Errorf("wrong bank disturbed: %v", d)
	}
}

func TestBlastEdgeRows(t *testing.T) {
	dev := NewDevice(arch.DIMMS1(), 1)
	// Must not panic or wrap at the array edges.
	dev.Activate(0, 0, 0)
	dev.Activate(0, dev.Rows()-1, 0)
	if d := dev.RowDisturbance(0, 1); d != 1 {
		t.Errorf("edge neighbor disturbance = %v", d)
	}
}

func TestFlipAtThreshold(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 7)
	// Hammer row 1000's neighbors until its weak cells flip.
	for i := 0; i < 3000; i++ {
		dev.Activate(0, 999, float64(i))
		dev.Activate(0, 1001, float64(i))
	}
	flips := dev.Flips()
	if len(flips) == 0 {
		t.Fatal("no flips despite disturbance far above threshold")
	}
	for _, f := range flips {
		if f.Bank != 0 {
			t.Errorf("flip in wrong bank: %v", f)
		}
		if f.ByteInRow < 0 || f.ByteInRow >= RowBytes || f.Bit > 7 {
			t.Errorf("flip coordinates out of range: %v", f)
		}
	}
}

func TestFlipFiresOncePerCell(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 7)
	for i := 0; i < 6000; i++ {
		dev.Activate(0, 999, 0)
		dev.Activate(0, 1001, 0)
	}
	n := len(dev.Flips())
	for i := 0; i < 6000; i++ {
		dev.Activate(0, 999, 0)
	}
	// Row 1000's cells already flipped; only new rows (998/1002 side
	// effects) may add flips, never duplicates.
	_ = n
	seen := map[[4]int]bool{}
	for _, f := range dev.Flips() {
		key := [4]int{f.Bank, int(f.Row), f.ByteInRow, int(f.Bit)}
		if seen[key] {
			t.Fatalf("duplicate flip %v", f)
		}
		seen[key] = true
	}
}

func TestVulnerabilityDeterminism(t *testing.T) {
	a := NewDevice(vulnerableDIMM(), 99)
	b := NewDevice(vulnerableDIMM(), 99)
	for i := 0; i < 4000; i++ {
		a.Activate(2, 500, float64(i))
		b.Activate(2, 500, float64(i))
	}
	fa, fb := a.Flips(), b.Flips()
	if len(fa) == 0 {
		t.Fatal("expected flips")
	}
	if len(fa) != len(fb) {
		t.Fatalf("flip counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Row != fb[i].Row || fa[i].ByteInRow != fb[i].ByteInRow || fa[i].Bit != fb[i].Bit {
			t.Errorf("flip %d differs: %v vs %v", i, fa[i], fb[i])
		}
	}
	// A different seed produces a different cell population.
	c := NewDevice(vulnerableDIMM(), 100)
	for i := 0; i < 4000; i++ {
		c.Activate(2, 500, float64(i))
	}
	fc := c.Flips()
	same := len(fa) == len(fc)
	if same {
		for i := range fa {
			if fa[i].ByteInRow != fc[i].ByteInRow {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical vulnerability maps")
	}
}

func TestRegularRefreshResetsWindow(t *testing.T) {
	dev := NewDevice(arch.DIMMS1(), 1)
	dev.Activate(0, 100, 0)
	if dev.RowDisturbance(0, 101) != 1 {
		t.Fatal("setup failed")
	}
	// Drive a full refresh window: every row's slice is refreshed once.
	for i := 0; i < RefreshSlices; i++ {
		dev.Refresh(float64(i) * TREFIns)
	}
	// The reset is lazy: it must be visible at the next disturbance.
	dev.Activate(0, 100, 1e9)
	if d := dev.RowDisturbance(0, 101); d != 1 {
		t.Errorf("disturbance after full refresh window = %v, want 1 (reset + one new)", d)
	}
}

func TestTRRCatchesUniformAggressor(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 3)
	// A classic double-sided pattern: only two rows hammered. TRR must
	// identify them and keep the victim refreshed: no flips even far
	// beyond the cell threshold count.
	for ref := 0; ref < 400; ref++ {
		for i := 0; i < 40; i++ {
			dev.Activate(0, 999, 0)
			dev.Activate(0, 1001, 0)
		}
		dev.Refresh(float64(ref) * TREFIns)
	}
	if n := len(dev.Flips()); n != 0 {
		t.Errorf("TRR failed to stop uniform double-sided hammering: %d flips", n)
	}
	if dev.TRREvents() == 0 {
		t.Error("TRR never fired")
	}
}

func TestTRREvadedByDecoys(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 3)
	// Non-uniform: two decoy rows with dominant counts protect the
	// true pair (999, 1001).
	for ref := 0; ref < 400; ref++ {
		for i := 0; i < 40; i++ {
			dev.Activate(0, 2000, 0) // decoys: 2x the count
			dev.Activate(0, 3000, 0)
			if i%2 == 0 {
				dev.Activate(0, 999, 0)
				dev.Activate(0, 1001, 0)
			}
		}
		dev.Refresh(float64(ref) * TREFIns)
	}
	if n := len(dev.Flips()); n == 0 {
		t.Error("decoy-protected hammering produced no flips")
	}
}

func TestPTRRStopsDecoyPattern(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 3)
	dev.PTRR = true
	for ref := 0; ref < 400; ref++ {
		for i := 0; i < 40; i++ {
			dev.Activate(0, 2000, 0)
			dev.Activate(0, 3000, 0)
			if i%2 == 0 {
				dev.Activate(0, 999, 0)
				dev.Activate(0, 1001, 0)
			}
		}
		dev.Refresh(float64(ref) * TREFIns)
	}
	if n := len(dev.Flips()); n != 0 {
		t.Errorf("pTRR failed: %d flips", n)
	}
}

func TestM1NeverFlips(t *testing.T) {
	dev := NewDevice(arch.DIMMM1(), 3)
	for i := 0; i < 500000; i++ {
		dev.Activate(0, 999, 0)
		dev.Activate(0, 1001, 0)
	}
	if n := len(dev.Flips()); n != 0 {
		t.Errorf("M1 flipped %d cells", n)
	}
}

func TestResetClearsState(t *testing.T) {
	dev := NewDevice(vulnerableDIMM(), 7)
	for i := 0; i < 4000; i++ {
		dev.Activate(0, 999, 0)
		dev.Activate(0, 1001, 0)
	}
	if len(dev.Flips()) == 0 {
		t.Fatal("setup: no flips")
	}
	first := len(dev.Flips())
	dev.Reset()
	if len(dev.Flips()) != 0 || dev.ActivationCount() != 0 || dev.TRREvents() != 0 {
		t.Error("Reset left residual state")
	}
	// The same hammering flips the same cells again (location-stable
	// vulnerability).
	for i := 0; i < 4000; i++ {
		dev.Activate(0, 999, 0)
		dev.Activate(0, 1001, 0)
	}
	if len(dev.Flips()) != first {
		t.Errorf("reproducibility after Reset: %d vs %d flips", len(dev.Flips()), first)
	}
}

func TestWeakCellCountDeterministic(t *testing.T) {
	dev := NewDevice(arch.DIMMS3(), 5)
	a := dev.WeakCellCount(1, 777)
	b := dev.WeakCellCount(1, 777)
	if a != b {
		t.Errorf("WeakCellCount not stable: %d vs %d", a, b)
	}
	dev2 := NewDevice(arch.DIMMS3(), 5)
	if dev2.WeakCellCount(1, 777) != a {
		t.Error("WeakCellCount differs across devices with same seed")
	}
}

func TestRowEpochAdvances(t *testing.T) {
	dev := NewDevice(arch.DIMMS1(), 1)
	e0 := dev.rowEpoch(0)
	for i := 0; i < RefreshSlices; i++ {
		dev.Refresh(0)
	}
	if dev.rowEpoch(0) != e0+1 {
		t.Errorf("epoch did not advance by 1 after a full refresh cycle")
	}
}

func TestFlipVisibleUnder(t *testing.T) {
	oneToZero := Flip{Bit: 3, OneToZero: true}
	zeroToOne := Flip{Bit: 3, OneToZero: false}
	allOnes, allZeros := byte(0xFF), byte(0x00)
	if !oneToZero.VisibleUnder(allOnes) || oneToZero.VisibleUnder(allZeros) {
		t.Error("1->0 flip visibility")
	}
	if zeroToOne.VisibleUnder(allOnes) || !zeroToOne.VisibleUnder(allZeros) {
		t.Error("0->1 flip visibility")
	}
	// Complementary stripe patterns together expose every flip.
	for _, f := range []Flip{oneToZero, zeroToOne, {Bit: 0, OneToZero: true}, {Bit: 7}} {
		if !f.VisibleUnder(0x55) && !f.VisibleUnder(0xAA) {
			t.Errorf("flip %v invisible under both stripes", f)
		}
	}
}
