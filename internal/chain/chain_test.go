package chain_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rhohammer/internal/arch"
	"rhohammer/internal/chain"
	"rhohammer/internal/dram"
	"rhohammer/internal/hammer"
)

func session(t *testing.T, a *arch.Arch, dimm string, seed int64) *hammer.Session {
	t.Helper()
	d, ok := arch.DIMMByID(dimm)
	if !ok {
		t.Fatalf("unknown DIMM %q", dimm)
	}
	s, err := hammer.NewSession(a, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPlanDefaultsAndKey(t *testing.T) {
	if got := (chain.Plan{}).Key(); got != "buddy-rho-pte" {
		t.Errorf("zero plan key = %q, want buddy-rho-pte", got)
	}
	if got := (chain.Plan{Allocator: "thp", Hammerer: "load", Victim: "key"}).Key(); got != "thp-load-key" {
		t.Errorf("key = %q, want thp-load-key", got)
	}
	if len(chain.Allocators()) != 2 || len(chain.Hammerers()) != 2 || len(chain.Victims()) != 2 {
		t.Errorf("stage listings %v/%v/%v: want 2 of each",
			chain.Allocators(), chain.Hammerers(), chain.Victims())
	}
}

func TestBuildRejectsUnknownStages(t *testing.T) {
	a := arch.RaptorLake()
	for _, p := range []chain.Plan{
		{Allocator: "slab"},
		{Hammerer: "clflush"},
		{Victim: "sudoers"},
	} {
		if _, err := p.Build(a); err == nil {
			t.Errorf("Build(%+v) accepted an unknown stage", p)
		}
	}
	for _, al := range chain.Allocators() {
		for _, h := range chain.Hammerers() {
			for _, v := range chain.Victims() {
				p := chain.Plan{Allocator: al, Hammerer: h, Victim: v}
				if _, err := p.Build(a); err != nil {
					t.Errorf("Build(%s): %v", p.Key(), err)
				}
			}
		}
	}
}

// TestAllocatorExhaustion drives both allocators past the map's
// capacity: the chain must fail in the allocation phase with a typed
// AllocError and report zero regions.
func TestAllocatorExhaustion(t *testing.T) {
	for _, al := range chain.Allocators() {
		s := session(t, arch.RaptorLake(), "S3", 1)
		p := chain.Plan{Allocator: al, Regions: 1 << 20}
		res, err := p.Run(s)
		var ae *chain.AllocError
		if !errors.As(err, &ae) {
			t.Fatalf("%s with 2^20 regions: err = %v, want AllocError", al, err)
		}
		if res.Regions != 0 || res.TotalFlips != 0 {
			t.Errorf("%s: partial result after alloc failure: %+v", al, res)
		}
	}
}

// TestNoUsableFlips covers the two flavors of NoTargetsError: a module
// that never flips (M1, zero templated flips), and templating that does
// flip paired with a victim that can use none of them.
func TestNoUsableFlips(t *testing.T) {
	s := session(t, arch.RaptorLake(), "M1", 42)
	res, err := (chain.Plan{Regions: 6, DurationPerLocationNS: 1e8}).Run(s)
	var nt *chain.NoTargetsError
	if !errors.As(err, &nt) {
		t.Fatalf("M1 chain: err = %v, want NoTargetsError", err)
	}
	if nt.TotalFlips != 0 || res.TotalFlips != 0 {
		t.Errorf("M1 templating flipped %d/%d bits, want 0", nt.TotalFlips, res.TotalFlips)
	}

	s = session(t, arch.RaptorLake(), "S3", 42)
	eng := chain.Engine{
		Allocator: chain.BuddyAllocator{},
		Hammerer:  &chain.PatternHammerer{Label: "rho", Pattern: chain.CompactPattern(), Config: hammer.RecommendedSingleBank(s.Arch)},
		Victim:    pickyVictim{},
	}
	res, err = eng.Run(s, chain.RunOptions{Regions: 6, DurationPerLocationNS: 1e8})
	if !errors.As(err, &nt) {
		t.Fatalf("picky victim: err = %v, want NoTargetsError", err)
	}
	if nt.TotalFlips == 0 || res.TotalFlips == 0 {
		t.Error("picky-victim case found no flips at all; the test wants flips the victim rejects")
	}
}

// TestExhaustedTargets uses a victim whose attempts always fail: the
// chain must try every target and return ExhaustedError.
func TestExhaustedTargets(t *testing.T) {
	s := session(t, arch.RaptorLake(), "S3", 42)
	eng := chain.Engine{
		Allocator: chain.BuddyAllocator{},
		Hammerer:  &chain.PatternHammerer{Label: "rho", Pattern: chain.CompactPattern(), Config: hammer.RecommendedSingleBank(s.Arch)},
		Victim:    hopelessVictim{},
	}
	res, err := eng.Run(s, chain.RunOptions{Regions: 6, DurationPerLocationNS: 1e8})
	var ex *chain.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if res.Attempts != len(res.Targets) || ex.Attempts != res.Attempts {
		t.Errorf("attempts %d (err says %d), want one per target (%d)",
			res.Attempts, ex.Attempts, len(res.Targets))
	}
	if res.Success {
		t.Error("success flag set after exhaustion")
	}
}

// TestRetriggerErrorAborts uses a victim whose re-trigger machinery
// fails hard: the chain must abort with a typed RetriggerError that
// unwraps to the cause.
func TestRetriggerErrorAborts(t *testing.T) {
	s := session(t, arch.RaptorLake(), "S3", 42)
	cause := errors.New("device wedged")
	eng := chain.Engine{
		Allocator: chain.BuddyAllocator{},
		Hammerer:  &chain.PatternHammerer{Label: "rho", Pattern: chain.CompactPattern(), Config: hammer.RecommendedSingleBank(s.Arch)},
		Victim:    brokenVictim{cause: cause},
	}
	res, err := eng.Run(s, chain.RunOptions{Regions: 6, DurationPerLocationNS: 1e8})
	var re *chain.RetriggerError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RetriggerError", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("RetriggerError does not unwrap to the cause: %v", err)
	}
	if res.Attempts != 1 {
		t.Errorf("chain kept going after a re-trigger failure: %d attempts", res.Attempts)
	}
}

// TestCompactPatternSkippedOnTHP pins the window guard: the 14-row
// compact pattern cannot fit a 2 MiB region's 8-row window, so every
// THP region must be Skipped rather than hammered out of bounds.
func TestCompactPatternSkippedOnTHP(t *testing.T) {
	s := session(t, arch.RaptorLake(), "S3", 42)
	eng := chain.Engine{
		Allocator: chain.THPAllocator{},
		Hammerer:  &chain.PatternHammerer{Label: "rho", Pattern: chain.CompactPattern(), Config: hammer.RecommendedSingleBank(s.Arch)},
		Victim:    chain.PTEVictim{},
	}
	res, err := eng.Run(s, chain.RunOptions{Regions: 6, DurationPerLocationNS: 1e8})
	var nt *chain.NoTargetsError
	if !errors.As(err, &nt) {
		t.Fatalf("err = %v, want NoTargetsError (all regions skipped)", err)
	}
	if res.Skipped != res.Regions || res.TotalFlips != 0 {
		t.Errorf("skipped %d of %d regions with %d flips; want all skipped, none hammered",
			res.Skipped, res.Regions, res.TotalFlips)
	}
}

// TestHugePatternFitsTHPWindow pins the pattern/allocator pairing: the
// huge pattern's footprint (aggressors at MaxOffset, victims two rows
// above) must fit the 8-row window of a 2 MiB region.
func TestHugePatternFitsTHPWindow(t *testing.T) {
	p := chain.HugePattern()
	if err := p.Validate(); err != nil {
		t.Fatalf("huge pattern invalid: %v", err)
	}
	if got := p.MaxOffset() + 3; got > 8 {
		t.Errorf("huge pattern needs %d rows, window is 8", got)
	}
}

// TestCompactPatternFitsRegion pins the buddy pairing: a 4 MiB region
// spans 16 consecutive rows per bank on the 16 GiB mappings (row bits
// 18-21 inside the region), and the compact pattern must fit them.
func TestCompactPatternFitsRegion(t *testing.T) {
	p := chain.CompactPattern()
	if err := p.Validate(); err != nil {
		t.Fatalf("compact pattern invalid: %v", err)
	}
	if got := p.MaxOffset() + 3; got > 16 {
		t.Errorf("compact pattern needs %d rows, window is 16", got)
	}
}

// TestPTEVictimClassify pins the PTE-bit classification: a flip's bit
// within its 8-byte PTE is (ByteInRow%8)*8 + Bit, only bits inside
// [PFNLo, PFNHi] become targets, and targets keep templating order and
// the flip's physical address.
func TestPTEVictimClassify(t *testing.T) {
	s := session(t, arch.RaptorLake(), "S3", 42)
	cases := []struct {
		byteInRow   int
		bit         uint8
		pteBit      int
		exploitable bool
	}{
		{0, 0, 0, false},  // flags byte
		{1, 4, 12, true},  // lowest PFN bit
		{2, 3, 19, true},  // highest exploitable bit
		{2, 4, 20, false}, // just above the range
		{9, 4, 12, true},  // second PTE in the row
		{7, 7, 63, false}, // NX bit
	}
	var v chain.PTEVictim
	var flips []chain.Flip
	var wantBits []int
	for _, c := range cases {
		f := dram.Flip{Bank: 1, Row: 100, ByteInRow: c.byteInRow, Bit: c.bit}
		pa, err := s.Map.PhysAddr(f.Bank, f.Row, uint64(f.ByteInRow))
		if err != nil {
			t.Fatal(err)
		}
		cf := chain.Flip{Flip: f, PhysAddr: pa}
		flips = append(flips, cf)
		targets := v.Classify(s, []chain.Flip{cf})
		if got := len(targets) == 1; got != c.exploitable {
			t.Errorf("byte %d bit %d: exploitable = %v, want %v", c.byteInRow, c.bit, got, c.exploitable)
			continue
		}
		if c.exploitable {
			wantBits = append(wantBits, c.pteBit)
			if targets[0].Bit != c.pteBit {
				t.Errorf("byte %d bit %d: PTE bit = %d, want %d", c.byteInRow, c.bit, targets[0].Bit, c.pteBit)
			}
		}
	}
	var gotBits []int
	for _, tg := range v.Classify(s, flips) {
		gotBits = append(gotBits, tg.Bit)
		if s.Map.Bank(tg.Flip.PhysAddr) != 1 || s.Map.Row(tg.Flip.PhysAddr) != 100 {
			t.Errorf("target physical address %#x does not decode back to bank 1 row 100", tg.Flip.PhysAddr)
		}
	}
	if !reflect.DeepEqual(gotBits, wantBits) {
		t.Errorf("targets carry PTE bits %v, want %v in templating order", gotBits, wantBits)
	}
}

// TestReproduced checks the location-stability match: same bank, row,
// byte and bit.
func TestReproduced(t *testing.T) {
	f := dram.Flip{Bank: 1, Row: 2, ByteInRow: 3, Bit: 4}
	if !chain.Reproduced([]dram.Flip{{}, f}, f) {
		t.Error("matching flip not found")
	}
	if chain.Reproduced([]dram.Flip{{Bank: 1, Row: 2, ByteInRow: 3, Bit: 5}}, f) {
		t.Error("different bit matched")
	}
}

// TestPlanBlockedByPTRR runs the paper's triple with the platform pTRR
// mitigation on: the chain must not reach page-table read/write.
func TestPlanBlockedByPTRR(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chains")
	}
	s := session(t, arch.RaptorLake(), "S3", 42)
	s.EnablePTRR(true)
	res, err := (chain.Plan{Regions: 6}).Run(s)
	if err == nil || res.Success {
		t.Errorf("chain succeeded under pTRR (flips %d)", res.TotalFlips)
	}
}

// TestGridCompositionsSucceed runs the full 2x2x2 grid on the platform
// the chain campaign uses for its rho cells: every ρHammer composition
// must complete end to end (the load baseline is covered by the grid
// golden, where it fails on the new architecture by design).
func TestGridCompositionsSucceed(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chains")
	}
	for _, al := range chain.Allocators() {
		for _, v := range chain.Victims() {
			p := chain.Plan{Allocator: al, Hammerer: "rho", Victim: v, Regions: 8}
			t.Run(p.Key(), func(t *testing.T) {
				s := session(t, arch.RaptorLake(), "S3", 42)
				res, err := p.Run(s)
				if err != nil {
					t.Fatalf("chain failed: %v (flips %d, targets %d)", err, res.TotalFlips, len(res.Targets))
				}
				if !res.Success || res.Frame == 0 {
					t.Errorf("no success: %+v", res)
				}
				if res.Phases.TotalNS() <= 0 || res.Phases.AllocNS <= 0 {
					t.Errorf("phase timings missing: %+v", res.Phases)
				}
				if p.Key() == "buddy-rho-pte" {
					checkSelfReference(t, s, res)
				}
			})
		}
	}
}

// TestEndToEndSucceedsOnRaptor runs the paper's §5.3 triple at the
// legacy end-to-end budget (10 regions, 150 ms per location): the chain
// must succeed with templated flips, spend simulated time outside
// templating, and corrupt a PTE into a self-reference.
func TestEndToEndSucceedsOnRaptor(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chains")
	}
	s := session(t, arch.RaptorLake(), "S3", 42)
	res, err := (chain.Plan{Regions: 10, DurationPerLocationNS: 150e6}).Run(s)
	if err != nil {
		t.Fatalf("chain failed: %v (flips %d, targets %d)", err, res.TotalFlips, len(res.Targets))
	}
	if !res.Success {
		t.Fatal("no success flag")
	}
	if res.TotalFlips == 0 || len(res.Targets) == 0 {
		t.Error("templating stats empty on success")
	}
	if res.Phases.TotalNS() <= res.Phases.TemplateNS {
		t.Error("massaging time missing")
	}
	checkSelfReference(t, s, res)
}

// checkSelfReference asserts the §5.3 outcome of a successful pte
// chain: the corrupted PTE maps the page-table page it lives in, every
// target's physical address decodes back to its flip, and the
// exploitable share of templated flips is plausible.
func checkSelfReference(t *testing.T, s *hammer.Session, res chain.Result) {
	t.Helper()
	if res.Value>>12 != res.Frame {
		t.Errorf("corrupt PTE frame %#x != page-table frame %#x", res.Value>>12, res.Frame)
	}
	if res.Addr/4096 != res.Frame {
		t.Errorf("victim PTE %#x not inside the page-table frame %#x", res.Addr, res.Frame)
	}
	for _, tg := range res.Targets {
		if s.Map.Bank(tg.Flip.PhysAddr) != tg.Flip.Bank || s.Map.Row(tg.Flip.PhysAddr) != tg.Flip.Row {
			t.Errorf("target physical address %#x does not decode back to bank %d row %d",
				tg.Flip.PhysAddr, tg.Flip.Bank, tg.Flip.Row)
		}
	}
	// The PFN sub-range covers 8 of the 64 PTE bits; allow a broad band
	// around that share.
	if share := float64(len(res.Targets)) / float64(res.TotalFlips); share < 0.01 || share > 0.4 {
		t.Errorf("exploitable share %.2f implausible", share)
	}
}

// TestPlanRunDeterminism pins the determinism contract at the plan
// level: identical (platform, DIMM, seed, plan) must produce deeply
// equal results in fresh sessions.
func TestPlanRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chains")
	}
	p := chain.Plan{Allocator: "thp", Hammerer: "rho", Victim: "key", Regions: 6, DurationPerLocationNS: 1e8}
	a := session(t, arch.RaptorLake(), "S3", 7)
	b := session(t, arch.RaptorLake(), "S3", 7)
	ra, ea := p.Run(a)
	rb, eb := p.Run(b)
	if fmt.Sprint(ea) != fmt.Sprint(eb) {
		t.Fatalf("errors differ: %v vs %v", ea, eb)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("results differ across identical sessions:\n%+v\n%+v", ra, rb)
	}
}

// pickyVictim classifies nothing.
type pickyVictim struct{}

func (pickyVictim) Name() string                                          { return "picky" }
func (pickyVictim) Classify(*hammer.Session, []chain.Flip) []chain.Target { return nil }
func (pickyVictim) Attempt(*hammer.Session, chain.Hammerer, chain.Target, float64) (chain.Attempt, error) {
	return chain.Attempt{}, nil
}

// hopelessVictim targets every flip but never succeeds.
type hopelessVictim struct{}

func (hopelessVictim) Name() string { return "hopeless" }
func (hopelessVictim) Classify(_ *hammer.Session, flips []chain.Flip) []chain.Target {
	out := make([]chain.Target, len(flips))
	for i, f := range flips {
		out[i] = chain.Target{Flip: f}
	}
	return out
}
func (hopelessVictim) Attempt(*hammer.Session, chain.Hammerer, chain.Target, float64) (chain.Attempt, error) {
	return chain.Attempt{TimeNS: 1}, nil
}

// brokenVictim fails its first re-trigger hard.
type brokenVictim struct{ cause error }

func (brokenVictim) Name() string { return "broken" }
func (brokenVictim) Classify(_ *hammer.Session, flips []chain.Flip) []chain.Target {
	out := make([]chain.Target, len(flips))
	for i, f := range flips {
		out[i] = chain.Target{Flip: f}
	}
	return out
}
func (v brokenVictim) Attempt(*hammer.Session, chain.Hammerer, chain.Target, float64) (chain.Attempt, error) {
	return chain.Attempt{}, v.cause
}
