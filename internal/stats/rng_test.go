package stats

import (
	"math"
	"math/rand"
	"testing"
)

// The stream guard. Rand's Float64 runs on a copy of math/rand's source
// (rng.go), and the interpreted and compiled executors both draw
// through it, so the payload differential cannot catch a wrong draw:
// both sides would share it. These tests hold Rand to math/rand itself,
// over every method non-test code calls.

// streamSeeds are the seeds whose reduction modulo 2³¹−1 takes every
// branch of the source's Seed: zero, positive, negative, the int64
// extremes, an exact multiple of 2³¹−1 (reduced to zero and replaced),
// and seeds as the campaign derives them.
var streamSeeds = []int64{
	0, 1, 42, -1, math.MinInt64, math.MaxInt64,
	3 * (1<<31 - 1), -5 * (1<<31 - 1),
	SplitSeed(42, "fuzzer"), SplitSeed(1, "Raptor Lake/S1/rho-M"),
}

// streamNs are the bounds the ops draw Int63n and Intn against: powers
// of two (the masked path), small and large odd bounds, both sides of
// 2³¹ (where Intn switches from Int31n to Int63n) and bounds near 2⁶³,
// whose rejection loops draw more than once.
var streamNs = []int64{
	1, 2, 3, 7, 10, 64, 100, 1000, 1 << 20, 1<<30 + 1,
	1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<40 + 3, 1<<62 + 1, math.MaxInt64,
}

// matchStream runs ops against a Rand and a math/rand generator of the
// same seed and fails at the first differing value. Each op byte picks
// one of the seven methods and, for the bounded ones, its argument.
func matchStream(t testing.TB, seed int64, ops []byte) {
	t.Helper()
	got, want := NewRand(seed), rand.New(rand.NewSource(seed))
	var gotPerm, wantPerm [32]int
	for i, b := range ops {
		n := streamNs[int(b/7)%len(streamNs)]
		var g, w uint64
		switch b % 7 {
		case 0:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2:
			g, w = uint64(got.Int63n(n)), uint64(want.Int63n(n))
		case 3:
			g, w = uint64(got.Intn(int(n))), uint64(want.Intn(int(n)))
		case 4:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 5:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		case 6:
			k := int(b/7) % (len(gotPerm) + 1)
			for j := range gotPerm {
				gotPerm[j], wantPerm[j] = j, j
			}
			got.Shuffle(k, func(x, y int) { gotPerm[x], gotPerm[y] = gotPerm[y], gotPerm[x] })
			want.Shuffle(k, func(x, y int) { wantPerm[x], wantPerm[y] = wantPerm[y], wantPerm[x] })
			if gotPerm != wantPerm {
				t.Fatalf("seed %d op %d: Shuffle(%d) = %v, math/rand %v", seed, i, k, gotPerm[:k], wantPerm[:k])
			}
			continue
		}
		if g != w {
			t.Fatalf("seed %d op %d (byte %#x): Rand drew %#x, math/rand %#x", seed, i, b, g, w)
		}
	}
}

// TestRandMatchesMathRand interleaves the seven methods for 2²⁰ ops per
// seed (2¹⁷ under -short, still 1.3 M ops over the seeds) and requires
// every value to equal math/rand's.
func TestRandMatchesMathRand(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 17
	}
	// The op order comes from a generator of its own, so it is
	// independent of the streams under test.
	ops := make([]byte, n)
	rand.New(rand.NewSource(0x5eed)).Read(ops)
	for _, seed := range streamSeeds {
		matchStream(t, seed, ops)
	}
}

// TestNewRandAllocs pins NewRand at two objects: the Rand with its
// source held by value, and the *rand.Rand over it.
func TestNewRandAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { NewRand(1) }); n != 2 {
		t.Errorf("NewRand allocates %.0f objects, want 2", n)
	}
}

// FuzzRandStream requires any seed and any method sequence to draw
// exactly math/rand's values.
func FuzzRandStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		matchStream(t, seed, ops)
	})
}
