// Package stats provides small statistical utilities shared by the
// simulator and the experiment harness: deterministic random sources,
// summary statistics, and fixed-bin histograms.
//
// Everything in this package is purely computational and allocation-light;
// the hot paths of the DRAM and CPU models call into it millions of times
// per experiment. Rand is math/rand's generator over a concrete copy of
// its source (rng.go), so the executor's per-access draw inlines while
// the value stream stays exactly math/rand's.
package stats

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Rand is the random source used throughout the simulator. It draws
// exactly the stream rand.New(rand.NewSource(seed)) draws, method for
// method, from one state: the embedded *rand.Rand runs every method but
// Float64 as math/rand's own code over src, a copy of math/rand's
// lagged-Fibonacci source held in the same allocation, and Float64 is
// math/rand's expression called on src directly. The executor draws
// Float64 once or twice per access to a line a flush has evicted, so
// that draw makes no interface call and inlines into the loop.
type Rand struct {
	*rand.Rand
	src rngSource
}

// NewRand returns a deterministic random source for the given seed.
// Every experiment threads one of these through explicitly; the simulator
// never touches the global rand state, so runs are reproducible.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.src.Seed(seed)
	r.Rand = rand.New(&r.src)
	return r
}

// Float64 returns a pseudo-random number in [0.0,1.0): math/rand's
// Float64 over the concrete source, including its resample of the
// (practically unreachable) draw that rounds up to 1.0.
func (r *Rand) Float64() float64 {
again:
	f := float64(r.src.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// SplitSeed derives an independent child seed from a base seed and a
// textual key. The derivation is a pure function of (seed, key) — it
// does not consume any RNG state — so every consumer that knows its own
// key obtains the same stream no matter how many siblings exist, in
// what order they run, or on which goroutine. The campaign runner keys
// every grid cell this way to make parallel execution bit-identical to
// serial execution.
//
// Distinct keys yield decorrelated seeds (FNV-1a avalanches the key
// bytes over the seed); identical keys under different base seeds yield
// distinct streams.
func SplitSeed(seed int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// Gaussian draws from N(mean, stddev).
func Gaussian(r *Rand, mean, stddev float64) float64 {
	return r.NormFloat64()*stddev + mean
}

// LogNormal draws from a log-normal distribution where the underlying
// normal has the given mu and sigma. Used for per-cell RowHammer
// thresholds, which are heavily right-skewed on real DIMMs.
func LogNormal(r *Rand, mu, sigma float64) float64 {
	return math.Exp(r.NormFloat64()*sigma + mu)
}

// Summary holds order statistics for a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes summary statistics over xs. It copies and sorts the
// input; callers on hot paths should batch.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P99 = Percentile(sorted, 0.99)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Percentile returns the p-quantile (0 <= p <= 1) of a pre-sorted slice
// using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are clamped into the first/last bin so no observation is lost —
// the threshold-finding code depends on seeing the full mass.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	Total  int
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
	h.Total++
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Bins))
}

// Density returns the fraction of all samples that landed in bin i.
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.Total)
}

// Modes returns the bin centers of the two latency clusters ("assembly
// areas", Fig. 3): the global maximum (the abundant non-conflict
// cluster) and the strongest peak at a meaningfully separated position
// (the sparse row-conflict cluster), lowest first. ok is false when no
// second cluster with sufficient mass exists.
func (h *Histogram) Modes() (lo, hi float64, ok bool) {
	main := 0
	for i := range h.Bins {
		if h.Bins[i] > h.Bins[main] {
			main = i
		}
	}
	if h.Bins[main] == 0 {
		return 0, 0, false
	}
	// Require the second cluster to be separated from the first by at
	// least 5% of the histogram span and to hold non-trivial mass.
	minSep := len(h.Bins) / 20
	if minSep < 2 {
		minSep = 2
	}
	minMass := h.Total / 400
	if minMass < 2 {
		minMass = 2
	}
	second := -1
	for i := range h.Bins {
		if absInt(i-main) < minSep || h.Bins[i] < minMass {
			continue
		}
		if second < 0 || h.Bins[i] > h.Bins[second] {
			second = i
		}
	}
	if second < 0 {
		return 0, 0, false
	}
	a, b := main, second
	if a > b {
		a, b = b, a
	}
	return h.BinCenter(a), h.BinCenter(b), true
}

// ValleyBetween returns the center of the sparsest bin strictly between
// values a and b — the natural two-cluster separation threshold.
func (h *Histogram) ValleyBetween(a, b float64) float64 {
	if a > b {
		a, b = b, a
	}
	w := h.BinWidth()
	iA := int((a - h.Lo) / w)
	iB := int((b - h.Lo) / w)
	if iA < 0 {
		iA = 0
	}
	if iB >= len(h.Bins) {
		iB = len(h.Bins) - 1
	}
	best, bestCount := (a+b)/2, math.MaxInt
	for i := iA + 1; i < iB; i++ {
		if h.Bins[i] < bestCount {
			bestCount = h.Bins[i]
			best = h.BinCenter(i)
		}
	}
	return best
}

// String renders a compact ASCII sketch of the histogram, useful in the
// experiment harness output.
func (h *Histogram) String() string {
	var sb strings.Builder
	maxC := 0
	for _, c := range h.Bins {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Bins {
		if c == 0 {
			continue
		}
		bar := 1
		if maxC > 0 {
			bar = 1 + c*40/maxC
		}
		fmt.Fprintf(&sb, "%8.1f | %s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return sb.String()
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
