// Package mem models the attacker-visible memory-management surface:
// a pool of allocated 4 KiB pages with pagemap-style virtual-to-physical
// translation (root-only, as the paper assumes for the offline RE phase),
// and a Linux-like buddy allocator used by the end-to-end exploit to
// obtain physically contiguous 4 MiB regions without superpages.
package mem

import (
	"fmt"

	"rhohammer/internal/stats"
)

// PageSize is the base allocation granularity.
const PageSize = 4096

// Pool is a set of allocated physical 4 KiB frames covering a fraction
// of the machine's physical address space, as obtained by a userspace
// process that allocates aggressively and reads /proc/self/pagemap.
//
// A Pool stores its frames twice: allocIdx lists them in the order
// NewPool drew them, and frames is a bitset over the whole frame space.
// The draw order is part of the output, not an implementation detail:
// RandomAddr picks frames by position in allocIdx, and the caller's
// source continues from wherever construction left it, so drawing in a
// different order or a different number of times would change every
// address pair built on the pool.
type Pool struct {
	// PhysBytes is the size of the physical address space.
	PhysBytes uint64

	allocIdx []uint32 // allocated frame indices, in draw order
	frames   []uint64 // bitset: frame index -> allocated
	rand     *stats.Rand
}

// maxFrames is the largest frame space NewPool accepts: allocIdx holds
// uint32 frame indices, so 2^32 frames (16 TiB).
const maxFrames = 1 << 32

// drawChunk is how many shuffle draws NewPool takes before it runs
// their swaps: a 4 KiB stack array, and far more swaps than a core
// keeps loads in flight for.
const drawChunk = 1024

// NewPool allocates `share` (0..1] of a physical address space of the
// given size, choosing frames pseudo-randomly like a fragmented buddy
// allocator would. The paper's tool allocates 70%. It panics if the
// size is not page aligned or exceeds 2^32 frames, if share is out of
// range, or if share selects no page.
func NewPool(physBytes uint64, share float64, r *stats.Rand) *Pool {
	if physBytes%PageSize != 0 {
		panic("mem: physical size must be page aligned")
	}
	if share <= 0 || share > 1 {
		panic(fmt.Sprintf("mem: allocation share %v out of (0,1]", share))
	}
	n := physBytes / PageSize
	if n > maxFrames {
		panic(fmt.Sprintf("mem: %d frames exceed the %d-frame limit (16 TiB)", n, uint64(maxFrames)))
	}
	want := uint64(float64(n) * share)
	if want == 0 {
		panic(fmt.Sprintf("mem: share %v of %d frames selects no page", share, n))
	}
	// Sample distinct frames via a partial Fisher-Yates shuffle over
	// the frame index space. Positions below i are final after step i,
	// so the first want entries are the allocation order.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	// The draws do not depend on the shuffle, so they are taken a chunk
	// at a time (one Int63n(n-i) per selected page, in order, exactly
	// as in a plain loop) and the chunk's swaps then run back to back:
	// their random loads overlap instead of each one waiting behind the
	// draw that addresses it.
	var js [drawChunk]uint32
	for i := uint64(0); i < want; i += drawChunk {
		chunk := js[:min(want-i, drawChunk)]
		for k := range chunk {
			step := i + uint64(k)
			chunk[k] = uint32(step + uint64(r.Int63n(int64(n-step))))
		}
		for k, j := range chunk {
			step := i + uint64(k)
			perm[step], perm[j] = perm[j], perm[step]
		}
	}
	p := &Pool{
		PhysBytes: physBytes,
		allocIdx:  perm[:want:want],
		frames:    make([]uint64, (n+63)/64),
		rand:      r,
	}
	for _, f := range p.allocIdx {
		p.frames[f/64] |= 1 << (f % 64)
	}
	return p
}

// Pages returns the number of allocated pages.
func (p *Pool) Pages() int { return len(p.allocIdx) }

// Has reports whether the frame containing physical address pa is
// allocated to the attacker.
func (p *Pool) Has(pa uint64) bool {
	f := pa / PageSize
	return f/64 < uint64(len(p.frames)) && p.frames[f/64]&(1<<(f%64)) != 0
}

// RandomAddr returns a random allocated, cache-line aligned physical
// address.
func (p *Pool) RandomAddr() uint64 {
	f := uint64(p.allocIdx[p.rand.Intn(len(p.allocIdx))])
	line := uint64(p.rand.Intn(PageSize/64)) * 64
	return f*PageSize + line
}

// maxPairTries bounds the search for an allocated address pair; with a
// 70% pool the expected number of tries is ~2.
const maxPairTries = 4096

// PairDifferingIn returns a random allocated physical address pair that
// differs exactly in the bits of mask (all other bits equal). This is
// the T_SBDR(M, B_diff) selection primitive of Algorithm 1. ok is false
// if the pool cannot produce such a pair (e.g. mask reaches beyond the
// populated address space).
func (p *Pool) PairDifferingIn(mask uint64) (a, b uint64, ok bool) {
	if mask == 0 || mask >= p.PhysBytes {
		return 0, 0, false
	}
	for try := 0; try < maxPairTries; try++ {
		a = p.RandomAddr() &^ mask // canonical low form
		b = a | mask
		if b >= p.PhysBytes {
			continue
		}
		// Sub-page mask bits never affect frame allocation.
		if p.Has(a) && p.Has(b) {
			// Randomize which side is "a" to avoid bias.
			if p.rand.Intn(2) == 0 {
				return a, b, true
			}
			return b, a, true
		}
	}
	return 0, 0, false
}

// RandomPair returns two independent random allocated addresses, used by
// threshold finding and by the DRAMA-style baselines.
func (p *Pool) RandomPair() (uint64, uint64) {
	return p.RandomAddr(), p.RandomAddr()
}
