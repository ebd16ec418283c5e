package mem

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"rhohammer/internal/stats"
)

func TestPoolShare(t *testing.T) {
	r := stats.NewRand(1)
	p := NewPool(1<<28, 0.7, r) // 256 MiB
	pages := 1 << 28 / PageSize
	want := int(float64(pages) * 0.7)
	if p.Pages() != want {
		t.Errorf("pages = %d, want %d", p.Pages(), want)
	}
}

// TestPoolPinned pins NewPool's output byte for byte. Each case hashes
// the allocation order (one little-endian uint64 per entry), the
// membership of every frame, and the next Int63 of the caller's source:
// the measurer keeps drawing from that source, so a construction that
// consumed a different number of draws would shift every recovery
// after it even if the pool came out the same.
func TestPoolPinned(t *testing.T) {
	for _, c := range []struct {
		bytes uint64
		share float64
		seed  int64
		want  string
	}{
		{1 << 26, 1.0, 21, "e8e13af6db8fb5407387a1586e3cf301d773f900bf4f10a9084ab74e19097298"}, // last draw is Int63n(1)
		{1 << 28, 0.3, 22, "1df8f4bf9361567a78d01e498dda0981b727085e9f703ec53b7ceefa05f54422"},
		{1 << 30, 0.7, 23, "ea2ad7ac230157b8ce68ad6a92db1539b485520fd0772543e7427e0e6fc22ed2"},
		{1 << 34, 0.7, 24, "cf1c090bc95f33cf9ed19244696575a2080235c7ddbaad50fd756950f00d6026"},
	} {
		t.Run(fmt.Sprintf("%dMiB@%.1f", c.bytes>>20, c.share), func(t *testing.T) {
			r := stats.NewRand(c.seed)
			p := NewPool(c.bytes, c.share, r)
			buf := make([]byte, 0, 8*len(p.allocIdx)+int(c.bytes/PageSize)+8)
			for _, f := range p.allocIdx {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(f))
			}
			for f := uint64(0); f < c.bytes/PageSize; f++ {
				if p.Has(f * PageSize) {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Int63()))
			if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != c.want {
				t.Errorf("pool hash = %s, want %s (pages=%d)", got, c.want, p.Pages())
			}
		})
	}
}

func TestPoolHasAndRandom(t *testing.T) {
	r := stats.NewRand(2)
	p := NewPool(1<<26, 0.5, r)
	for i := 0; i < 1000; i++ {
		a := p.RandomAddr()
		if !p.Has(a) {
			t.Fatalf("RandomAddr returned unallocated %#x", a)
		}
		if a >= p.PhysBytes {
			t.Fatalf("RandomAddr out of range %#x", a)
		}
		if a%64 != 0 {
			t.Fatalf("RandomAddr not line-aligned %#x", a)
		}
	}
	if p.Has(p.PhysBytes + PageSize) {
		t.Error("Has beyond range")
	}
}

func TestPairDifferingIn(t *testing.T) {
	r := stats.NewRand(3)
	p := NewPool(1<<30, 0.7, r)
	for _, mask := range []uint64{1 << 6, 1 << 18, 1<<14 | 1<<18, 1<<6 | 1<<13 | 1<<20 | 1<<25} {
		a, b, ok := p.PairDifferingIn(mask)
		if !ok {
			t.Fatalf("no pair for mask %#x", mask)
		}
		if a^b != mask {
			t.Errorf("pair differs in %#x, want %#x", a^b, mask)
		}
		if !p.Has(a) || !p.Has(b) {
			t.Error("pair members not allocated")
		}
	}
}

func TestPairDifferingInRejectsBadMasks(t *testing.T) {
	r := stats.NewRand(4)
	p := NewPool(1<<26, 0.7, r)
	if _, _, ok := p.PairDifferingIn(0); ok {
		t.Error("zero mask accepted")
	}
	if _, _, ok := p.PairDifferingIn(1 << 40); ok {
		t.Error("mask beyond pool accepted")
	}
}

// TestPoolPanics checks every rejected argument panics with a mem:
// message at construction, before anything is allocated or drawn.
func TestPoolPanics(t *testing.T) {
	r := stats.NewRand(5)
	for name, f := range map[string]func(){
		"unaligned":        func() { NewPool(12345, 0.5, r) },
		"zero share":       func() { NewPool(1<<20, 0, r) },
		"share above 1":    func() { NewPool(1<<20, 1.5, r) },
		"no page selected": func() { NewPool(PageSize, 0.5, r) },
		"empty space":      func() { NewPool(0, 1, r) },
		"over 2^32 frames": func() { NewPool((1<<32+1)*PageSize, 0.7, r) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "mem: ") {
					t.Errorf("%s: recovered %q, want a mem: panic", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestPoolAbove4GiB checks frame indices widen before they scale to
// addresses: on a 16 GiB pool three quarters of the frames lie above
// 4 GiB, and RandomAddr, Has and PairDifferingIn must all reach them.
func TestPoolAbove4GiB(t *testing.T) {
	r := stats.NewRand(15)
	p := NewPool(1<<34, 0.7, r)
	high := 0
	for i := 0; i < 1000; i++ {
		a := p.RandomAddr()
		if a >= p.PhysBytes || !p.Has(a) {
			t.Fatalf("RandomAddr returned %#x: outside the pool or not allocated", a)
		}
		if a >= 1<<32 {
			high++
		}
	}
	if high < 600 {
		t.Errorf("%d of 1000 addresses above 4 GiB, want about 750", high)
	}
	// Has holds for exactly the drawn frames: each of them, and no more
	// frames than were drawn.
	for _, f := range p.allocIdx {
		if !p.Has(uint64(f)*PageSize + PageSize - 1) {
			t.Fatalf("drawn frame %#x not reported allocated", f)
		}
	}
	allocated := 0
	for pa := uint64(0); pa < p.PhysBytes; pa += PageSize {
		if p.Has(pa) {
			allocated++
		}
	}
	if allocated != p.Pages() {
		t.Errorf("Has reports %d frames, pool holds %d", allocated, p.Pages())
	}
	if p.Has(p.PhysBytes) || p.Has(1<<40) {
		t.Error("Has beyond the pool")
	}
	for try := 0; try < 16; try++ {
		a, b, ok := p.PairDifferingIn(1 << 33)
		if !ok {
			t.Fatal("no pair differing in bit 33")
		}
		if a^b != 1<<33 || !p.Has(a) || !p.Has(b) {
			t.Fatalf("pair %#x/%#x: want an allocated pair differing in bit 33", a, b)
		}
	}
}

// Property: pairs always differ in exactly the requested mask.
func TestPairMaskProperty(t *testing.T) {
	r := stats.NewRand(6)
	p := NewPool(1<<30, 0.7, r)
	f := func(rawBits [3]uint8) bool {
		var mask uint64
		for _, b := range rawBits {
			mask |= 1 << (6 + uint(b)%24)
		}
		a, b, ok := p.PairDifferingIn(mask)
		return !ok || a^b == mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuddyAllocSplit(t *testing.T) {
	r := stats.NewRand(7)
	b := NewBuddy(1<<24, r) // 16 MiB = 4 max-order blocks
	if b.FreePages() != 1<<24/PageSize {
		t.Fatalf("initial free pages = %d", b.FreePages())
	}
	base, err := b.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if base%PageSize != 0 {
		t.Errorf("unaligned order-0 block %#x", base)
	}
	if b.FreePages() != 1<<24/PageSize-1 {
		t.Errorf("free pages after order-0 alloc = %d", b.FreePages())
	}
}

func TestBuddyAlignment(t *testing.T) {
	r := stats.NewRand(8)
	b := NewBuddy(1<<24, r)
	for order := 0; order <= MaxOrder; order++ {
		base, err := b.Alloc(order)
		if err != nil {
			t.Fatal(err)
		}
		if base%BlockBytes(order) != 0 {
			t.Errorf("order-%d block %#x misaligned", order, base)
		}
	}
}

func TestBuddyFreeCoalesces(t *testing.T) {
	r := stats.NewRand(9)
	b := NewBuddy(1<<24, r)
	var blocks []uint64
	// Fragment the allocator fully at order 0.
	for {
		base, err := b.Alloc(0)
		if err != nil {
			break
		}
		blocks = append(blocks, base)
	}
	if b.FreePages() != 0 {
		t.Fatalf("allocator not exhausted: %d free", b.FreePages())
	}
	for _, base := range blocks {
		if err := b.Free(base); err != nil {
			t.Fatal(err)
		}
	}
	if b.FreePages() != 1<<24/PageSize {
		t.Errorf("free pages after full free = %d", b.FreePages())
	}
	// Everything must have coalesced back to max order.
	if _, err := b.Alloc(MaxOrder); err != nil {
		t.Errorf("max-order alloc after coalescing: %v", err)
	}
}

func TestBuddyDoubleFree(t *testing.T) {
	r := stats.NewRand(10)
	b := NewBuddy(1<<24, r)
	base, _ := b.Alloc(3)
	if err := b.Free(base); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(base); err == nil {
		t.Error("double free accepted")
	}
}

func TestBuddyExhaustion(t *testing.T) {
	r := stats.NewRand(11)
	b := NewBuddy(1<<22, r) // one max-order block
	if _, err := b.Alloc(MaxOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(0); err == nil {
		t.Error("allocation from empty allocator succeeded")
	}
	if _, err := b.Alloc(MaxOrder + 1); err == nil {
		t.Error("over-max order accepted")
	}
}

func TestDrainToContiguous(t *testing.T) {
	r := stats.NewRand(12)
	b := NewBuddy(1<<26, r) // 16 max-order blocks
	// Pre-fragment a little.
	for i := 0; i < 5; i++ {
		b.Alloc(3)
	}
	regions, err := b.DrainToContiguous(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("got %d regions", len(regions))
	}
	for i, base := range regions {
		if base%BlockBytes(MaxOrder) != 0 {
			t.Errorf("region %d misaligned: %#x", i, base)
		}
		if i > 0 && regions[i] <= regions[i-1] {
			t.Error("regions not ascending")
		}
	}
	// After draining, nothing below max order remains free.
	if b.FreePages()%(1<<MaxOrder) != 0 {
		t.Errorf("sub-max fragments remain: %d pages", b.FreePages())
	}
}

func TestAllocAt(t *testing.T) {
	r := stats.NewRand(13)
	b := NewBuddy(1<<24, r)
	base, _ := b.Alloc(0)
	if err := b.Free(base); err != nil {
		t.Fatal(err)
	}
	// The freed block coalesced upward; carve back down to order 0 by
	// allocating and freeing a neighbor... simpler: AllocAt on a block
	// that is free at a known order.
	b2 := NewBuddy(1<<24, r)
	base2, _ := b2.Alloc(0) // splits a max block: its buddy at order 0 is free
	if !b2.AllocAt(base2^PageSize, 0) {
		t.Error("AllocAt on known-free buddy failed")
	}
	if b2.AllocAt(base2, 0) {
		t.Error("AllocAt on allocated block succeeded")
	}
}

// Property: free pages are conserved across alloc/free cycles.
func TestBuddyConservationProperty(t *testing.T) {
	r := stats.NewRand(14)
	f := func(orders []uint8) bool {
		b := NewBuddy(1<<24, r)
		total := b.FreePages()
		var allocated []uint64
		var pages uint64
		for _, o := range orders {
			order := int(o) % (MaxOrder + 1)
			base, err := b.Alloc(order)
			if err != nil {
				continue
			}
			allocated = append(allocated, base)
			pages += 1 << order
		}
		if b.FreePages()+pages != total {
			return false
		}
		for _, base := range allocated {
			if b.Free(base) != nil {
				return false
			}
		}
		return b.FreePages() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBlockBytes(t *testing.T) {
	if BlockBytes(0) != PageSize {
		t.Error("order 0 size")
	}
	if BlockBytes(MaxOrder) != 4<<20 {
		t.Errorf("max order = %d bytes, want 4 MiB", BlockBytes(MaxOrder))
	}
	if bits.OnesCount64(BlockBytes(5)) != 1 {
		t.Error("block sizes must be powers of two")
	}
}

var poolSink *Pool

// BenchmarkNewPool builds the 70% attacker pool at the three capacities
// the remap workload recovers: 2, 4 and 8 Mi frames.
func BenchmarkNewPool(b *testing.B) {
	for _, gib := range []uint64{8, 16, 32} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			b.ReportAllocs()
			r := stats.NewRand(1)
			for i := 0; i < b.N; i++ {
				poolSink = NewPool(gib<<30, 0.7, r)
			}
		})
	}
}
