package dram

import (
	"sort"
	"testing"
)

// Differential fuzzing of the two scratch-buffer data structures on the
// device hot path, each against a naive re-derivation written in the
// plainest possible style. The production implementations earn their
// speed with reused buffers (trrSampler) and open addressing
// (ptrrTable); these fuzzers are what licenses that complexity.

// naiveSampler mirrors trrSampler's policy with fresh allocations and a
// straight sort: first-capacity-distinct tracking, top-n by (count
// desc, position asc), swap-with-last removal.
type naiveSampler struct {
	capacity int
	keys     []uint64
	counts   []int
}

func (s *naiveSampler) observe(key uint64) {
	for i, k := range s.keys {
		if k == key {
			s.counts[i]++
			return
		}
	}
	if len(s.keys) < s.capacity {
		s.keys = append(s.keys, key)
		s.counts = append(s.counts, 1)
	}
}

func (s *naiveSampler) top(n int) []uint64 {
	if n <= 0 || len(s.keys) == 0 {
		return nil
	}
	if n > len(s.keys) {
		n = len(s.keys)
	}
	pos := make([]int, len(s.keys))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		i, j := pos[a], pos[b]
		if s.counts[i] != s.counts[j] {
			return s.counts[i] > s.counts[j]
		}
		return i < j
	})
	out := make([]uint64, n)
	for k := range out {
		out[k] = s.keys[pos[k]]
	}
	return out
}

func (s *naiveSampler) popTop(n int) []uint64 {
	out := s.top(n)
	for _, key := range out {
		for i, k := range s.keys {
			if k == key {
				last := len(s.keys) - 1
				s.keys[i], s.keys[last] = s.keys[last], s.keys[i]
				s.counts[i], s.counts[last] = s.counts[last], s.counts[i]
				s.keys = s.keys[:last]
				s.counts = s.counts[:last]
				break
			}
		}
	}
	return out
}

func (s *naiveSampler) clear() {
	s.keys = s.keys[:0]
	s.counts = s.counts[:0]
}

func sameKeys(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzTRRSampler drives trrSampler and naiveSampler through the same
// op stream — observe / top / popTop / clear — and requires identical
// selections at every step. A second pair checks the stamped entry
// point the device uses: sample, keyed by per-row states, against a
// naive mirror that observes the same keys. That pair sees every op but
// popTop (RFM only, through observe), and each clear starts a new
// interval, as a REF does.
func FuzzTRRSampler(f *testing.F) {
	f.Add([]byte{0x01, 0x01, 0x11, 0x21, 0x02, 0x01, 0x03})
	f.Add([]byte{0x41, 0x41, 0x51, 0x51, 0x51, 0x12, 0x41, 0x22})
	f.Add([]byte{0x01, 0x11, 0x21, 0x31, 0x41, 0x51, 0x61, 0x71, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%12)
		fast := newTRRSampler(capacity)
		ref := naiveSampler{capacity: capacity}
		stamped := newTRRSampler(capacity)
		stampedRef := naiveSampler{capacity: capacity}
		var rows [16]rowState
		iv := uint64(1)
		for i := 1; i < len(data); i++ {
			b := data[i]
			switch b & 3 {
			case 0:
				// top must not mutate: compare, then compare again.
				n := int(b>>2) % 6
				got := append([]uint64(nil), fast.top(n)...)
				want := ref.top(n)
				if !sameKeys(got, want) {
					t.Fatalf("op %d: top(%d) = %v, naive = %v", i, n, got, want)
				}
				if got, want := stamped.top(n), stampedRef.top(n); !sameKeys(got, want) {
					t.Fatalf("op %d: stamped top(%d) = %v, naive = %v", i, n, got, want)
				}
			case 1:
				key := uint64(b >> 2 & 15)
				fast.observe(key)
				ref.observe(key)
				stamped.sample(&rows[key], key, iv)
				stampedRef.observe(key)
			case 2:
				n := int(b>>2) % 6
				got := append([]uint64(nil), fast.popTop(n)...)
				want := ref.popTop(n)
				if !sameKeys(got, want) {
					t.Fatalf("op %d: popTop(%d) = %v, naive = %v", i, n, got, want)
				}
				if fast.size() != len(ref.keys) {
					t.Fatalf("op %d: sizes diverged after popTop: %d vs %d", i, fast.size(), len(ref.keys))
				}
			case 3:
				fast.clear()
				ref.clear()
				stamped.clear()
				stampedRef.clear()
				iv++
			}
		}
		if got, want := fast.top(16), ref.top(16); !sameKeys(got, want) {
			t.Fatalf("final top(16) = %v, naive = %v", got, want)
		}
		if got, want := stamped.top(16), stampedRef.top(16); !sameKeys(got, want) {
			t.Fatalf("final stamped top(16) = %v, naive = %v", got, want)
		}
	})
}

// FuzzPTRRTable drives the open-addressing ptrrTable and a map+log
// naive counter through the same add / hot / clear stream. Keys are
// masked below the ptrrTag bit, which real (bank,row) keys never set.
func FuzzPTRRTable(f *testing.F) {
	f.Add([]byte{0x05, 0x05, 0x15, 0x02, 0x05, 0x03})
	f.Add([]byte{0x45, 0x45, 0x45, 0x55, 0x55, 0x65, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast ptrrTable
		fast.init()
		naiveCounts := map[uint64]int32{}
		var naiveOrder []uint64
		for i := 0; i < len(data); i++ {
			b := data[i]
			switch b & 3 {
			case 0:
				floor := int32(b>>2) % 5
				got := fast.hot(floor)
				var want []ptrrEntry
				for _, k := range naiveOrder {
					if naiveCounts[k] >= floor {
						want = append(want, ptrrEntry{key: k, count: naiveCounts[k]})
					}
				}
				if len(got) != len(want) {
					t.Fatalf("op %d: hot(%d) has %d entries, naive %d", i, floor, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("op %d: hot(%d)[%d] = %+v, naive %+v", i, floor, j, got[j], want[j])
					}
				}
			case 3:
				fast.clear()
				naiveCounts = map[uint64]int32{}
				naiveOrder = naiveOrder[:0]
			default:
				// Spread keys across both the row bits and the bank
				// bits the table hashes on; bit 63 (ptrrTag) stays 0.
				key := uint64(b>>2) | uint64(b&0x30)<<44
				fast.add(key)
				if naiveCounts[key] == 0 {
					naiveOrder = append(naiveOrder, key)
				}
				naiveCounts[key]++
			}
		}
	})
}

// TestPTRRTableGrowth forces the open-addressing table through several
// grow() cycles and checks insertion order and counts survive.
func TestPTRRTableGrowth(t *testing.T) {
	var tab ptrrTable
	tab.init()
	const n = 4000 // > ptrrInitSize/2, forces multiple doublings
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			tab.add(uint64(i))
			tab.add(uint64(i))
		}
		hot := tab.hot(2)
		if len(hot) != n {
			t.Fatalf("round %d: hot(2) has %d entries, want %d", round, len(hot), n)
		}
		for i, e := range hot {
			if e.key != uint64(i) || e.count != 2 {
				t.Fatalf("round %d: hot[%d] = %+v, want key=%d count=2", round, i, e, i)
			}
		}
		tab.clear()
		if got := tab.hot(0); len(got) != 0 {
			t.Fatalf("round %d: table not empty after clear: %d entries", round, len(got))
		}
	}
}
