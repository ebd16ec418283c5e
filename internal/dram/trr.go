package dram

// trrSampler models the in-DRAM TRR aggressor sampler: a small table of
// candidate aggressor rows with activation counters, maintained between
// REF commands and cleared at each REF.
//
// The policy follows what TRRespass/Blacksmith reverse-engineered for
// vendor samplers: the table tracks the first C distinct rows activated
// after a REF (a hit increments the row's counter; when the table is
// full, new rows are simply not tracked), and at the next REF the
// neighborhoods of the top-counted entries are proactively refreshed.
//
// This deterministic, capacity-limited behaviour is exactly what
// non-uniform hammering exploits: decoy rows activated early and often
// in every interval own the table and the top-count slots, so the true
// aggressors — tracked but with strictly lower counts, or not tracked at
// all — are never selected for a targeted refresh. Conversely, when
// speculative disorder randomly drops a large fraction of accesses, the
// per-interval counts become noisy, the decoys' dominance breaks in some
// intervals, and the victims get refreshed often enough that no cell
// ever reaches its flip threshold — the mechanism by which disorder
// kills hammering on Alder/Raptor Lake.
type trrSampler struct {
	capacity int
	keys     []uint64
	counts   []int
	// idx and topBuf are scratch buffers reused by top(); the table is
	// consulted at every REF, so top() must not allocate.
	idx    []int
	topBuf []uint64
}

func newTRRSampler(capacity int) trrSampler {
	if capacity < 1 {
		capacity = 1
	}
	return trrSampler{
		capacity: capacity,
		keys:     make([]uint64, 0, capacity),
		counts:   make([]int, 0, capacity),
		idx:      make([]int, 0, capacity),
		topBuf:   make([]uint64, 0, capacity),
	}
}

// sample records one activation of the row key of this bank during
// device interval iv, st being that row's state: observe without the
// scan. A row's first activation in the interval takes the next slot
// with a count of 1, or is marked untracked (slot -1) when the table is
// full; a repeat bumps its slot's count by index. Valid only while the
// table is cleared exactly when iv advances (Device.Refresh and
// Device.Reset do both) and nothing else moves entries; popTop does,
// so the RFM sampler keeps observe.
func (s *trrSampler) sample(st *rowState, key, iv uint64) {
	if st.trrStamp == iv {
		if st.trrSlot >= 0 {
			s.counts[st.trrSlot]++
		}
		return
	}
	st.trrStamp = iv
	st.trrSlot = -1
	if len(s.keys) < s.capacity {
		st.trrSlot = int32(len(s.keys))
		s.keys = append(s.keys, key)
		s.counts = append(s.counts, 1)
	}
}

// observe records one activation of the row identified by key, finding
// it by a scan of the table. The DDR5 RFM sampler uses it, since its
// popTop reorders entries under the slots sample would rely on.
func (s *trrSampler) observe(key uint64) {
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
	// Table full: the activation goes unobserved.
}

// top returns up to n tracked keys with the highest counts. Ties go to
// the earlier-inserted (earlier-activated) row. The returned slice is a
// scratch buffer owned by the sampler, valid until the next top call.
func (s *trrSampler) top(n int) []uint64 {
	if n <= 0 || len(s.keys) == 0 {
		return nil
	}
	if n > len(s.keys) {
		n = len(s.keys)
	}
	// Selection sort over an index scratch: insertion position doubles
	// as the tie-break order, exactly as before.
	idx := s.idx[:0]
	for i := range s.keys {
		idx = append(idx, i)
	}
	s.idx = idx
	out := s.topBuf[:0]
	for k := 0; k < n; k++ {
		best := k
		for i := k + 1; i < len(idx); i++ {
			if s.counts[idx[i]] > s.counts[idx[best]] ||
				(s.counts[idx[i]] == s.counts[idx[best]] && idx[i] < idx[best]) {
				best = i
			}
		}
		idx[k], idx[best] = idx[best], idx[k]
		out = append(out, s.keys[idx[k]])
	}
	s.topBuf = out
	return out
}

// popTop returns the top-n keys like top and removes them from the
// table, leaving the remaining entries' counts intact. The DDR5 RFM
// model uses this for fair service: once an aggressor's neighborhood is
// refreshed it leaves the queue, and everything else keeps accumulating
// priority — so no activation-count ordering can starve a row of
// mitigation forever.
func (s *trrSampler) popTop(n int) []uint64 {
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

// clear resets the sampler for the next refresh interval.
func (s *trrSampler) clear() {
	s.keys = s.keys[:0]
	s.counts = s.counts[:0]
}

// size reports the number of tracked rows (tests only).
func (s *trrSampler) size() int { return len(s.keys) }
