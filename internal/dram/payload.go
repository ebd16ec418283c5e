package dram

// Batch-activation surface for the compiled-payload executor
// (internal/cpu). The executor buffers the ACTs of a compiled schedule
// and hands them to ActivateBatch in original issue order, flushing the
// buffer before every REF and at the end of every run — so the device
// processes the exact event sequence the per-call Activate path would
// have seen, and every observable (flip log, TRR triggers, samplers,
// counters, the simcheck shadow stream) stays bit-identical.
//
// What batching buys: the (bank,row)→state resolution, the neighbor
// pinning and the per-call overhead are hoisted to compile time via
// PrepareAct, and the remaining per-ACT work runs in a tight loop over
// a flat entry slice instead of being interleaved with CPU-model
// bookkeeping. TRR sampling happens in that loop, as in Activate: a
// stamp check on the pinned state and, for a repeat, one count bump.
//
// Rules the executor must follow:
//
//   - Entries are appended in the order the interpreted path would have
//     called Activate. ActivateBatch never reorders them.
//   - The buffer is flushed before any Refresh reaches the device and
//     before anything reads device state (flips, counters, row state).
//   - Eager state creation in PrepareAct is safe: a row state that
//     exists with zero disturbance and zero acts is observationally
//     identical to an absent one (the audit's row diff treats absent
//     rows as zero).

// ActRef is one payload line's preresolved activation target: the
// pinned row state plus its (bank, row) address. Valid for the device's
// lifetime — states are created once and mutated in place, never
// replaced, even across Reset.
type ActRef struct {
	st   *rowState
	row  uint64
	bank int32
}

// PrepareAct resolves (bank, row) to a pinned activation target,
// creating the row state and its blast-radius neighborhood eagerly.
// Compile-time only.
func (d *Device) PrepareAct(bank int, row uint64) ActRef {
	st := d.state(bank, row)
	if !st.nbrOK {
		d.fillNeighbors(bank, row, st)
	}
	return ActRef{st: st, row: row, bank: int32(bank)}
}

// ActEntry is one buffered ACT: a preresolved target and its issue time.
type ActEntry struct {
	Ref *ActRef
	At  float64
}

// ActivateBatch applies a buffered run of ACTs in order. Semantically
// equivalent to calling Activate(bank, row, at) for each entry: any
// hooked configuration (shadow, trace, pTRR, DDR5 RFM, row swap) runs
// the per-ACT body activate on each entry's pinned state, and the
// unhooked one runs a lean loop over the pinned states.
func (d *Device) ActivateBatch(entries []ActEntry) {
	if d.shadow != nil || d.trace != nil || d.PTRR || d.DIMM.DDR5 || d.rowSwap.enabled {
		for i := range entries {
			e := &entries[i]
			d.activate(e.Ref.st, int(e.Ref.bank), e.Ref.row, e.At)
		}
		return
	}
	// No REF can occur inside a batch, so the refresh epoch check of the
	// disturb fast path and the TRR interval stamp are loop-invariant;
	// with them hoisted, the steady-state victim update is a compare and
	// an add, hand-inlined (the compiler declines to inline disturb into
	// this loop), and a repeat ACT's sampling is a compare and a count
	// bump. The sampled-bank mask lives in a local for the batch too.
	rc, iv, sampled := d.refCount, d.trrInterval, d.sampled
	w1, w2 := blastWeights[1], blastWeights[2]
	for i := range entries {
		e := &entries[i]
		ref := e.Ref
		st := ref.st
		st.acts++
		bank := ref.bank
		d.trr[bank].sample(st, ref.row, iv)
		sampled |= 1 << uint(bank)
		// Victim order (near pair before far pair) matches Activate so
		// the flip log sequence is bit-identical.
		if n := st.nbr[0]; n != nil {
			if n.epochRef == rc && n.disturbance+w1 < n.gate {
				n.disturbance += w1
			} else {
				d.disturbSlow(n, int(bank), ref.row-1, w1, e.At)
			}
		}
		if n := st.nbr[1]; n != nil {
			if n.epochRef == rc && n.disturbance+w1 < n.gate {
				n.disturbance += w1
			} else {
				d.disturbSlow(n, int(bank), ref.row+1, w1, e.At)
			}
		}
		if n := st.nbr[2]; n != nil {
			if n.epochRef == rc && n.disturbance+w2 < n.gate {
				n.disturbance += w2
			} else {
				d.disturbSlow(n, int(bank), ref.row-2, w2, e.At)
			}
		}
		if n := st.nbr[3]; n != nil {
			if n.epochRef == rc && n.disturbance+w2 < n.gate {
				n.disturbance += w2
			} else {
				d.disturbSlow(n, int(bank), ref.row+2, w2, e.At)
			}
		}
	}
	// No observer sees actCount or the sampled-bank mask between
	// entries in this configuration, so both are written once per batch.
	d.actCount += uint64(len(entries))
	d.sampled = sampled
}
