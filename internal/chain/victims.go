package chain

import (
	"rhohammer/internal/hammer"
	"rhohammer/internal/mem"
)

// PTE field geometry (x86-64, 4 KiB pages).
const (
	pteSize = 8
	// PFNLo and PFNHi delimit the PTE bit sub-range the paper calls
	// exploitable ("a desired sub-range of PTE frame number, e.g.
	// [12, 19]"): flips here move the mapped frame by a small power of
	// two, which page-granular massaging can always arrange to hit an
	// attacker-chosen frame.
	PFNLo = 12
	PFNHi = 19
)

// Modeled costs of the victim machinery, simulated nanoseconds.
const (
	// ptpPlacementCostNS covers freeing the victim block and spraying
	// page-table pages until one lands on the victim frame.
	ptpPlacementCostNS = 2.2e9
	// verifyCostNS covers checking the corrupted mapping.
	verifyCostNS = 0.35e9
	// keyPlacementCostNS covers spraying key-bearing pages onto the
	// victim frame — page-cache massaging, cheaper than PTP spraying.
	keyPlacementCostNS = 1.1e9
	// keyVerifyCostNS covers one faulty-signature check against the
	// corrupted key.
	keyVerifyCostNS = 0.15e9
)

// PTEVictim is the §5.3 victim: massage a page-table page onto the
// flip's frame (Rubicon-style page-granular placement), re-trigger the
// flip and obtain a self-referencing PTE — attacker read/write access
// to its own page tables.
type PTEVictim struct {
	// BaseRow overrides the re-trigger placement for a flip; nil means
	// the flip's recorded HammerBaseRow (the templating placement, which
	// always re-covers the victim cell). The e2e experiment installs the
	// historical 16-row-rounding formula here, which mis-places the rare
	// flip landing below its region's base row — preserved there because
	// the e2e golden pins that behavior.
	BaseRow func(Flip) uint64
}

// Name implements Victim.
func (PTEVictim) Name() string { return "pte" }

// Classify implements Victim: exploitable flips sit inside the PTE
// frame-number sub-range [PFNLo, PFNHi].
func (PTEVictim) Classify(s *hammer.Session, flips []Flip) []Target {
	var out []Target
	for _, f := range flips {
		bit := (f.ByteInRow%pteSize)*8 + int(f.Bit)
		if bit >= PFNLo && bit <= PFNHi {
			out = append(out, Target{Flip: f, Bit: bit})
		}
	}
	return out
}

// Attempt implements Victim.
func (v PTEVictim) Attempt(s *hammer.Session, h Hammerer, t Target, durationNS float64) (Attempt, error) {
	at := Attempt{TimeNS: ptpPlacementCostNS}

	victimFrame := t.Flip.PhysAddr / mem.PageSize
	ptpBase := victimFrame * mem.PageSize

	// The flipped PTE will point at ptpFrame ^ (1 << (Bit-PFNLo)). The
	// attacker chooses the frame it maps through this PTE so that the
	// post-flip PFN equals the PTP's own frame — but the chosen frame
	// must have the right current bit value for the flip direction to
	// move it toward the PTP.
	mask := uint64(1) << uint(t.Bit-PFNLo)
	chosen := victimFrame ^ mask
	bitSet := chosen&mask != 0
	if t.Flip.OneToZero != bitSet {
		at.Note = "flip direction moves the PFN away from the PTP"
		return at, nil
	}

	// Re-trigger the flip at its templating placement to confirm
	// reproducibility (the vulnerability is location-stable).
	baseRow := t.Flip.HammerBaseRow
	if v.BaseRow != nil {
		baseRow = v.BaseRow(t.Flip)
	}
	hr, err := h.Retrigger(s, t.Flip.Bank, baseRow, durationNS)
	if err != nil {
		return at, err
	}
	at.TimeNS += hr.TimeNS + verifyCostNS
	if !Reproduced(hr.Flips, t.Flip.Flip) {
		at.Note = "flip did not reproduce on re-trigger"
		return at, nil
	}

	pteIndex := uint64(t.Flip.PhysAddr%mem.PageSize) / pteSize
	at.Success = true
	at.Addr = ptpBase + pteIndex*pteSize
	at.Value = (chosen^mask)<<12 | 0x67 // present|rw|user|accessed|dirty
	at.Frame = victimFrame
	return at, nil
}

// keyBytes is the modeled secret size: a 2048-bit private key at the
// start of its page. Only flips landing inside the key's page-offset
// range are placeable onto key material (the attacker controls page
// placement, not the offset within the page).
const keyBytes = 256

// KeyVictim models a Bellcore-style fault attack on co-located key
// material: spray key-bearing pages onto the flip's frame, re-trigger
// the flip to fault one key byte, and confirm via a faulty signature.
// Unlike the PTE victim there is no direction constraint — any
// reproducible flip inside the key window corrupts the secret — but
// the usable page-offset range is much narrower.
type KeyVictim struct{}

// Name implements Victim.
func (KeyVictim) Name() string { return "key" }

// Classify implements Victim: flips whose page offset falls inside the
// key's byte range, draining a charged cell (1→0 — the direction a
// known-plaintext faulty signature pins down unambiguously).
func (KeyVictim) Classify(s *hammer.Session, flips []Flip) []Target {
	var out []Target
	for _, f := range flips {
		off := f.PhysAddr % mem.PageSize
		if !f.OneToZero || off >= keyBytes {
			continue
		}
		out = append(out, Target{Flip: f, Bit: int(off)*8 + int(f.Bit)})
	}
	return out
}

// Attempt implements Victim.
func (KeyVictim) Attempt(s *hammer.Session, h Hammerer, t Target, durationNS float64) (Attempt, error) {
	at := Attempt{TimeNS: keyPlacementCostNS}
	hr, err := h.Retrigger(s, t.Flip.Bank, t.Flip.HammerBaseRow, durationNS)
	if err != nil {
		return at, err
	}
	at.TimeNS += hr.TimeNS + keyVerifyCostNS
	if !Reproduced(hr.Flips, t.Flip.Flip) {
		at.Note = "flip did not reproduce on re-trigger"
		return at, nil
	}
	at.Success = true
	at.Addr = t.Flip.PhysAddr
	at.Value = uint64(0xff &^ (1 << t.Flip.Bit)) // the drained key byte, bit cleared
	at.Frame = t.Flip.PhysAddr / mem.PageSize
	return at, nil
}
