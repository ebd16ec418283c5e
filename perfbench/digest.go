package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// digestOf hashes one unit's canonical output bytes.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedUnits is how many leading unit digests a default-seed run
// reports, for pinning in workloads.json.
const pinnedUnits = 8

// checkDigests fails the pass when its units disagree with the digests
// pinned for the default seed or with an earlier run of the same seed
// in the same output directory, then records this run's units.
func checkDigests(name string, o runOpts, p *pass, label string) {
	if len(p.units) == 0 {
		p.fail("%s: no unit completed", label)
		return
	}
	if o.seed == o.params.DefaultSeed {
		pin := pinFor(name, o.params)
		for i := 0; i < len(pin) && i < len(p.units); i++ {
			if p.units[i] != pin[i] {
				p.fail("%s: unit %d digest %s, pinned %s", label, i, p.units[i], pin[i])
				break
			}
		}
		p.notes["unit_digests_"+label] = p.units[:min(pinnedUnits, len(p.units))]
	}
	p.notes["digest_"+label] = digestOf([]byte(strings.Join(p.units, "\n")))

	dir := filepath.Join(o.out, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		p.fail("digest record: %v", err)
		return
	}
	// Runs compare only under identical generator parameters.
	pj, _ := json.Marshal(o.params)
	params := digestOf(pj)[:12]
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", name, o.seed, params))
	var prev []string
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			p.fail("digest record %s: %v", path, err)
			return
		}
	}
	for i := 0; i < len(prev) && i < len(p.units); i++ {
		if prev[i] != p.units[i] {
			p.fail("%s: unit %d digest %s differs from an earlier run of seed %d (%s)", label, i, p.units[i], o.seed, prev[i])
			return
		}
	}
	if len(p.units) > len(prev) {
		data, _ := json.Marshal(p.units)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err == nil {
			os.Rename(tmp, path)
		}
	}
}

func pinFor(name string, p *params) []string {
	switch name {
	case "fuzz":
		return p.Fuzz.Pinned
	case "remap":
		return p.Remap.Pinned
	default:
		return p.Serve.Pinned
	}
}

// compareUnits requires the traced pass to reproduce the untraced
// pass's outputs on every unit both completed.
func compareUnits(traced, plain *pass) {
	n := min(len(traced.units), len(plain.units))
	for i := 0; i < n; i++ {
		if traced.units[i] != plain.units[i] {
			traced.fail("traced unit %d digest %s differs from untraced %s", i, traced.units[i], plain.units[i])
			return
		}
	}
}

// compareCounts requires simulated counts to repeat exactly.
func compareCounts(traced, plain *pass) {
	for k, v := range traced.counts {
		if w, ok := plain.counts[k]; ok && w != v {
			traced.fail("simulated count %s: traced %v, untraced %v", k, v, w)
		}
	}
}
