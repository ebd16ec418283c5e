package experiments

import (
	"bytes"
	"testing"

	"rhohammer/internal/obs"
)

// renderBytes runs the named campaign and returns its rendered bytes.
func renderBytes(t *testing.T, name string, cfg Config) []byte {
	t.Helper()
	r, err := Run(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.Bytes()
}

// withObsEnabled runs fn with counters and tracing globally armed,
// restoring the disabled default afterwards.
func withObsEnabled(t *testing.T, traceCap int, fn func()) {
	t.Helper()
	obs.SetEnabled(true)
	obs.EnableTracing(traceCap)
	defer func() {
		obs.SetEnabled(false)
		obs.DisableTracing()
		obs.Default.Reset()
	}()
	fn()
}

// TestObsDoesNotPerturbResults is the observability contract at the
// experiment level: enabling counters and tracing must not change a
// single rendered byte, because observation never touches an RNG
// stream. It covers a pure-inventory table, a measurement figure, and
// a hammering campaign (which exercises dram/memctrl/hammer emission
// and ring overwrite via the tiny capacity).
func TestObsDoesNotPerturbResults(t *testing.T) {
	cfg := Config{Seed: 42, Scale: 0.2}
	names := []string{"table1", "fig3"}
	if !testing.Short() {
		// The hammering campaign doubles the test's cost; under -race
		// -short it would dominate the package budget, and the golden
		// re-check below already covers hammering at full scale.
		names = append(names, "table3")
	}

	base := map[string][]byte{}
	for _, n := range names {
		base[n] = renderBytes(t, n, cfg)
	}

	withObsEnabled(t, 64, func() {
		for _, n := range names {
			if got := renderBytes(t, n, cfg); !bytes.Equal(got, base[n]) {
				t.Errorf("%s rendered differently with obs enabled (%d vs %d bytes)",
					n, len(got), len(base[n]))
			}
		}
		if !testing.Short() {
			// Every hammer call runs a compiled payload, so these only
			// confirm that the campaign above hammered at all: without
			// it the byte equality just checked would say nothing
			// about the hammering layers.
			if obs.HammerPayloadCompiles.Load() == 0 {
				t.Error("hammering campaign compiled no payloads")
			}
			if obs.HammerPayloadBatches.Load() == 0 {
				t.Error("hammering campaign executed no activation batches")
			}
			if b, c := obs.HammerProgBuilds.Load(), obs.HammerPayloadCompiles.Load(); b != c {
				t.Errorf("program builds %d != payload compiles %d", b, c)
			}
			if h, p := obs.HammerProgHits.Load(), obs.HammerPayloadHits.Load(); h != p {
				t.Errorf("program cache hits %d != payload memo hits %d", h, p)
			}
		}
	})
}

// TestGoldenHashWithObsEnabled re-checks one pinned golden hash with
// the full observability stack armed — the same contract as above, but
// against the repository's bit-exactness anchor at golden scale.
func TestGoldenHashWithObsEnabled(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaigns are minutes long; skipped with -short")
	}
	var want string
	for _, g := range Goldens() {
		if g.Name == "table3" {
			want = g.SHA256
		}
	}
	if want == "" {
		t.Fatal("table3 missing from Goldens()")
	}
	withObsEnabled(t, obs.DefaultTraceCap, func() {
		got, _, err := GoldenHash("table3")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("table3 hash with obs enabled = %s, want %s (observation perturbed the simulation)", got, want)
		}
	})
}

// TestOutcomeCellStats checks that RunOutcome surfaces the per-cell
// execution stats the manifest and -json envelope depend on: every
// cell appears with its derived seed, a positive wall time, and one
// attempt.
func TestOutcomeCellStats(t *testing.T) {
	_, out, err := RunOutcome("fig3", Config{Seed: 42, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || len(out.Cells) == 0 {
		t.Fatal("RunOutcome returned no cell stats")
	}
	for _, c := range out.Cells {
		if c.Key == "" {
			t.Error("cell stat with empty key")
		}
		if c.Seed == 0 {
			t.Errorf("cell %s: seed not derived", c.Key)
		}
		if c.Wall <= 0 {
			t.Errorf("cell %s: wall time %v not positive", c.Key, c.Wall)
		}
		if c.Attempts != 1 {
			t.Errorf("cell %s: attempts = %d, want 1", c.Key, c.Attempts)
		}
		if c.Err != "" {
			t.Errorf("cell %s: unexpected error %q", c.Key, c.Err)
		}
	}
	if out.Busy <= 0 || out.Occupancy() <= 0 {
		t.Errorf("busy %v / occupancy %v not positive", out.Busy, out.Occupancy())
	}
}
