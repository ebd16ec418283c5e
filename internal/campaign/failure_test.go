package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
)

// failingSpec builds a grid where the named cells fail in the given way
// and every other cell hammers a real device and reports its flip and
// activation counts — close enough to a production campaign that
// sibling skew would show.
func failingSpec(name string, fail map[string]string) Spec {
	var cells []Cell
	for i := 0; i < 12; i++ {
		cells = append(cells, Cell{Key: fmt.Sprintf("cell-%02d", i)})
	}
	return Spec{
		Name:  name,
		Seed:  77,
		Cells: cells,
		Exec: func(c Cell, seed int64) (any, error) {
			switch fail[c.Key] {
			case "error":
				return nil, fmt.Errorf("profile exploded")
			case "panic":
				panic("cell panicked mid-hammer")
			}
			dev := dram.NewDevice(arch.DIMMS4(), seed)
			now := 0.0
			for i := 0; i < 70_000; i++ {
				dev.Activate(0, 500, now)
				dev.Activate(0, 502, now+3)
				now += 6
			}
			return fmt.Sprintf("flips=%d acts=%d", len(dev.Flips()), dev.ActivationCount()), nil
		},
	}
}

// TestRunSurfacesFailingCellKeys checks the failure contract end to
// end: an erroring cell and a panicking cell each surface their own
// cell key in the joined error, the run terminates (no hang on any
// worker count), and the sibling cells' results are byte-identical to
// a fully healthy run — a failure must not skew anyone else's stream.
func TestRunSurfacesFailingCellKeys(t *testing.T) {
	fail := map[string]string{"cell-03": "error", "cell-07": "panic"}

	healthy, err := run(failingSpec("healthy", nil), 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			done := make(chan struct{})
			var out *Outcome
			var runErr error
			go func() {
				defer close(done)
				out, runErr = run(failingSpec("healthy", fail), workers)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("campaign with failing cells hung")
			}

			if runErr == nil {
				t.Fatal("failing cells produced no error")
			}
			msg := runErr.Error()
			for _, want := range []string{"cell cell-03", "profile exploded", "cell cell-07", "panic: cell panicked mid-hammer"} {
				if !strings.Contains(msg, want) {
					t.Errorf("joined error missing %q:\n%s", want, msg)
				}
			}
			if strings.Contains(msg, "cell-04") {
				t.Errorf("error blames a healthy cell:\n%s", msg)
			}

			if out == nil {
				t.Fatal("no partial outcome returned alongside the error")
			}
			if out.Result != nil {
				t.Error("Gather must not run on partial results")
			}
			for i, r := range out.Results {
				key := fmt.Sprintf("cell-%02d", i)
				if fail[key] != "" {
					if r != nil {
						t.Errorf("failed %s has a result: %v", key, r)
					}
					continue
				}
				if !reflect.DeepEqual(r, healthy.Results[i]) {
					t.Errorf("%s skewed by sibling failure: %v vs healthy %v", key, r, healthy.Results[i])
				}
			}
		})
	}
}

// TestDeterminismDeviceBackedCells is the worker-count metamorphic
// invariant on real substrate state: cells that build their own DRAM
// device from the cell seed produce identical flip/activation summaries
// for every worker pool size.
func TestDeterminismDeviceBackedCells(t *testing.T) {
	results := map[int][]any{}
	for _, workers := range []int{1, 3, 8} {
		out, err := run(failingSpec("device-grid", nil), workers)
		if err != nil {
			t.Fatal(err)
		}
		results[workers] = out.Results
	}
	for _, workers := range []int{3, 8} {
		if !reflect.DeepEqual(results[1], results[workers]) {
			t.Errorf("device-backed results differ between 1 and %d workers:\n%v\n%v",
				workers, results[1], results[workers])
		}
	}
}
