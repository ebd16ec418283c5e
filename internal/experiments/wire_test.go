package experiments

import (
	"reflect"
	"testing"

	"rhohammer/internal/campaign"
)

// TestWireRoundTripsEverySpec executes one cell of every registered
// spec and pushes its result through the distributed fabric's gob codec,
// requiring a DeepEqual round trip and a result the spec's own check
// accepts. campaign.Grid registers each spec's result type when the
// spec is built, so this proves the round trip is lossless: a new spec
// whose cell-result type gob cannot carry exactly (unexported fields,
// say) fails here, long before a multi-node run would.
func TestWireRoundTripsEverySpec(t *testing.T) {
	if testing.Short() {
		t.Skip("executes one real cell per registered spec")
	}
	for _, e := range Registry.SortedEntries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			spec := e.Build(campaign.Params{Seed: 42, Scale: 0.05})
			if len(spec.Cells) == 0 {
				t.Fatalf("spec %s has no cells", e.Name)
			}
			c := spec.Cells[0]
			result, err := spec.Exec(c, spec.CellSeed(c.Key))
			if err != nil {
				t.Fatalf("exec cell %s: %v", c.Key, err)
			}
			data, err := campaign.EncodeResult(result)
			if err != nil {
				t.Fatalf("encode %T: %v", result, err)
			}
			back, err := campaign.DecodeResult(data)
			if err != nil {
				t.Fatalf("decode %T: %v", result, err)
			}
			if !reflect.DeepEqual(result, back) {
				t.Errorf("cell result of type %T did not survive the wire:\n got %#v\nwant %#v", result, back, result)
			}
			if err := spec.CheckResult(back); err != nil {
				t.Errorf("decoded cell result refused by its spec: %v", err)
			}
		})
	}
}
