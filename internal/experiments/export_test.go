package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteJSONEnvelope(t *testing.T) {
	_, out, err := RunOutcome("table1", small)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, "table1", small, out); err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if env["experiment"] != "table1" || env["seed"].(float64) != 42 {
		t.Errorf("envelope: %v", env)
	}
	if !strings.Contains(buf.String(), "Raptor Lake") {
		t.Error("result payload missing")
	}
}

// TestCanonicalEnvelopeIsSchedulingFree pins the envelope writer: two
// runs of the same campaign at different worker counts produce
// byte-identical envelopes although their outcomes carry different
// wall times, and the envelope drops only the scheduling data (seeds,
// keys and result survive).
func TestCanonicalEnvelopeIsSchedulingFree(t *testing.T) {
	envelope := func(workers int) []byte {
		cfg := Config{Seed: 42, Scale: 0.1, Workers: workers}
		_, out, err := RunOutcome("table2", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Cells[0].Wall == 0 {
			t.Fatal("outcome carries no cell wall time to drop")
		}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, "table2", cfg, out); err != nil {
			t.Fatal(err)
		}
		if out.Cells[0].Wall == 0 {
			t.Error("WriteEnvelope zeroed the outcome's own cell wall time")
		}
		return buf.Bytes()
	}
	a, b := envelope(1), envelope(8)
	if !bytes.Equal(a, b) {
		t.Errorf("envelopes differ across worker counts:\n%s\n%s", a, b)
	}
	var env map[string]any
	if err := json.Unmarshal(a, &env); err != nil {
		t.Fatal(err)
	}
	if _, has := env["workers"]; has {
		t.Error("envelope carries the resolved worker count")
	}
	if _, has := env["wall_ns"]; has {
		t.Error("envelope carries the campaign wall time")
	}
	cells := env["cells"].([]any)
	if len(cells) == 0 {
		t.Fatal("envelope lost its cells")
	}
	cell := cells[0].(map[string]any)
	if cell["wall_ns"].(float64) != 0 {
		t.Error("envelope cell carries a wall time")
	}
	if cell["key"] == "" || cell["seed"].(float64) == 0 {
		t.Errorf("envelope cell lost its identity: %v", cell)
	}
}

func TestFig4JSONMarshals(t *testing.T) {
	res := &Fig4Result{
		Archs: []string{"A"},
		Bits:  []uint{6, 7},
		Matrix: []map[[2]uint]float64{
			{{6, 7}: 120},
		},
		Thres: []float64{100},
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sbdr":true`) {
		t.Errorf("heatmap JSON: %s", data)
	}
}
