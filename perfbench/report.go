package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// Span-derived per-layer metrics: total self time (_s) or the median
// (or p90) per call (_ms) of the named span.
var (
	selfSeconds = map[string]string{
		"hammer.session_new_s": "hammer.session_new",
		"hammer.fuzz_s":        "hammer.fuzz",
		"dram.device_new_s":    "dram.device_new",
		"mem.pool_new_s":       "mem.pool_new",
		"reverse.recover_s":    "reverse.recover",
	}
	perCallMS = map[string]struct {
		span string
		q    float64
	}{
		"serve.submit_ms":         {"serve.submit", 0.5},
		"serve.poll_ms":           {"serve.poll", 0.5},
		"serve.result_ms":         {"serve.result", 0.5},
		"serve.queue_wait_ms.p50": {"serve.queue_wait", 0.5},
		"serve.queue_wait_ms.p90": {"serve.queue_wait", 0.9},
		"serve.run_ms":            {"serve.run", 0.5},
		"serve.lease_acquire_ms":  {"serve.lease_acquire", 0.5},
		"serve.lease_complete_ms": {"serve.lease_complete", 0.5},
		"store.open_ms":           {"store.open", 0.5},
		"replay.decode_ms":        {"replay.decode", 0.5},
		"replay.run_ms":           {"replay.run", 0.5},
	}
)

// layerReport fills the traced pass's span-derived metrics, the tracing
// overhead, the untraced pass's fail ratio and the open-loop pass's
// figures (serve only; open is nil elsewhere), zero-fills the layers
// the workload never reached, prints the layer report and saves it with
// the spans.
func layerReport(name string, o runOpts, plain, traced, open *pass) map[string]any {
	sum := traced.tr.summarize()
	for m, span := range selfSeconds {
		if cs, ok := sum[span]; ok {
			traced.layer[m] = cs.SelfS
		}
	}
	for m, pc := range perCallMS {
		if cs, ok := sum[pc.span]; ok {
			traced.layer[m] = quantile(cs.durMS, pc.q)
		}
	}
	traced.layer["trace.overhead_ratio"] = ratio(traced.cost, plain.cost) - 1
	traced.layer["e2e.fail_ratio"] = ratio(float64(plain.failed), float64(plain.attempted))
	notes := map[string]any{"untraced": plain.notes, "traced": traced.notes}
	if open != nil {
		for _, k := range []string{"serve.job_miss_ratio", "serve.job_p50_ms", "serve.job_p90_ms", "serve.generator_late_ms.max"} {
			traced.layer[k] = open.layer[k]
		}
		notes["open_loop"] = open.notes
	}

	var notReached []string
	for _, def := range o.metrics.PerLayer {
		if traced.missing[def.Name] {
			delete(traced.layer, def.Name)
			continue
		}
		if _, ok := traced.layer[def.Name]; !ok {
			traced.layer[def.Name] = 0
			notReached = append(notReached, def.Name)
		}
	}
	sort.Strings(notReached)
	var absent []string
	for m := range traced.missing {
		absent = append(absent, m)
	}
	sort.Strings(absent)

	// Self time by <module>.<call> as a share of worker time.
	workers := float64(runtime.NumCPU())
	type row struct {
		Span  string  `json:"span"`
		Calls int     `json:"calls"`
		SelfS float64 `json:"self_s"`
		Share float64 `json:"share_of_worker_time"`
	}
	var rows []row
	for span, cs := range sum {
		rows = append(rows, row{span, cs.Calls, cs.SelfS, ratio(cs.SelfS, workers*traced.wall)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })

	nsPerACT := map[string]float64{}
	for k, v := range traced.layer {
		if strings.HasPrefix(k, "hammer.ns_per_act.") && !slices.Contains(notReached, k) {
			nsPerACT[strings.TrimPrefix(k, "hammer.ns_per_act.")] = v
		}
	}
	shares := map[string]any{}
	for _, k := range []string{"hammer.program_cache_hit_ratio", "hammer.payload_cache_hit_ratio",
		"serve.cache_hit_ratio", "serve.leased_cell_share"} {
		if v, ok := traced.layer[k]; ok && !slices.Contains(notReached, k) {
			shares[k] = v
		}
	}
	if v, ok := traced.layer["serve.leased_cell_share"]; ok && !slices.Contains(notReached, "serve.leased_cell_share") {
		shares["serve.local_cell_share"] = 1 - v
	}

	fmt.Printf("layer report: %s, seed %d, traced pass %.1f s on %d workers\n", name, o.seed, traced.wall, int(workers))
	fmt.Println("  self time by <module>.<call>, share of worker time:")
	for _, r := range rows {
		fmt.Printf("    %-24s %6.1f%%  %8.3f s  %6d calls\n", r.Span, 100*r.Share, r.SelfS, r.Calls)
	}
	if len(nsPerACT) > 0 {
		keys := make([]string, 0, len(nsPerACT))
		for k := range nsPerACT {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("  host ns per simulated ACT:")
		for _, k := range keys {
			fmt.Printf("  %s %.1f", k, nsPerACT[k])
		}
		fmt.Println()
	}
	for _, k := range sortedKeys(shares) {
		fmt.Printf("  %s = %.4f\n", k, shares[k])
	}
	fmt.Printf("  tracing overhead: %+.1f%% host cost per unit (traced vs untraced)\n", 100*traced.layer["trace.overhead_ratio"])
	if len(absent) > 0 {
		fmt.Printf("  absent (counter no longer exists): %s\n", strings.Join(absent, ", "))
	}

	report := map[string]any{
		"workload": name, "seed": o.seed,
		"self_time":      rows,
		"ns_per_act":     nsPerACT,
		"shares":         shares,
		"not_reached":    notReached,
		"absent":         absent,
		"notes":          notes,
		"untraced_e2e":   plain.e2e,
		"layer":          traced.layer,
		"trace_overhead": traced.layer["trace.overhead_ratio"],
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := traced.tr.write(base + "-spans.jsonl"); err != nil {
		traced.fail("writing spans: %v", err)
	}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile(base+"-layers.json", data, 0o644); err != nil {
			traced.fail("writing layer report: %v", err)
		}
	}
	return map[string]any{"layers_file": base + "-layers.json", "spans_file": base + "-spans.jsonl",
		"not_reached": notReached, "absent": absent, "notes": report["notes"]}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
