// Command replay feeds a recorded ACT/REF trace through the dram
// substrate with the refmodel differential oracle attached and prints
// the verdict: replayed flips, TRR trigger counts, the cumulative
// counter snapshot, and the oracle's first-divergence report if the
// fast substrate and the reference model ever disagree.
//
// Usage:
//
//	replay [-dimm ID] [-seed N] [-session KEY] [-max-events N]
//	       [-envelope] [FILE]
//
// FILE is a JSONL trace — obs.Trace.WriteJSONL output, a capture
// dump (cmd/experiments -trace, or GET /v1/jobs/{id}/trace from
// serverd), or a file opening with a rhohammer_trace header line.
// With no FILE the trace is read from stdin.
//
// -dimm and -seed override the trace header; both are required when
// the trace has no header. For a trace recorded by a hammer session,
// the device seed is hammer.DeviceSeed(sessionSeed), not the session
// seed itself. -session selects one session of a multi-session
// capture dump.
//
// The default output is the indented replay verdict. -envelope prints
// the canonical campaign envelope instead — byte-identical to what
// serverd's POST /v1/replay result endpoint serves for the same trace,
// DIMM and seed.
//
// Exit status: 0 on a clean replay, 1 on a decode error or when the
// oracle reports a divergence.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rhohammer/internal/campaign"
	"rhohammer/internal/experiments"
	"rhohammer/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replay: ")
	dimm := flag.String("dimm", "", "module profile ID the trace was recorded against (overrides the trace header)")
	seed := flag.Int64("seed", 0, "dram device seed (overrides the trace header; hammer.DeviceSeed of the session seed)")
	session := flag.String("session", "", "session key to select from a multi-session capture dump")
	maxEvents := flag.Int("max-events", 0, "event bound (0 = default)")
	envelope := flag.Bool("envelope", false, "print the canonical campaign envelope instead of the verdict")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 1 {
		log.Fatalf("at most one trace file, got %d args", flag.NArg())
	}
	if flag.NArg() == 1 {
		fh, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer fh.Close()
		in = fh
	}

	opts := replay.Options{DIMM: *dimm, Session: *session, MaxEvents: *maxEvents}
	// Only an explicitly passed -seed overrides the header: a header
	// seed must survive the flag's zero default.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			opts.Seed = seed
		}
	})
	f, err := replay.Decode(in, opts)
	if err != nil {
		log.Fatal(err)
	}

	if *envelope {
		// The exact serve code path: the trace as a one-cell campaign
		// spec, run and exported canonically.
		spec := replay.Spec(f)
		out, err := campaign.Run(context.Background(), spec, 1, campaign.RunOpts{})
		if err != nil {
			log.Fatal(err)
		}
		cfg := experiments.Config{Seed: f.Seed, Scale: 1}
		var buf bytes.Buffer
		if err := experiments.WriteEnvelope(&buf, spec.Name, cfg, out); err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(buf.Bytes())
		v, ok := out.Result.(*replay.Verdict)
		if ok && v.Divergence != "" {
			log.Fatalf("oracle divergence: %s", v.Divergence)
		}
		return
	}

	v := replay.Run(f)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", data)
	if v.Divergence != "" {
		log.Fatalf("oracle divergence: %s", v.Divergence)
	}
}
