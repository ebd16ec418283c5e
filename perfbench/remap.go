package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rhohammer/internal/arch"
	"rhohammer/internal/dram"
	"rhohammer/internal/mapping"
	"rhohammer/internal/mem"
	"rhohammer/internal/memctrl"
	"rhohammer/internal/reverse"
	"rhohammer/internal/stats"
	"rhohammer/internal/timing"
)

// remapItem is one unit of cmd/remap's work.
type remapItem struct {
	Arch string `json:"arch"`
	DIMM string `json:"dimm"`
	GiB  int    `json:"gib"`
	Tool string `json:"tool"`
	Seed int64  `json:"seed"`
}

// remapOut is one recovery's outcome.
type remapOut struct {
	mapping   string
	ok        bool
	correct   bool
	simNS     float64
	accesses  uint64
	recoverNS float64
	ctrl      map[string]float64 // memctrl.Stats by field name
	dev       map[string]float64 // dram.Counters by JSON name
	acts      uint64
	wallMS    float64
	// setupS is the host time from the item's start until its Recover*
	// call began: building its device, controller, measurer and pool.
	setupS float64
	err    string
}

// remapBatch draws batch b: every (capacity, tool) pair once, with a
// seed-drawn item seed, in seed-drawn order. Platforms rotate through a
// seed-drawn permutation so that every len(Archs) consecutive batches
// cover each (platform, capacity, tool) once: the mix, and so the cost
// of a run, is the same for every seed.
func remapBatch(rp remapParams, seed int64, b int) []remapItem {
	perm := rand.New(rand.NewPCG(uint64(seed), 0x7e3a)).Perm(len(rp.Archs))
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(b)+0x7e3b))
	var items []remapItem
	for ci, c := range rp.Capacities {
		for ti, t := range rp.Tools {
			items = append(items, remapItem{
				Arch: rp.Archs[perm[(ci+ti+b)%len(perm)]], DIMM: c.DIMM, GiB: c.GiB, Tool: t,
				Seed: rng.Int64N(1 << 40),
			})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// byName flattens a stats struct into a name-keyed map, so a field a
// later change removes reads as absent rather than breaking the build.
func byName(v any) map[string]float64 {
	out := map[string]float64{}
	data, err := json.Marshal(v)
	if err != nil {
		return out
	}
	json.Unmarshal(data, &out)
	return out
}

// recoverItem runs one recovery the way cmd/remap does.
func recoverItem(tr *tracer, op string, it remapItem) (out remapOut) {
	start := time.Now()
	root := tr.begin("remap.item", op, nil)
	defer root.end()
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Sprint("panic: ", r)
		}
	}()
	a, ok := arch.ByName(it.Arch)
	d, ok2 := arch.DIMMByID(it.DIMM)
	if !ok || !ok2 {
		out.err = fmt.Sprintf("unknown platform %s/%s", it.Arch, it.DIMM)
		return out
	}
	truth, ok := mapping.ForPlatform(a.MappingFamily, d.SizeGiB)
	if !ok {
		out.err = fmt.Sprintf("no mapping for %s at %d GiB", a.MappingFamily, d.SizeGiB)
		return out
	}
	r := stats.NewRand(it.Seed)
	sp := tr.begin("dram.device_new", op, root)
	dev := dram.NewDevice(d, it.Seed)
	sp.end()
	sp = tr.begin("memctrl.new", op, root)
	ctrl := memctrl.New(a, truth, dev)
	meas := timing.NewMeasurer(ctrl, r)
	sp.end()
	sp = tr.begin("mem.pool_new", op, root)
	pool := mem.NewPool(truth.Size(), 0.7, r)
	sp.end()

	sp = tr.begin("reverse.recover", op, root)
	t := time.Now()
	out.setupS = t.Sub(start).Seconds()
	var res reverse.Result
	switch it.Tool {
	case "rhohammer":
		res = reverse.Recover(meas, pool, reverse.Options{})
	case "drama":
		res = reverse.RecoverDRAMA(meas, pool, reverse.Options{})
	case "dramdig":
		res = reverse.RecoverDRAMDig(meas, pool, reverse.Options{})
	case "dare":
		res = reverse.RecoverDARE(meas, pool, reverse.Options{})
	default:
		sp.end()
		out.err = fmt.Sprintf("unknown tool %q", it.Tool)
		return out
	}
	out.recoverNS = float64(time.Since(t).Nanoseconds())
	sp.end()

	out.ok = res.OK()
	if out.ok {
		out.mapping = res.Mapping.String()
		out.correct = res.Mapping.Equal(truth)
	}
	out.simNS = res.SimTimeNS
	out.accesses = meas.Accesses()
	st := ctrl.Stats()
	out.acts = st.ACTs()
	out.ctrl = byName(st)
	out.dev = byName(dev.Counters())
	return out
}

func runRemap(o runOpts, tr *tracer) (*pass, error) {
	rp := o.params.Remap
	p := newPass()
	workers := runtime.NumCPU()

	var (
		acts, wall, recoverNS, accesses float64
		itemMS, setups                  []float64
		correct                         int
	)
	mem := startMem()
	start := time.Now()
	// Stop only after whole platform cycles, so every run holds the
	// same mix.
	for b := 0; b == 0 || b%len(rp.Archs) != 0 || since(start) < o.seconds; b++ {
		t0 := time.Now()
		items := remapBatch(rp, o.seed, b)
		outs := make([]remapOut, len(items))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					s := time.Now()
					outs[i] = recoverItem(tr, fmt.Sprintf("batch%d/%d", b, i), items[i])
					outs[i].wallMS = float64(time.Since(s).Nanoseconds()) / 1e6
				}
			}()
		}
		wg.Wait()
		wall += since(t0)

		var unit []byte
		var simNS, tAcc, ctrlAcc, decHits, decMiss, rowHits float64
		var dev = map[string]float64{}
		batchCorrect := 0
		for i, out := range outs {
			p.attempted++
			itemMS = append(itemMS, out.wallMS)
			if out.err != "" {
				p.failed++
				p.fail("remap batch %d item %d (%+v): %s", b, i, items[i], out.err)
				continue
			}
			setups = append(setups, out.setupS)
			acts += float64(out.acts)
			recoverNS += out.recoverNS
			accesses += float64(out.accesses)
			if out.correct {
				correct++
				batchCorrect++
			}
			line, _ := json.Marshal(items[i])
			unit = append(unit, line...)
			unit = append(unit, fmt.Sprintf("|%s|ok=%v|correct=%v|sim_ns=%s\n",
				out.mapping, out.ok, out.correct, strconv.FormatFloat(out.simNS, 'g', -1, 64))...)
			simNS += out.simNS
			tAcc += float64(out.accesses)
			ctrlAcc += out.ctrl["Accesses"]
			decHits += out.ctrl["DecodeHits"]
			decMiss += out.ctrl["DecodeMisses"]
			rowHits += out.ctrl["RowHits"]
			for k, v := range out.dev {
				dev[k] += v
			}
		}
		p.units = append(p.units, digestOf(unit))
		if b == 0 {
			p.counts["reverse.sim_s"] = simNS / 1e9
			p.counts["reverse.correct_ratio"] = ratio(float64(batchCorrect), float64(len(items)))
			p.counts["timing.accesses"] = tAcc
			if _, ok := outs[0].ctrl["Accesses"]; ok {
				p.counts["memctrl.accesses"] = ctrlAcc
				p.layer["memctrl.decode_miss_ratio"] = ratio(decMiss, decHits+decMiss)
				p.layer["memctrl.row_hit_ratio"] = ratio(rowHits, ctrlAcc)
			}
			for name, key := range map[string]string{"dram.acts": "acts", "dram.refreshes": "refs", "dram.trr_triggers": "trr_triggers", "dram.flips": "flips"} {
				if _, ok := outs[0].dev[key]; ok {
					p.counts[name] = dev[key]
				}
			}
			for k, v := range p.counts {
				p.layer[k] = v
			}
		}
	}
	p.e2e["sim_acts_per_s"] = ratio(acts, wall)
	p.e2e["ops_per_s"] = ratio(float64(p.attempted), wall)
	p.e2e["op_p50_ms"] = quantile(itemMS, 0.5)
	p.e2e["op_p90_ms"] = quantile(itemMS, 0.9)
	p.e2e["setup_s"] = median(setups)
	p.e2e["peak_rss_mb"] = peakRSSMB()
	p.cost = ratio(wall, float64(p.attempted))
	p.wall = wall
	p.notes["batches"] = len(p.units)
	p.notes["recoveries"] = p.attempted
	p.notes["correct_share"] = ratio(float64(correct), float64(p.attempted))

	if tr != nil {
		mem.stop(p.layer)
		p.layer["reverse.ns_per_access"] = ratio(recoverNS, accesses)
		p.tr = tr
	}
	return p, nil
}
