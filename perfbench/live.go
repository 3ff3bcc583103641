package main

import (
	"fmt"
	"time"

	"rmarace/internal/apps/cfdproxy"
	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/rma"
)

// liveWarmups is how many untimed runs live-halo's set-up makes: one
// run is a few milliseconds, too short a span to time steadily.
const liveWarmups = 64

var liveHalo = &workload{
	name:    "live-halo",
	clients: 1,
	setup:   setupLive,
	traced:  func(b bench, _ int64, d time.Duration, r *runReport) error { return tracedLive(b.(*liveBench), d, r) },
}

// liveBench runs the simulated CFD-Proxy on the live MPI-RMA runtime.
type liveBench struct {
	cfg      cfdproxy.Config
	maxNodes int // MaxNodesPerProcess of the warm-up runs
	accesses uint64
	flip     bool
}

func setupLive(_ int64, flip bool) (bench, error) {
	// CFD-Proxy's halo exchange is a fixed program with no random input,
	// so the seed selects nothing here.
	cfg := cfdproxy.Config{Ranks: 4, Iters: 2, Points: 512, InteriorOps: 256}
	b := &liveBench{cfg: cfg, flip: flip}
	for i := 0; i < liveWarmups; i++ {
		res, err := cfdproxy.RunOpts(cfg, rma.Config{Method: detector.OurContribution})
		if err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		if i == 0 {
			b.maxNodes, b.accesses = res.MaxNodesPerProcess, res.TotalAccesses
		}
	}
	return b, nil
}

// check checks a live run: no race (the halo exchange is race-free),
// the warm-up runs' per-process node count and access count.
func (b *liveBench) check(res cfdproxy.Result) error {
	if (res.Race != nil) != b.flip {
		if res.Race != nil {
			return fmt.Errorf("unexpected race: %s", res.Race.Message())
		}
		return fmt.Errorf("no race reported, the self-check expects one")
	}
	if res.MaxNodesPerProcess != b.maxNodes {
		return fmt.Errorf("MaxNodesPerProcess %d, warm-up %d", res.MaxNodesPerProcess, b.maxNodes)
	}
	if res.TotalAccesses != b.accesses {
		return fmt.Errorf("analysed %d accesses, warm-up %d", res.TotalAccesses, b.accesses)
	}
	return nil
}

func (b *liveBench) op(int) (int, error) {
	res, err := cfdproxy.RunOpts(b.cfg, rma.Config{Method: detector.OurContribution})
	if err != nil {
		return 0, err
	}
	return int(res.TotalAccesses), b.check(res)
}

func (b *liveBench) stats() inputStats {
	return inputStats{Inputs: 1, Events: int64(b.accesses)}
}

func (b *liveBench) close() {}

// tracedLive is live-halo's traced run: untraced runs, which give the
// epoch time because like the end-to-end runs they pay no recorder,
// alternate with runs carrying a metrics registry, whose run report
// gives the engine counters.
func tracedLive(b *liveBench, d time.Duration, r *runReport) error {
	var epochMs, maxNodes, accesses, overflows, batchFill, allocs, gcs, overhead []float64
	deadline := time.Now().Add(d)
	rounds := 0
	for round := 0; time.Now().Before(deadline); round++ {
		var ns [2]float64
		for j := 0; j < 2; j++ {
			traced := (j+round)%2 == 1
			cfg := rma.Config{Method: detector.OurContribution}
			if traced {
				cfg.Recorder = obs.NewRegistry()
			}
			a0, g0 := heapCounters()
			t0 := now()
			res, err := cfdproxy.RunOpts(b.cfg, cfg)
			dur := now() - t0
			if err == nil {
				err = b.check(res)
			}
			r.count(err)
			if !traced {
				ns[0] = float64(dur)
				epochMs = append(epochMs, float64(res.EpochTime)/1e6)
				a1, g1 := heapCounters()
				allocs = append(allocs, float64(a1-a0)/float64(max(res.TotalAccesses, 1)))
				gcs = append(gcs, float64(g1-g0))
				continue
			}
			ns[1] = float64(dur)
			id := r.spans.op("cfdproxy.RunOpts", t0, dur)
			r.spans.child(id, "rma.epochs (summed over ranks)", t0, float64(res.EpochTime), int64(2*b.cfg.Ranks))
			maxNodes = append(maxNodes, float64(res.MaxNodesPerProcess))
			accesses = append(accesses, float64(res.TotalAccesses))
			if res.Report != nil {
				o, fill := engineCounters(res.Report.Metrics)
				overflows = append(overflows, o)
				batchFill = append(batchFill, fill)
			}
		}
		rounds++
		overhead = append(overhead, ns[1]/ns[0])
	}
	r.layer("rma.epoch_ms", median(epochMs))
	r.layer("rma.max_nodes_per_process", median(maxNodes))
	r.layer("rma.accesses_per_run", median(accesses))
	r.layer("engine.overflows", median(overflows))
	r.layer("engine.notif_batch_fill", median(batchFill))
	r.layer("heap.alloc_bytes_per_event", median(allocs))
	r.layer("heap.gc_cycles_per_op", median(gcs))
	r.layer("trace_overhead_ratio", median(overhead))
	r.note("%d rounds of an untraced and a recorded run", rounds)
	r.fillLayers()
	return nil
}

// engineCounters sums the engine overflow counter over ranks and gives
// the mean notification batch length from a run report's metrics.
func engineCounters(ms []obs.MetricSnapshot) (overflows, fill float64) {
	var batches, notifs int64
	for _, m := range ms {
		for _, s := range m.Series {
			switch m.Name {
			case "engine_overflows":
				overflows += float64(s.Value)
			case "notif_batch_len":
				batches += s.Value
				notifs += s.Sum
			}
		}
	}
	if batches > 0 {
		fill = float64(notifs) / float64(batches)
	}
	return overflows, fill
}
