package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/serve"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// replayInputs is how many distinct same-sized traces a replay workload
// generates and cycles through.
const replayInputs = 8

var replayMerge = &workload{
	name:    "replay-merge",
	clients: 1,
	setup: func(seed int64, flip bool) (bench, error) {
		return setupReplay(seed, flip, trace.GenConfig{
			Ranks: 1024, Events: 2048, Epochs: 8, Owners: 1,
			Adjacency: 0.995, WriteFraction: 0.5, SafeOnly: true,
		}, trace.ReplayOpts{Batch: 64})
	},
	traced: func(b bench, seed int64, d time.Duration, r *runReport) error {
		return tracedReplay(b.(*replayBench), seed, d, r)
	},
}

var replayScatter = &workload{
	name:    "replay-scatter",
	clients: 1,
	setup: func(seed int64, flip bool) (bench, error) {
		return setupReplay(seed, flip, trace.GenConfig{
			Ranks: 256, Events: 2048, Epochs: 8, Owners: 256, OwnerSkew: 0.97,
			Adjacency: 0, WriteFraction: 0.5, SafeOnly: true,
		}, trace.ReplayOpts{Batch: 64, EvictCold: 2, Compact: true})
	},
	traced: func(b bench, seed int64, d time.Duration, r *runReport) error {
		return tracedReplay(b.(*replayBench), seed, d, r)
	},
}

// replayBench replays binary traces through trace.ReplayStream with the
// contribution analyzer, as `rmarace replay` does.
type replayBench struct {
	inputs  []*input
	ranks   int
	factory func(int) detector.Analyzer
	opts    trace.ReplayOpts
	flip    bool
}

func setupReplay(seed int64, flip bool, cfg trace.GenConfig, opts trace.ReplayOpts) (*replayBench, error) {
	b := &replayBench{ranks: cfg.Ranks, opts: opts, flip: flip}
	for _, s := range subSeeds(seed, replayInputs) {
		c := cfg
		c.Seed = s
		in, err := generate(c, "bin")
		if err != nil {
			return nil, err
		}
		b.inputs = append(b.inputs, in)
	}
	f, _, err := serve.NewAnalyzerFactory(detector.OurContribution, cfg.Ranks, "", 1, nil)
	if err != nil {
		return nil, err
	}
	b.factory = f
	// Warm-up: one untimed pass over every input, which also records the
	// verdict every later op must reproduce.
	for _, in := range b.inputs {
		res, err := replayBytes(in.data, nil, b.factory, b.opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		in.want = verdictOf(res)
	}
	return b, nil
}

// replayBytes replays one encoded trace. wrap, when non-nil, wraps the
// opened source (the traced run's decode span).
func replayBytes(data []byte, wrap func(trace.Source) trace.Source, factory func(int) detector.Analyzer, opts trace.ReplayOpts) (trace.ReplayResult, error) {
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		return trace.ReplayResult{}, err
	}
	if wrap != nil {
		src = wrap(src)
	}
	return trace.ReplayStream(src, factory, opts)
}

func (b *replayBench) check(in *input, res trace.ReplayResult) error {
	if err := checkConstruction(in, res, b.flip); err != nil {
		return err
	}
	return checkVerdict(verdictOf(res), in.want)
}

func (b *replayBench) op(i int) (int, error) {
	in := b.inputs[i%len(b.inputs)]
	res, err := replayBytes(in.data, nil, b.factory, b.opts)
	if err != nil {
		return 0, err
	}
	return res.Events, b.check(in, res)
}

func (b *replayBench) stats() inputStats { return statsOf(b.inputs) }

func (b *replayBench) close() {}

func statsOf(ins []*input) inputStats {
	s := inputStats{Inputs: len(ins)}
	for _, in := range ins {
		s.Bytes += int64(len(in.data))
		s.Events += int64(in.events)
	}
	return s
}

// Ledger depths: the same input replayed through successively deeper
// sinks, alternating op by op so the host's slow phases hit every depth
// alike.
const (
	depthDecode   = iota // drain the source only
	depthBaseline        // ReplayStream with the no-op baseline analyzer
	depthB64             // the workload's analyzer at its own batch size
	depthB1              // the workload's analyzer, one event per call
	depthTraced          // depthB64 with the span wrappers
	depths
)

// ledgerTolerance is the largest difference between a layer's span self
// time and its ledger marginal, as a share of the untraced (b64) op's
// time per event, before the layer is flagged. The same tolerance
// bounds how far the accounted share may lie from 1.
const ledgerTolerance = 0.20

// decodeOnly drains a source and returns the access records it read.
func decodeOnly(data []byte) (int, error) {
	src, _, err := tracebin.Open(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var rec trace.Record
	n := 0
	for {
		err := src.Read(&rec)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if rec.Kind == "access" {
			n++
		}
	}
}

// tracedReplay is the replay workloads' traced run. Each round takes
// one input through every ledger depth and the traced op, in a
// shuffled order. The b64 depth is the untraced op the traced one is
// compared with.
func tracedReplay(b *replayBench, seed int64, d time.Duration, r *runReport) error {
	baseline, _, err := serve.NewAnalyzerFactory(detector.Baseline, b.ranks, "", 1, nil)
	if err != nil {
		return err
	}
	b1 := b.opts
	b1.Batch = 1

	var (
		figs                                  spanFigures
		allocs, gcs, overhead                 []float64
		lDecode, lRoute, lB64, lB1, accounted []float64
		flags                                 = map[string]int{}
		rounds                                int
	)
	// A fresh order each round, so that no depth always follows the same
	// neighbour (and inherits its cache and garbage).
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		in := b.inputs[round%len(b.inputs)]
		ev := float64(in.events)
		var ns [depths]float64
		var t opTrace
		var traced trace.ReplayResult
		for _, depth := range rng.Perm(depths) {
			var res trace.ReplayResult
			var err error
			a0, g0 := heapCounters()
			t0 := now()
			switch depth {
			case depthDecode:
				var n int
				n, err = decodeOnly(in.data)
				if err == nil && n != in.events {
					err = fmt.Errorf("decoded %d access records, generated %d", n, in.events)
				}
			case depthBaseline:
				res, err = replayBytes(in.data, nil, baseline, b.opts)
				if err == nil && res.Events != in.events {
					err = fmt.Errorf("baseline replay analysed %d events, generated %d", res.Events, in.events)
				}
			case depthB64:
				res, err = replayBytes(in.data, nil, b.factory, b.opts)
				if err == nil {
					err = b.check(in, res)
				}
			case depthB1:
				res, err = replayBytes(in.data, nil, b.factory, b1)
				if err == nil {
					err = checkConstruction(in, res, b.flip)
				}
			case depthTraced:
				wrap := func(s trace.Source) trace.Source { return &tracedSource{Source: s, t: &t} }
				res, err = replayBytes(in.data, wrap, tracedFactory(b.factory, &t), b.opts)
				if err == nil {
					// The wrappers must not change the path: same verdict,
					// node high-water mark and evictions as untraced.
					err = b.check(in, res)
				}
			}
			ns[depth] = float64(now() - t0)
			if depth == depthB64 {
				a1, g1 := heapCounters()
				allocs = append(allocs, float64(a1-a0)/ev)
				gcs = append(gcs, float64(g1-g0))
			}
			if depth == depthTraced {
				id := r.spans.op("trace.ReplayStream", t0, int64(ns[depth]))
				r.spans.replayChildren(id, t0, &t)
				traced = res
			}
			r.count(err)
		}
		rounds++

		op := ns[depthTraced]
		dec, rt, an := figs.add(&t, op, traced)
		overhead = append(overhead, op/ns[depthB64])

		ld, lr := ns[depthDecode]/ev, (ns[depthBaseline]-ns[depthDecode])/ev
		la := (ns[depthB64] - ns[depthBaseline]) / ev
		lDecode = append(lDecode, ld)
		lRoute = append(lRoute, lr)
		lB64 = append(lB64, la)
		lB1 = append(lB1, (ns[depthB1]-ns[depthBaseline])/ev)

		// Spans carry their own overhead; compare them with the ledger
		// after scaling the traced op back to the untraced op's time.
		scale := ns[depthB64] / op
		unit := ns[depthB64] / ev
		// Do the layers add up to the untraced op? The decode and analyze
		// spans come from the traced op, the route figure from the
		// baseline and decode-only ops, so the sum is made of parts
		// measured apart and need not equal the op. (The spans' own route
		// figure is the op less the other two, so it cannot serve here.)
		share := (dec*scale + lr*ev + an*scale) / ns[depthB64]
		accounted = append(accounted, share)
		for name, diff := range map[string]float64{
			"decode":    dec/ev*scale - ld,
			"route":     rt/ev*scale - lr,
			"analyze":   an/ev*scale - la,
			"accounted": (share - 1) * unit,
		} {
			if diff > ledgerTolerance*unit || -diff > ledgerTolerance*unit {
				flags[name]++
			}
		}
	}

	figs.report(r)
	st := b.stats()
	r.layer("tracebin.bytes_per_event", float64(st.Bytes)/float64(st.Events))
	r.layer("heap.alloc_bytes_per_event", median(allocs))
	r.layer("heap.gc_cycles_per_op", median(gcs))
	r.layer("ledger.decode_ns_per_event", median(lDecode))
	r.layer("ledger.route_ns_per_event", median(lRoute))
	r.layer("ledger.analyze_b64_ns_per_event", median(lB64))
	r.layer("ledger.analyze_b1_ns_per_event", median(lB1))
	r.layer("ledger.accounted_share", median(accounted))
	r.layer("trace_overhead_ratio", median(overhead))
	// A layer is flagged when its span self time and ledger marginal
	// disagree beyond the tolerance in most rounds.
	nflags := 0
	for _, name := range sortedKeys(flags) {
		if 2*flags[name] > rounds {
			nflags++
			r.note("ledger disagrees with the spans on layer %s in %d of %d rounds (tolerance %.0f%% of op time)",
				name, flags[name], rounds, 100*ledgerTolerance)
		}
	}
	r.layer("ledger.flags", float64(nflags))
	r.note("%d rounds of %d ops; spans sample 1 in %d Read/Access calls", rounds, depths, sampleEvery)
	r.fillLayers()
	return nil
}
