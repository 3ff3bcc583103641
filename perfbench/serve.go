package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/obs/telemetry"
	"rmarace/internal/serve"
	"rmarace/internal/trace"
)

// serveInputs is how many distinct sessions serve-mixed cycles through.
// Inputs whose index is in jsonAt go as JSON Lines, the rest as RMTB;
// inputs in racyAt carry the generator's planted race. Each share is
// 3/16 (19%): far from the p50 boundary and, at 9 points, away from
// the p90 one, so neither percentile sits on the edge between kinds.
const serveInputs = 16

// serveClients is the closed loop's client count: one per core of the
// 2-core machines the benchmark targets, like concurrent `rmarace
// submit` callers each waiting for its verdict.
const serveClients = 2

var (
	jsonAt = map[int]bool{2: true, 7: true, 12: true}
	racyAt = map[int]bool{4: true, 10: true, 12: true}
)

var serveMixed = &workload{
	name:    "serve-mixed",
	clients: serveClients,
	setup:   setupServe,
	traced: func(b bench, seed int64, d time.Duration, r *runReport) error {
		return tracedServe(b.(*serveBench), seed, d, r)
	},
}

// serveBench drives an in-process serve.Daemon with default settings
// over loopback HTTP, the way `rmarace submit` does.
type serveBench struct {
	inputs  []*input
	ranks   int
	srv     *telemetry.Server
	url     string
	client  *http.Client
	factory func(int) detector.Analyzer // the daemon's default session analysis, offline
	flip    bool
}

func setupServe(seed int64, flip bool) (bench, error) {
	cfg := trace.GenConfig{
		Ranks: 16, Events: 1024, Epochs: 4, Owners: 4, OwnerSkew: 0.5,
		Adjacency: 0.6, WriteFraction: 0.5, SafeOnly: true,
	}
	b := &serveBench{ranks: cfg.Ranks, flip: flip}
	for i, s := range subSeeds(seed, serveInputs) {
		c := cfg
		c.Seed = s
		c.PlantRace = racyAt[i]
		format := "bin"
		if jsonAt[i] {
			format = "json"
		}
		in, err := generate(c, format)
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
	_, srv, err := serve.Start("127.0.0.1:0", serve.Config{})
	if err != nil {
		return nil, err
	}
	b.srv, b.url = srv, srv.URL()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Warm-up: the offline replay of every input gives the verdict the
	// daemon must serve, then one submission per input warms the daemon
	// and the client's connections.
	for _, in := range b.inputs {
		res, err := replayBytes(in.data, nil, b.factory, trace.ReplayOpts{})
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		in.want = verdictOf(res)
	}
	for i := range b.inputs {
		if _, _, err := b.submit(b.inputs[i]); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up submission: %w", err)
		}
	}
	return b, nil
}

// submit sends one session and returns the HTTP status and verdict.
func (b *serveBench) submit(in *input) (int, *serve.Verdict, error) {
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(in.data)), nil }
	return serve.Submit(context.Background(), b.url, open, serve.SubmitOpts{Client: b.client})
}

// checkServed checks a served verdict against the construction and
// against the offline replay of the same bytes.
func (b *serveBench) checkServed(in *input, status int, v *serve.Verdict) error {
	if status != http.StatusOK {
		return fmt.Errorf("daemon answered HTTP %d: %s", status, v.Error)
	}
	got := verdict{Events: v.Events, Epochs: v.Epochs, MaxNodes: v.MaxNodes, Evictions: v.Evictions}
	if v.Race != nil {
		got.Race = v.Race.Message
	}
	if (got.Race != "") != (in.racy != b.flip) {
		return fmt.Errorf("served race %q, input racy=%v", got.Race, in.racy)
	}
	if got.Events != in.events {
		return fmt.Errorf("served %d events, generated %d", got.Events, in.events)
	}
	return checkVerdict(got, in.want)
}

func (b *serveBench) op(i int) (int, error) {
	in := b.inputs[i%len(b.inputs)]
	status, v, err := b.submit(in)
	if err != nil {
		return 0, err
	}
	return v.Events, b.checkServed(in, status, v)
}

func (b *serveBench) stats() inputStats { return statsOf(b.inputs) }

func (b *serveBench) close() {
	if tr, ok := b.client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	_ = b.srv.Close() // the run is over; a late accept error changes nothing
}

// scrape reads the daemon's /metrics and sums every series of the named
// metrics over their labels.
func (b *serveBench) scrape(names ...string) (map[string]float64, error) {
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want["rmarace_"+n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, "{")
		if !ok || !want[name] {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", name, err)
		}
		out[strings.TrimPrefix(name, "rmarace_")] += v
	}
	return out, sc.Err()
}

var serveStages = []string{"queue", "ingest", "drain", "report"}

// tracedServe is serve-mixed's traced run. The first half is the
// closed loop with a client span per session and the daemon's stage
// histograms scraped around it; the second half replays the same
// inputs offline, alternating op by op, in a shuffled order, a bare
// replay, one with a live registry and progress probe (what every
// served session pays) and one with the span wrappers.
func tracedServe(b *serveBench, seed int64, d time.Duration, r *runReport) error {
	names := []string{"serve_sessions_total", "serve_quota_rejects", "serve_limit_aborts"}
	for _, s := range serveStages {
		names = append(names, "serve_stage_"+s+"_nanos_sum")
	}
	before, err := b.scrape(names...)
	if err != nil {
		return err
	}
	phaseStart := now()
	ops := closedLoop(serveClients, d/2, b.op, r)
	for _, s := range ops {
		r.spans.op("serve.Submit", s.start, s.end-s.start)
	}
	after, err := b.scrape(names...)
	if err != nil {
		return err
	}
	sessions := after["serve_sessions_total"] - before["serve_sessions_total"]
	if sessions <= 0 {
		return fmt.Errorf("daemon counted no sessions in the traced window")
	}
	var stageSum float64
	phase := r.spans.op("serve.Submit (all sessions)", phaseStart, now()-phaseStart)
	for _, s := range serveStages {
		key := "serve_stage_" + s + "_nanos_sum"
		ns := after[key] - before[key]
		r.spans.child(phase, key, phaseStart, ns, int64(sessions))
		ms := ns / sessions / 1e6
		stageSum += ms
		r.layer("serve."+s+"_ms", ms)
	}
	var meanLat float64
	for _, s := range ops {
		meanLat += float64(s.end-s.start) / 1e6 / float64(len(ops))
	}
	r.layer("serve.transport_ms", meanLat-stageSum)
	r.layer("serve.rejects", after["serve_quota_rejects"]+after["serve_limit_aborts"]-before["serve_quota_rejects"]-before["serve_limit_aborts"])
	r.note("daemon phase: %d sessions, mean client latency %.3f ms, stage sum %.3f ms", len(ops), meanLat, stageSum)

	const (
		bare = iota
		instrumented
		spanned
		kinds
	)
	daemonReg := obs.NewRegistry()
	var (
		figs                            spanFigures
		regRatio, overhead, allocs, gcs []float64
	)
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(d / 2)
	rounds := 0
	for round := 0; time.Now().Before(deadline); round++ {
		in := b.inputs[round%len(b.inputs)]
		ev := float64(in.events)
		var ns [kinds]float64
		var t opTrace
		var traced trace.ReplayResult
		for _, kind := range rng.Perm(kinds) {
			var res trace.ReplayResult
			var err error
			a0, g0 := heapCounters()
			t0 := now()
			switch kind {
			case bare:
				res, err = replayBytes(in.data, nil, b.factory, trace.ReplayOpts{})
			case instrumented:
				// The daemon's per-session recording: a fresh session
				// registry behind store.Instrument and the analyzer
				// recorder, teed with the daemon-wide registry, plus the
				// progress probe.
				sreg := obs.NewRegistry()
				var f func(int) detector.Analyzer
				f, _, err = serve.NewAnalyzerFactory(detector.OurContribution, b.ranks, "", 1, sreg)
				if err == nil {
					res, err = replayBytes(in.data, nil, f, trace.ReplayOpts{
						Recorder: teeRecorder{sreg, daemonReg}, Progress: obs.NewProgress(),
					})
				}
			case spanned:
				wrap := func(s trace.Source) trace.Source { return &tracedSource{Source: s, t: &t} }
				res, err = replayBytes(in.data, wrap, tracedFactory(b.factory, &t), trace.ReplayOpts{})
			}
			ns[kind] = float64(now() - t0)
			if err == nil {
				err = checkConstruction(in, res, b.flip)
			}
			if err == nil {
				err = checkVerdict(verdictOf(res), in.want)
			}
			r.count(err)
			switch kind {
			case bare:
				a1, g1 := heapCounters()
				allocs = append(allocs, float64(a1-a0)/ev)
				gcs = append(gcs, float64(g1-g0))
			case spanned:
				id := r.spans.op("trace.ReplayStream", t0, int64(ns[kind]))
				r.spans.replayChildren(id, t0, &t)
				traced = res
			}
		}
		rounds++
		figs.add(&t, ns[spanned], traced)
		regRatio = append(regRatio, ns[instrumented]/ns[bare])
		overhead = append(overhead, ns[spanned]/ns[bare])
	}
	figs.report(r)
	st := b.stats()
	r.layer("tracebin.bytes_per_event", float64(st.Bytes)/float64(st.Events))
	r.layer("heap.alloc_bytes_per_event", median(allocs))
	r.layer("heap.gc_cycles_per_op", median(gcs))
	r.layer("obs.registry_overhead_ratio", median(regRatio))
	r.layer("trace_overhead_ratio", median(overhead))
	r.note("offline phase: %d rounds of bare / instrumented / spanned replays", rounds)
	r.fillLayers()
	return nil
}

// teeRecorder fans one recording stream into two registries, as the
// daemon does for its session and daemon-wide registries.
type teeRecorder struct{ a, b obs.Recorder }

func (t teeRecorder) Add(m obs.Metric, label int, delta int64) {
	t.a.Add(m, label, delta)
	t.b.Add(m, label, delta)
}
func (t teeRecorder) Set(m obs.Metric, label int, v int64) {
	t.a.Set(m, label, v)
	t.b.Set(m, label, v)
}
func (t teeRecorder) SetMax(m obs.Metric, label int, v int64) {
	t.a.SetMax(m, label, v)
	t.b.SetMax(m, label, v)
}
func (t teeRecorder) Observe(m obs.Metric, label int, v int64) {
	t.a.Observe(m, label, v)
	t.b.Observe(m, label, v)
}
func (t teeRecorder) Enabled() bool { return true }
