package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/trace"
)

// sampleEvery is the 1-in-N sampling of per-record spans: Source.Read
// and the per-event Analyzer.Access are timed on every N-th call and
// the sampled time is scaled up by calls/samples. Batch calls, epoch
// boundaries and the op itself are timed on every call.
const sampleEvery = 16

var clockBase = time.Now()

// now is a monotonic nanosecond clock.
func now() int64 { return int64(time.Since(clockBase)) }

// clockCost is what an empty span measures: the cost of the two clock
// reads around it, subtracted from every timed child span so that
// sampled layers are not inflated by the tracing itself.
var clockCost = func() int64 {
	const n = 1 << 16
	var sum int64
	for i := 0; i < n; i++ {
		t0 := now()
		sum += now() - t0
	}
	return sum / n
}()

// since returns the time elapsed since t0, less the clock's own cost.
func since(t0 int64) int64 { return max(now()-t0-clockCost, 0) }

// sampled accumulates one sampled span kind.
type sampled struct {
	calls   int64
	samples int64
	ns      int64
}

// estimate scales the sampled time to all calls.
func (s sampled) estimate() float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.ns) * float64(s.calls) / float64(s.samples)
}

// opTrace is what the wrappers record during one traced op.
type opTrace struct {
	decode    sampled // Source.Read
	access    sampled // Analyzer.Access, one event per call
	batchNs   int64   // Analyzer.AccessBatch
	batches   int64
	batchEvs  int64
	epochNs   int64 // Analyzer.EpochEnd and Compacter.Compact
	epochs    int64
	syncNs    int64 // Release and CompleteRequest
	analyzers int64 // factory calls
}

// tracedSource wraps the trace.Source handed to ReplayStream and times
// its Read calls (the tracebin decode span).
type tracedSource struct {
	trace.Source
	t *opTrace
}

func (s *tracedSource) Read(r *trace.Record) error {
	s.t.decode.calls++
	if s.t.decode.calls%sampleEvery != 0 {
		return s.Source.Read(r)
	}
	t0 := now()
	err := s.Source.Read(r)
	s.t.decode.ns += since(t0)
	s.t.decode.samples++
	return err
}

// tracedAnalyzer wraps an analyzer the factory returns and times the
// calls ReplayStream makes into it (the core analysis span). It
// forwards every optional capability ReplayStream probes for through
// the detector package's own dispatch helpers, so the wrapped analyzer
// takes the same paths as the bare one.
type tracedAnalyzer struct {
	detector.Analyzer
	t *opTrace
}

func (a *tracedAnalyzer) Access(ev detector.Event) *detector.Race {
	a.t.access.calls++
	if a.t.access.calls%sampleEvery != 0 {
		return a.Analyzer.Access(ev)
	}
	t0 := now()
	r := a.Analyzer.Access(ev)
	a.t.access.ns += since(t0)
	a.t.access.samples++
	return r
}

func (a *tracedAnalyzer) AccessBatch(evs []detector.Event) *detector.Race {
	t0 := now()
	r := detector.AccessBatch(a.Analyzer, evs)
	a.t.batchNs += since(t0)
	a.t.batches++
	a.t.batchEvs += int64(len(evs))
	return r
}

func (a *tracedAnalyzer) EpochEnd() {
	t0 := now()
	a.Analyzer.EpochEnd()
	a.t.epochNs += since(t0)
	a.t.epochs++
}

func (a *tracedAnalyzer) Compact() {
	t0 := now()
	detector.Compact(a.Analyzer)
	a.t.epochNs += since(t0)
}

func (a *tracedAnalyzer) Release(rank int) {
	t0 := now()
	a.Analyzer.Release(rank)
	a.t.syncNs += since(t0)
}

func (a *tracedAnalyzer) CompleteRequest(rank int, iv interval.Interval) {
	t0 := now()
	detector.CompleteRequest(a.Analyzer, rank, iv)
	a.t.syncNs += since(t0)
}

// tracedSharder is tracedAnalyzer over a sharded analyzer: it also
// exposes the Sharder capability, which callers type-assert for.
type tracedSharder struct {
	*tracedAnalyzer
	s detector.Sharder
}

func (a tracedSharder) NumShards() int                        { return a.s.NumShards() }
func (a tracedSharder) ShardAnalyzer(i int) detector.Analyzer { return a.s.ShardAnalyzer(i) }
func (a tracedSharder) RouteEach(ev detector.Event, emit func(int, detector.Event)) {
	a.s.RouteEach(ev, emit)
}

// tracedFactory wraps an analyzer factory so every analyzer it builds
// records into t.
func tracedFactory(f func(int) detector.Analyzer, t *opTrace) func(int) detector.Analyzer {
	return func(owner int) detector.Analyzer {
		t.analyzers++
		a := f(owner)
		w := &tracedAnalyzer{Analyzer: a, t: t}
		if s, ok := a.(detector.Sharder); ok {
			return tracedSharder{tracedAnalyzer: w, s: s}
		}
		return w
	}
}

// spanFigures collects, op by op, the layer figures of traced replays.
type spanFigures struct {
	decodeRec, decodeShare, route, routeShare, analyze, analyzeShare []float64
	epochNs, fill, built, evictions, maxNodes                        []float64
}

// add records one traced replay op that took opNs and returns its
// decode, route and analysis (calls, epoch ends and syncs) self times.
func (f *spanFigures) add(t *opTrace, opNs float64, res trace.ReplayResult) (dec, route, analysis float64) {
	ev := float64(max(res.Events, 1))
	dec = t.decode.estimate()
	calls := t.access.estimate() + float64(t.batchNs)
	analysis = calls + float64(t.epochNs+t.syncNs)
	route = opNs - dec - analysis
	f.decodeRec = append(f.decodeRec, dec/float64(max(t.decode.calls, 1)))
	f.decodeShare = append(f.decodeShare, dec/opNs)
	f.route = append(f.route, route/ev)
	f.routeShare = append(f.routeShare, route/opNs)
	f.analyze = append(f.analyze, calls/ev)
	f.analyzeShare = append(f.analyzeShare, calls/opNs)
	f.epochNs = append(f.epochNs, float64(t.epochNs)/float64(max(t.epochs, 1)))
	f.fill = append(f.fill, float64(t.batchEvs+t.access.calls)/float64(max(t.batches+t.access.calls, 1)))
	f.built = append(f.built, float64(t.analyzers))
	f.evictions = append(f.evictions, float64(res.Evictions))
	f.maxNodes = append(f.maxNodes, float64(res.MaxNodes))
	return dec, route, analysis
}

// report sets the span-derived per-layer metrics to their medians.
func (f *spanFigures) report(r *runReport) {
	r.layer("tracebin.decode_ns_per_record", median(f.decodeRec))
	r.layer("tracebin.decode_share", median(f.decodeShare))
	r.layer("trace.route_ns_per_event", median(f.route))
	r.layer("trace.route_share", median(f.routeShare))
	r.layer("trace.batch_fill", median(f.fill))
	r.layer("trace.analyzers_built", median(f.built))
	r.layer("trace.evictions", median(f.evictions))
	r.layer("core.analyze_ns_per_event", median(f.analyze))
	r.layer("core.analyze_share", median(f.analyzeShare))
	r.layer("core.epoch_end_ns_per_epoch", median(f.epochNs))
	r.layer("core.max_nodes", median(f.maxNodes))
}

// span is one recorded span. Child spans of an op are aggregated: one
// span per layer carrying the summed (for sampled layers, scaled)
// duration and the number of calls it covers.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	spans []span
}

// op records an op span and returns its id.
func (l *spanLog) op(name string, start, dur int64) int64 {
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Name: name, Start: start, Dur: dur})
	return id
}

// child records an aggregated child span of parent.
func (l *spanLog) child(parent int64, name string, start int64, dur float64, calls int64) {
	if calls == 0 {
		return
	}
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, Dur: int64(dur), Calls: calls})
}

// replayChildren records the decode and analysis children of one traced
// replay op.
func (l *spanLog) replayChildren(parent, start int64, t *opTrace) {
	l.child(parent, "tracebin.Source.Read", start, t.decode.estimate(), t.decode.calls)
	l.child(parent, "detector.Analyzer.Access", start, t.access.estimate(), t.access.calls)
	l.child(parent, "detector.Analyzer.AccessBatch", start, float64(t.batchNs), t.batches)
	l.child(parent, "detector.Analyzer.EpochEnd", start, float64(t.epochNs), t.epochs)
}

// write saves the spans as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
