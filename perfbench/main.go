// Command perfbench is the rmarace benchmark: four closed-loop
// workloads over the analysis pipeline (offline replay of merging and
// scattered traces, the analysis daemon, the live MPI-RMA runtime),
// end-to-end metrics from an untraced run and per-layer metrics from a
// separate traced run. See README.md for the workloads, the metrics and
// which layer metric moves which end-to-end metric.
//
//	perfbench --workload replay-merge --seed 1 --seconds 25 --trace 0
//	perfbench --steady 10 --workload all --seconds 25
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// commit is the source revision, set at build time with
// -ldflags "-X main.commit=<rev>"; "unknown" outside a git checkout.
var commit = "unknown"

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 9

// bench is one workload's program under test after set-up.
type bench interface {
	// op runs one operation over input i (mod the input count), checks
	// its output and returns the access events it analysed.
	op(i int) (events int, err error)
	// stats describes the generated inputs for the result stamp.
	stats() inputStats
	close()
}

// inputStats describes a workload's generated inputs.
type inputStats struct {
	Inputs int   `json:"inputs"`
	Bytes  int64 `json:"input_bytes"`
	Events int64 `json:"input_events"`
}

// workload is one benchmark workload.
type workload struct {
	name    string
	clients int
	setup   func(seed int64, flip bool) (bench, error)
	// traced runs the workload's traced run for d, filling r's
	// per-layer metrics.
	traced func(b bench, seed int64, d time.Duration, r *runReport) error
}

var workloads = []*workload{replayMerge, replayScatter, serveMixed, liveHalo}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport collects one run's outcome.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// order keeps the metrics in the order they were set, for printing.
	order []string
	// Notes are human-readable remarks printed beside the metrics
	// (sample counts, disagreeing layers, first failures).
	Notes []string `json:"notes,omitempty"`
	// Stamp identifies the machine, toolchain, source and inputs, so two
	// result files can be compared.
	Stamp stamp `json:"stamp"`
	// Series are the per-segment and per-op figures the untraced run's
	// metrics are taken from.
	Series *series `json:"series,omitempty"`
	spans  spanLog
	mu     sync.Mutex
}

type series struct {
	SegmentNs     []float64 `json:"segment_ns"`
	SegmentEvents []int     `json:"segment_events"`
	StepNs        []float64 `json:"step_ns"` // the burst after each segment
	SlicePeakHeap []float64 `json:"slice_peak_heap_bytes"`
	OpMs          []float64 `json:"op_ms"`      // in start order
	OpSegment     []int     `json:"op_segment"` // the segment each op ran in
}

type stamp struct {
	NumCPU     int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	Seed       int64      `json:"seed"`
	Inputs     inputStats `json:"inputs"`
	SetupRuns  []float64  `json:"setup_runs_s"`
	// SetupStepNs is the calibration burst after each set-up.
	SetupStepNs []float64 `json:"setup_step_ns,omitempty"`
}

func (r *runReport) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runReport) note(format string, args ...any) {
	r.mu.Lock()
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// count tallies one checked op, noting the first few failures.
func (r *runReport) count(err error) {
	r.mu.Lock()
	r.Attempted++
	failed := err != nil
	if failed {
		r.Failed++
	}
	first := failed && r.Failed <= 3
	r.mu.Unlock()
	if first {
		r.note("op failed its output check: %v", err)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all (with --steady)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 25, "length of the timed window")
		traced  = flag.Int("trace", 0, "1 runs the traced run that reports per-layer metrics")
		flip    = flag.Bool("flip", false, "self-check: invert every expected verdict, so every op must fail its check")
		steady  = flag.Int("steady", 0, "steadiness mode: run each workload N times with seeds seed..seed+N-1 in child processes and print the spread of every metric")
		outDir  = flag.String("results", filepath.Join(".bench_build", "results"), "directory for result and span files")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *traced == 1, *steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *flip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced)
	if *flip {
		base += "-flip"
	}
	if err := r.save(filepath.Join(*outDir, base+".json")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
		os.Exit(1)
	}
	if *traced == 1 {
		if err := r.spans.write(filepath.Join(*outDir, base+".spans.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
	}
	r.print(os.Stdout)
}

// run sets the workload up setupReps times, then measures it. An
// untraced run follows every set-up with a calibration burst.
func run(w *workload, seed int64, d time.Duration, traced, flip bool) (*runReport, error) {
	var ch *chase
	if !traced {
		var err error
		if ch, err = newChase(); err != nil {
			return nil, err
		}
		defer ch.close()
	}
	var b bench
	var setups, steps []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		settle()
		t0 := time.Now()
		var err error
		b, err = w.setup(seed, flip)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ch != nil {
			steps = append(steps, ch.stepNs())
		}
	}
	defer b.close()
	r := &runReport{Workload: w.name, Seed: seed, Traced: traced, Seconds: d.Seconds(), Metrics: map[string]metric{}}
	r.Stamp = stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Inputs: b.stats(), SetupRuns: setups, SetupStepNs: steps,
	}
	settle()
	if traced {
		if err := w.traced(b, seed, d, r); err != nil {
			return nil, err
		}
		return r, nil
	}
	measure(w, b, ch, d, r)
	return r, nil
}

// segmentLen is the length of one timed segment of the untraced run; a
// calibration burst follows each.
const segmentLen = time.Second

// sample is one op of a closed loop, timed on the now() clock.
type sample struct {
	start, end int64
	events     int
}

// closedLoop runs clients closed-loop clients, each calling op with the
// next input index as soon as its previous op returned, until d has
// passed; it returns once every client's last op has. Every op's
// outcome is counted in r; a failed op's events are not credited.
func closedLoop(clients int, d time.Duration, op func(i int) (int, error), r *runReport) []sample {
	var next atomic.Int64
	per := make([][]sample, clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := now()
				ev, err := op(i)
				t1 := now()
				r.count(err)
				if err != nil {
					ev = 0
				}
				per[c] = append(per[c], sample{t0, t1, ev})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, ss := range per {
		all = append(all, ss...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// measure is the untraced run: w.clients closed-loop clients for d, in
// segments of segmentLen with a calibration burst after each. Each
// segment's throughput and each op's latency are put in memory-latency
// units with the burst that followed it (see calib.go). events_per_s
// is the mean over segments and p50_ms is taken over every op. The
// latency tail is where the host's shorter bursts of interference land
// even after calibration, so p90_ms is taken over the ops of the quiet
// segments only: the faster half by calibrated throughput. That still
// leaves hundreds of ops, tens of them beyond the p90.
func measure(w *workload, b bench, ch *chase, d time.Duration, r *runReport) {
	heap := startHeapSampler(time.Now())
	segs := max(int(d/segmentLen), 1)
	sr := &series{}
	var rates, rawRates, lats, rawLats []float64
	var opSeg []int
	done := 0
	for k := 0; k < segs; k++ {
		t0 := now()
		ops := closedLoop(w.clients, d/time.Duration(segs), func(i int) (int, error) { return b.op(done + i) }, r)
		ns := float64(now() - t0)
		step := ch.stepNs()
		toRef := refStepNs / step // multiplies times, divides rates
		done += len(ops)
		ev := 0
		for _, s := range ops {
			ev += s.events
			ms := float64(s.end-s.start) / 1e6
			rawLats = append(rawLats, ms)
			lats = append(lats, ms*toRef)
			opSeg = append(opSeg, k)
		}
		rawRates = append(rawRates, float64(ev)/ns*1e9)
		rates = append(rates, float64(ev)/ns*1e9/toRef)
		sr.SegmentNs = append(sr.SegmentNs, ns)
		sr.SegmentEvents = append(sr.SegmentEvents, ev)
		sr.StepNs = append(sr.StepNs, step)
	}
	sr.SlicePeakHeap = heap.finish()
	sr.OpMs, sr.OpSegment = rawLats, opSeg

	// The quiet segments: the faster half, ties broken by position.
	order := make([]int, segs)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return rates[order[i]] > rates[order[j]] })
	quiet := make([]bool, segs)
	for _, k := range order[:(segs+1)/2] {
		quiet[k] = true
	}
	var quietLats []float64
	for i, ms := range lats {
		if quiet[opSeg[i]] {
			quietLats = append(quietLats, ms)
		}
	}
	setupStep := mean(r.Stamp.SetupStepNs)
	stepLo, _, stepHi := quartiles(sr.StepNs)
	r.Series = sr
	errorRatio := float64(r.Failed) / float64(max(r.Attempted, 1))
	r.set("events_per_s", mean(rates), "1/s")
	r.set("p50_ms", percentile(lats, 50), "ms")
	r.set("p90_ms", percentile(quietLats, 90), "ms")
	r.set("peak_heap_bytes", median(sr.SlicePeakHeap), "bytes")
	r.set("setup_s", median(r.Stamp.SetupRuns)*refStepNs/setupStep, "s")
	r.set("ok_ratio", 1-errorRatio, "ratio")
	r.note("memory latency: %.1f ns per chase step over the window's %d bursts (quartiles %.1f / %.1f), %.1f ns over the set-ups'; figures are scaled to %.0f ns",
		mean(sr.StepNs), segs, stepLo, stepHi, setupStep, refStepNs)
	r.note("latency: p50 over all %d ops, p90 over the %d ops of the %d quiet segments of %d; %d clients",
		len(lats), len(quietLats), (segs+1)/2, segs, w.clients)
	r.note("raw: %.6g events/s, p50 %.4g ms, p90 %.4g ms (all ops), set-up %.4g s; error_ratio %.4f",
		mean(rawRates), percentile(rawLats, 50), percentile(rawLats, 90), median(r.Stamp.SetupRuns), errorRatio)
	if len(quietLats) < 100 {
		r.note("WARNING: fewer than 100 quiet ops; p90 has fewer than 10 samples beyond it")
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable metric lines and then the result line.
func (r *runReport) print(f *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d %s run, %.0f s window; nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Stamp.NumCPU, r.Stamp.GOMAXPROCS, r.Stamp.GoVersion, r.Stamp.Commit)
	fmt.Fprintf(f, "inputs: %d, %d bytes, %d events; set-up runs %v s\n",
		r.Stamp.Inputs.Inputs, r.Stamp.Inputs.Bytes, r.Stamp.Inputs.Events, r.Stamp.SetupRuns)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(f, "  note:", n)
	}
	fmt.Fprintf(f, "ops: %d attempted, %d failed\n", r.Attempted, r.Failed)
	line, _ := json.Marshal(result{
		Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics,
	})
	fmt.Fprintln(f, string(line))
}

// save writes the stamped result file.
func (r *runReport) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
