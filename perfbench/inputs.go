package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rmarace/internal/detector"
	"rmarace/internal/trace"
	"rmarace/internal/tracebin"
)

// input is one generated trace the workload cycles through.
type input struct {
	data   []byte
	format string // "bin" (RMTB) or "json"
	events int    // access events the generator wrote
	racy   bool   // the generator planted the planted.c 666/667 race
	// want is the verdict of the offline replay made during set-up; every
	// later op on this input must reproduce it.
	want verdict
}

// verdict is the part of a replay's outcome an op is checked against.
type verdict struct {
	Events    int
	Epochs    int
	MaxNodes  int
	Evictions int64
	Race      string // the race's report line, "" when none
}

func verdictOf(res trace.ReplayResult) verdict {
	v := verdict{Events: res.Events, Epochs: res.Epochs, MaxNodes: res.MaxNodes, Evictions: res.Evictions}
	if res.Race != nil {
		v.Race = res.Race.Message()
	}
	return v
}

// generate writes one synthetic trace in the given format.
func generate(cfg trace.GenConfig, format string) (*input, error) {
	var buf bytes.Buffer
	h := trace.Header{Ranks: cfg.Ranks, Window: "synthetic"}
	var sink trace.Sink
	var err error
	if format == "bin" {
		sink, err = tracebin.NewWriter(&buf, h)
	} else {
		sink, err = trace.NewWriter(&buf, h)
	}
	if err != nil {
		return nil, err
	}
	n, err := trace.GenerateTo(sink, cfg)
	if err != nil {
		return nil, fmt.Errorf("generating trace: %w", err)
	}
	return &input{data: buf.Bytes(), format: format, events: n, racy: cfg.PlantRace}, nil
}

// subSeeds derives k input seeds from the workload seed, so the same
// seed always yields the same inputs.
func subSeeds(seed int64, k int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, k)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// checkConstruction checks a replay against what the generator built:
// every generated event analysed, and no race on SafeOnly input or
// exactly the planted 666/667 pair. flip inverts the race expectation,
// which makes every op fail; it is the benchmark's self-check.
func checkConstruction(in *input, res trace.ReplayResult, flip bool) error {
	wantRace := in.racy != flip
	if res.Race == nil {
		if wantRace {
			return fmt.Errorf("no race reported, want the planted pair")
		}
		if res.Events != in.events {
			return fmt.Errorf("analysed %d events, generated %d", res.Events, in.events)
		}
		return nil
	}
	if !wantRace {
		return fmt.Errorf("unexpected race: %s", res.Race.Message())
	}
	if !isPlanted(res.Race) {
		return fmt.Errorf("race is not the planted pair: %s", res.Race.Message())
	}
	// The planted pair is the last thing the generator writes before the
	// final epoch boundaries, so an early stop still sees every event.
	if res.Events != in.events {
		return fmt.Errorf("analysed %d events before the race, generated %d", res.Events, in.events)
	}
	return nil
}

// isPlanted reports whether r is the generator's planted.c 666/667 pair.
func isPlanted(r *detector.Race) bool {
	a, b := r.Prev.Debug, r.Cur.Debug
	if a.File != "planted.c" || b.File != "planted.c" {
		return false
	}
	return (a.Line == 666 && b.Line == 667) || (a.Line == 667 && b.Line == 666)
}

// checkVerdict compares an op's outcome with the set-up replay's.
func checkVerdict(got, want verdict) error {
	if got != want {
		return fmt.Errorf("verdict %+v differs from the set-up replay's %+v", got, want)
	}
	return nil
}
