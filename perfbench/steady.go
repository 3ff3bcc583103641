package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness runs each selected workload n times, each in a child
// process with its own seed as the benchmark's users run it, and prints
// for every metric the median, the quartiles, the interquartile range
// as a share of the median, and each run's op count.
func steadiness(name string, seed int64, seconds float64, traced bool, n int) error {
	var ws []*workload
	if name == "all" || name == "" {
		ws = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		ws = []*workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, w := range ws {
		values := map[string][]float64{}
		units := map[string]string{}
		var ops []int64
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", traceArg)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: unreadable result line: %w", w.name, s, err)
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: INCORRECT (%d of %d ops failed)\n", w.name, s, res.Failed, res.Attempted)
			}
			ops = append(ops, res.Attempted)
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %.0f s each; ops per run %v\n", w.name, n, seed, seed+int64(n)-1, seconds, ops)
		fmt.Printf("  %-34s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, k := range sortedKeys(values) {
			q1, med, q3 := quartiles(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-34s %14.6g %14.6g %14.6g %7.1f%%  %s\n", k, q1, med, q3, 100*spread, units[k])
		}
	}
	return nil
}
