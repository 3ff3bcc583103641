package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of
// xs with the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so figures printed here match the
// steadiness check made over repeated runs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The cut points of CPython's exclusive method, integer arithmetic
	// and clamping included.
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// heapSampler tracks the high-water mark of the heap's object bytes in
// each slice of a timed window. It reads runtime/metrics, which does
// not stop the world, every millisecond.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per slice; written by the sampler until done closes
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler(start time.Time) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			k := int(time.Since(start) / segmentLen)
			for len(h.peaks) <= k {
				h.peaks = append(h.peaks, 0)
			}
			if v := float64(s[0].Value.Uint64()); v > h.peaks[k] {
				h.peaks[k] = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak
// of every slice.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.peaks
}

// heapCounters reads the cumulative allocation and GC-cycle counters;
// differences around an op give its allocation and collection cost.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// settle collects garbage left by earlier phases so that each set-up
// repetition and each timed window starts from the same heap state.
func settle() {
	runtime.GC()
	runtime.GC()
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
