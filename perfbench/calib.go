package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on shares its memory system with other
// machines' work, and that interference comes in phases lasting from
// seconds to minutes in which every workload runs up to twice as slowly.
// A dependent pointer chase over a buffer larger than a core's caches
// slows down with it: over 20 s stretches taken across such phases, its rate
// tracked replay-scatter's and live-halo's throughput with a
// correlation above 0.9, where a pure ALU loop or a channel ping-pong
// did not. So every timed phase is followed by a short chase, and the
// benchmark reports times in units of the host's memory latency: a
// time is multiplied by refStepNs ÷ the chase's measured ns per step,
// and a rate divided by it. On a host whose chase step takes refStepNs
// the figures are plain seconds. The raw figures and the chase's own
// are printed beside them and saved in the result file.
const (
	refStepNs  = 200.0
	chaseWords = 1 << 23 // 32 MiB of uint32 links
	chaseSteps = 1 << 17 // one burst: about 25-35 ms
)

// chase is a random single-cycle permutation of chaseWords links held
// outside the Go heap, so that it neither counts in peak_heap_bytes nor
// changes the collector's pacing of the program under test.
type chase struct {
	links []uint32
	at    uint32
}

func newChase() (*chase, error) {
	mem, err := syscall.Mmap(-1, 0, chaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration buffer: %w", err)
	}
	links := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseWords)
	// Sattolo's shuffle gives a single cycle through every link, with a
	// fixed seed so every run walks the same cycle.
	for i := range links {
		links[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := chaseWords - 1; i > 0; i-- {
		j := rng.Intn(i)
		links[i], links[j] = links[j], links[i]
	}
	return &chase{links: links}, nil
}

// stepNs runs one burst and returns its time per dependent load.
func (c *chase) stepNs() float64 {
	t0 := time.Now()
	at := c.at
	for i := 0; i < chaseSteps; i++ {
		at = c.links[at]
	}
	c.at = at
	return float64(time.Since(t0)) / chaseSteps
}

func (c *chase) close() {
	_ = syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&c.links[0])), chaseWords*4))
}
