package trace

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
)

// GenConfig parameterises synthetic trace generation.
type GenConfig struct {
	Ranks int
	// Events is the number of access events per epoch.
	Events int
	// Epochs is the number of passive-target epochs.
	Epochs int
	// Owners is the number of distinct window owners the accesses are
	// distributed over — each (owner, window) gets its own analyzer on
	// replay, so this is the resident-state axis of the scale sweep.
	// 0 or 1 keeps the single-owner traces earlier PRs generated; it
	// must not exceed Ranks (an owner is a rank).
	Owners int
	// OwnerSkew in [0,1) concentrates accesses on low-numbered owners:
	// 0 spreads them uniformly, values near 1 send nearly everything to
	// owner 0 and leave the tail of owners cold for epochs at a time —
	// the workload shape the replay's cold-owner eviction policy is for.
	OwnerSkew float64
	// Adjacency in [0,1] is the fraction of accesses placed directly
	// after the rank's previous access (mergeable pattern, CFD-style);
	// the rest are strided (MiniVite-style).
	Adjacency float64
	// WriteFraction in [0,1] is the fraction of RMA accesses that are
	// writes. Overlapping writes may produce genuine races on replay;
	// generation does not prevent them unless SafeOnly is set.
	WriteFraction float64
	// SafeOnly partitions the address space per rank so the trace
	// replays race-free under a sound detector.
	SafeOnly bool
	// PlantRace appends, in the last epoch, one deterministic pair of
	// overlapping RMA writes from two ranks — a guaranteed race for any
	// sound detector, placed at a fixed address no generated access can
	// touch. Used to seed postmortem / flight-recorder demonstrations.
	PlantRace bool
	Seed      int64
}

// uniqBase is the SafeOnly strided region's base. It must clear every
// adjacent-cursor region (rank << 30), so generation caps Ranks at
// 1<<15: rank 32768's cursor would start exactly here.
const uniqBase = uint64(1) << 45

// plantedLo is the planted race's interval base: far above both the
// adjacent-cursor regions (rank << 30) and the SafeOnly unique region
// (uniqBase).
const plantedLo = uint64(1) << 50

// Generate writes a synthetic JSON trace. It returns the number of
// access events written.
func Generate(w io.Writer, cfg GenConfig) (int, error) {
	tw, err := NewWriter(w, Header{Ranks: cfg.Ranks, Window: "synthetic"})
	if err != nil {
		return 0, err
	}
	return GenerateTo(tw, cfg)
}

// GenerateTo writes a synthetic trace to any sink — the JSON Writer or
// the binary tracebin.Writer — whose header the caller has already
// written with Ranks: cfg.Ranks, Window: "synthetic". It returns the
// number of access events written.
//
// Addresses are partitioned per issuing rank (adjacent runs grow a
// cursor in a low per-rank region; SafeOnly strided accesses draw
// strictly increasing unique addresses from a high region), so
// distributing the accesses over multiple owners never manufactures or
// hides a race: any overlapping pair would involve the same issuing
// rank's addresses and land at the same owner either way.
func GenerateTo(tw Sink, cfg GenConfig) (int, error) {
	if cfg.Ranks <= 0 || cfg.Events <= 0 || cfg.Epochs <= 0 {
		return 0, fmt.Errorf("trace: invalid generation config %+v", cfg)
	}
	if cfg.Ranks > 1<<15 {
		return 0, fmt.Errorf("trace: %d ranks exceed the %d the address partitioning supports", cfg.Ranks, 1<<15)
	}
	owners := cfg.Owners
	if owners <= 0 {
		owners = 1
	}
	if owners > cfg.Ranks {
		return 0, fmt.Errorf("trace: %d owners exceed %d ranks", owners, cfg.Ranks)
	}
	if cfg.OwnerSkew < 0 || cfg.OwnerSkew >= 1 {
		return 0, fmt.Errorf("trace: owner skew %v outside [0,1)", cfg.OwnerSkew)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	written := 0
	const span = 1 << 20
	cursor := make([]uint64, cfg.Ranks)
	uniq := make([]uint64, cfg.Ranks)
	times := make([]uint64, cfg.Ranks)
	for r := range cursor {
		cursor[r] = uint64(r) << 30
	}
	// pickOwner skews toward owner 0 by raising a uniform draw to a
	// power: exponent 1 at skew 0 (uniform), growing without bound as
	// skew approaches 1 (everything lands on owner 0).
	pickOwner := func() int {
		if owners == 1 {
			return 0
		}
		u := rng.Float64()
		if cfg.OwnerSkew > 0 {
			u = math.Pow(u, 1/(1-cfg.OwnerSkew))
		}
		o := int(u * float64(owners))
		if o >= owners {
			o = owners - 1
		}
		return o
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := 0; i < cfg.Events; i++ {
			rank := rng.Intn(cfg.Ranks)
			times[rank]++
			var lo uint64
			adjacent := rng.Float64() < cfg.Adjacency
			switch {
			case adjacent:
				lo = cursor[rank]
			case cfg.SafeOnly:
				lo = uniqBase + (uniq[rank]*uint64(cfg.Ranks)+uint64(rank))*16
				uniq[rank]++
			default:
				lo = uint64(rng.Intn(span)) * 16
			}
			n := uint64(8)
			if adjacent {
				cursor[rank] = lo + n
			}

			tp := access.RMARead
			if rng.Float64() < cfg.WriteFraction {
				tp = access.RMAWrite
			}
			if adjacent {
				// One source line per adjacent run keeps it mergeable;
				// writes stay safe because the cursor never revisits an
				// address.
				tp = access.RMAWrite
			}
			line := 100
			if !adjacent {
				line = 200 + rng.Intn(4)
			}
			ev := detector.Event{
				Acc: access.Access{
					Interval: interval.Span(lo, n),
					Type:     tp,
					Rank:     rank,
					Epoch:    uint64(epoch),
					Debug:    access.Debug{File: "synthetic.c", Line: line},
				},
				Time:     times[rank],
				CallTime: times[rank],
			}
			if err := tw.Record(AccessRecord(pickOwner(), ev)); err != nil {
				return written, err
			}
			written++
		}
		if cfg.PlantRace && epoch == cfg.Epochs-1 {
			other := 0
			if cfg.Ranks > 1 {
				other = 1
			}
			for i, rank := range []int{0, other} {
				times[rank]++
				ev := detector.Event{
					Acc: access.Access{
						Interval: interval.Span(plantedLo, 8),
						Type:     access.RMAWrite,
						Rank:     rank,
						Epoch:    uint64(epoch),
						Debug:    access.Debug{File: "planted.c", Line: 666 + i},
					},
					Time:     times[rank],
					CallTime: times[rank],
				}
				// Both planted writes go to owner 0 so they meet at one
				// analyzer regardless of the owner distribution.
				if err := tw.Record(AccessRecord(0, ev)); err != nil {
					return written, err
				}
				written++
			}
		}
		// Every owner gets its epoch boundary, accessless owners
		// included: boundaries are what lets a replay's eviction policy
		// observe that an owner has gone cold.
		for o := 0; o < owners; o++ {
			if err := tw.Record(Record{Kind: KindEpochEnd, Owner: o}); err != nil {
				return written, err
			}
		}
	}
	return written, tw.Flush()
}
