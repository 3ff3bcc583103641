package fuzz

import (
	"math/rand"

	"rmarace/internal/access"
	"rmarace/internal/detector"
	"rmarace/internal/interval"
	"rmarace/internal/trace"
)

// FileName is the synthetic source file of every generated access.
const FileName = "fuzz.c"

// scheduleOrder returns, per epoch, the op indices in scheduled
// execution order: a seeded interleaving of the per-(rank, thread)
// operation streams, grouped by effective epoch (a thread-1 op emits
// under its thread's last resynchronisation epoch, so hoisted hybrid
// work lands in the epoch it actually executes in). Per-thread program
// order is always preserved (each thread's ops appear in listed
// order), which is what makes the oracle's verdict set
// schedule-invariant for every program Program.ScheduleInvariant
// admits — the only ordered constructs the race predicate then cares
// about are same-stream ones, and those never reorder. (Mixed
// shared/exclusive SyncLock programs and programs with thread-1 ops
// are the exceptions: release ordering and cross-thread same-rank
// interleaving make their verdicts schedule-dependent by the
// semantics of locks and threads themselves.)
// Seed 0 is the identity schedule: global program order.
func scheduleOrder(p Program, seed int64) [][]int {
	eff := p.effEpochs()
	out := make([][]int, p.Epochs)
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	for e := 0; e < p.Epochs; e++ {
		if rng == nil {
			for i := range p.Ops {
				if eff[i] == e {
					out[e] = append(out[e], i)
				}
			}
			continue
		}
		// Per-(rank, thread) queues, drained by a pick weighted by
		// remaining length so long streams don't starve. Thread-0-only
		// programs leave the odd queues empty, so the draw sequence is
		// identical to the historical per-rank scheduling.
		queues := make([][]int, p.Ranks*2)
		remaining := 0
		for i := range p.Ops {
			if eff[i] != e {
				continue
			}
			q := p.Ops[i].Origin*2 + p.Ops[i].Thread
			queues[q] = append(queues[q], i)
			remaining++
		}
		for remaining > 0 {
			n := rng.Intn(remaining)
			for r := range queues {
				if n < len(queues[r]) {
					out[e] = append(out[e], queues[r][0])
					queues[r] = queues[r][1:]
					break
				}
				n -= len(queues[r])
			}
			remaining--
		}
	}
	return out
}

// LiveSeq flattens a schedule into the StepBarrier sequence for a live
// run: one entry per operation (every op takes a step, analysed or
// not), holding the issuing rank.
func LiveSeq(p Program, schedSeed int64) []int {
	p = Normalize(p)
	var seq []int
	for _, idxs := range scheduleOrder(p, schedSeed) {
		for _, i := range idxs {
			seq = append(seq, p.Ops[i].Origin)
		}
	}
	return seq
}

// opTypes returns the origin- and target-side access types of a
// one-sided op, mirroring the instrumentation: Put reads its origin
// buffer and writes the target window, Get the reverse, Accumulate
// reads the origin buffer and accum-writes the target window. The
// request-based forms access memory exactly like their blocking
// counterparts.
func opTypes(k OpKind) (origin, target access.Type) {
	switch k {
	case OpPut, OpRput:
		return access.RMARead, access.RMAWrite
	case OpGet, OpRget:
		return access.RMAWrite, access.RMARead
	default: // OpAccum
		return access.RMARead, access.RMAAccum
	}
}

// Render produces the trace records the instrumentation layer would
// emit for one run of p under the given schedule, mirroring the live
// runtime's semantics record for record:
//
//   - a one-sided op yields an origin-side event at the origin's own
//     analyzer (its private buffer, stamped with the origin's epoch) and
//     a target-side event at the target's analyzer (the window region,
//     stamped with the target's epoch — notifications are drained before
//     the target's EpochEnd, so the stamp is the target's current
//     counter);
//   - local loads and stores are analysed only inside an open passive
//     or fence epoch (SyncLockAll, SyncFence); under SyncPSCW and
//     SyncLock they fall outside every epoch and are not collected;
//   - a multi-block (derived datatype) op emits one target-side event
//     per strided block and a single contiguous origin-side event
//     covering Len*Count slots;
//   - window w's streams are the synthetic owners w*Ranks + rank.
//     Target-side events and on-window locals go to the op's window
//     stream; origin-side private-buffer events always go to the
//     origin's base stream (window 0), so buffer reuse across windows
//     meets in one analyzer;
//   - a request op (Rput/Rget) leaves its origin-buffer span
//     outstanding; the rank's next OpWaitAll emits one "complete"
//     record per outstanding request, retiring the span's one-sided
//     origin accesses at the rank's own analyzer. Local completion
//     emits nothing at the target — MPI_Wait does not synchronise the
//     target side. Epoch boundaries drop outstanding requests without
//     completes (epoch_end already clears the stores);
//   - each epoch boundary emits one epoch_end per stream (UnlockAll,
//     Fence, or PSCW Wait — all ranks synchronise each phase, on every
//     window);
//   - in SyncLock programs an exclusive unlock emits a release of the
//     origin's accesses at the target's window stream, immediately
//     after the op it brackets; shared unlocks release nothing.
func Render(p Program, schedSeed int64) []trace.Record {
	p = Normalize(p)
	streams := p.Ranks * p.Windows
	times := make([]uint64, p.Ranks)
	ep := make([]uint64, streams)
	outstanding := make([][]interval.Interval, p.Ranks)
	var recs []trace.Record
	owner := func(win, r int) int { return win*p.Ranks + r }
	emit := func(ow int, a access.Access, t uint64) {
		recs = append(recs, trace.AccessRecord(ow, detector.Event{Acc: a, Time: t, CallTime: t}))
	}
	for _, idxs := range scheduleOrder(p, schedSeed) {
		for _, i := range idxs {
			op := p.Ops[i]
			o := op.Origin
			dbg := access.Debug{File: FileName, Line: op.Line}
			switch op.Kind {
			case OpSignal, OpWaitSig:
				continue // rank-internal thread sync: no records
			case OpWaitAll:
				for _, iv := range outstanding[o] {
					recs = append(recs, trace.Record{Kind: trace.KindComplete, Owner: o, Rank: o, Lo: iv.Lo, Hi: iv.Hi})
				}
				outstanding[o] = outstanding[o][:0]
				continue
			}
			if op.Kind.IsRMA() {
				times[o]++
				ct := times[o]
				oT, tT := opTypes(op.Kind)
				oiv := interval.Span(localBase+uint64(op.LSlot*Slot), uint64(op.Len*op.Count*Slot))
				emit(o, access.Access{
					Interval: oiv,
					Type:     oT, Rank: o, Epoch: ep[o], Debug: dbg,
				}, ct)
				tgt := owner(op.Win, op.Target)
				for k := 0; k < op.Count; k++ {
					woff := op.WOff + k*op.Stride
					emit(tgt, access.Access{
						Interval: interval.Span(winBase+uint64(woff*Slot), uint64(op.Len*Slot)),
						Type:     tT, Rank: o, Epoch: ep[tgt], AccumOp: op.AOp, Debug: dbg,
					}, ct)
				}
				if op.Kind.IsRequest() {
					outstanding[o] = append(outstanding[o], oiv)
				}
				if p.Sync == SyncLock && !op.Shared {
					recs = append(recs, trace.Record{Kind: trace.KindRelease, Owner: tgt, Rank: o})
				}
				continue
			}
			if p.Sync != SyncLockAll && p.Sync != SyncFence {
				continue // outside any epoch: not collected
			}
			times[o]++
			tp := access.LocalRead
			if op.Kind == OpStore {
				tp = access.LocalWrite
			}
			ow := o
			iv := interval.Span(localBase+uint64(op.LSlot*Slot), uint64(op.Len*Slot))
			if op.OnWin {
				ow = owner(op.Win, o)
				iv = interval.Span(winBase+uint64(op.WOff*Slot), uint64(op.Len*Slot))
			}
			emit(ow, access.Access{Interval: iv, Type: tp, Rank: o, Epoch: ep[ow], Debug: dbg}, times[o])
		}
		if p.Sync != SyncLock {
			for s := 0; s < streams; s++ {
				recs = append(recs, trace.Record{Kind: trace.KindEpochEnd, Owner: s})
				ep[s]++
			}
			for r := range outstanding {
				outstanding[r] = outstanding[r][:0]
			}
		}
	}
	return recs
}
