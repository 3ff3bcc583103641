// Shard worker pool: when a rank's analyzer is a detector.Sharder, the
// rank's receiver stops analysing in-line and becomes a router — it
// splits each arriving batch at shard boundaries and hands the per-shard
// sub-batches to a bounded pool of workers, one goroutine per shard,
// each serialising its own sub-analyzer. The count-and-drain quiescence
// protocol is preserved exactly:
//
//   - An event batch credits the rank's received counter only once every
//     one of its shard pieces has been analysed. A batch landing in a
//     single shard carries its credit directly; a batch split across
//     shards shares a batchRef whose atomic countdown lets the last
//     finishing worker add the credit. Either way the sender's expected
//     count (original events, not pieces) is matched and WaitReceived
//     cannot return while any piece is still queued or in flight.
//   - A sync marker is a barrier: before acknowledging, the receiver
//     sends a flush token down every shard channel and waits for all of
//     them to bounce back. Channels are FIFO, so the bounce proves every
//     piece enqueued before the marker has been analysed — the same
//     "everything ahead of the marker is done" guarantee the serial path
//     gives — and only then does Release/Ack/credit happen.
//
// Workers never send to anything but the (buffered, non-blocking) flush
// reply channel, so they cannot deadlock against the router and exit
// promptly on stop/close.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"rmarace/internal/detector"
	"rmarace/internal/obs"
	"rmarace/internal/obs/span"
)

// rankShards is one sharded rank's pool state.
type rankShards struct {
	top  detector.Sharder
	subs []detector.Analyzer
	// mu serialises each sub-analyzer between its worker and the rank's
	// origin-side Analyse calls; lifecycle operations take all of them.
	mu []sync.Mutex
	ch []chan shardMsg
	// out is the router's reusable partition table; a non-nil entry is a
	// pooled buffer being filled, handed off (and nilled) at dispatch.
	out [][]detector.Event
	// emit appends a routed piece to its shard's out buffer. Built once
	// so the per-batch RouteEach calls allocate no closure.
	emit func(int, detector.Event)
}

// shardMsg is one message on a shard channel: a sub-batch to analyse, or
// a flush token (flush != nil) the worker bounces straight back.
type shardMsg struct {
	evs []detector.Event
	// credit is the received-counter credit this message carries when it
	// is a whole batch's only piece; 0 when ref carries it instead.
	credit int64
	// ref is the shared completion of a batch split across shards.
	ref   *batchRef
	flush chan<- struct{}
}

// batchRef counts down the outstanding shard pieces of one split batch;
// the worker that zeroes pending credits the full batch.
type batchRef struct {
	pending int32
	credit  int64
}

// minShardChanCap floors each shard channel's capacity.
const minShardChanCap = 16

// newRankShards builds the pool state for one sharded rank. Workers are
// started by StartReceiver alongside the rank's router.
func (e *Engine) newRankShards(top detector.Sharder) *rankShards {
	k := top.NumShards()
	rs := &rankShards{
		top:  top,
		subs: make([]detector.Analyzer, k),
		mu:   make([]sync.Mutex, k),
		ch:   make([]chan shardMsg, k),
		out:  make([][]detector.Event, k),
	}
	chCap := e.cfg.ChannelCap / k
	if chCap < minShardChanCap {
		chCap = minShardChanCap
	}
	for i := 0; i < k; i++ {
		rs.subs[i] = top.ShardAnalyzer(i)
		rs.ch[i] = make(chan shardMsg, chCap)
	}
	rs.emit = func(s int, piece detector.Event) {
		if rs.out[s] == nil {
			rs.out[s] = e.GetEventBuf()
		}
		rs.out[s] = append(rs.out[s], piece)
	}
	return rs
}

func (rs *rankShards) lockAll() {
	for i := range rs.mu {
		rs.mu[i].Lock()
	}
}

func (rs *rankShards) unlockAll() {
	for i := len(rs.mu) - 1; i >= 0; i-- {
		rs.mu[i].Unlock()
	}
}

// processSharded is the router-side process(): it partitions event
// batches across the shard channels and turns sync markers into flush
// barriers.
func (e *Engine) processSharded(rank int, rs *rankShards, b Batch) {
	if b.Sync {
		if !e.drainShards(rank, rs) {
			return // stopping or closed; waiters are woken elsewhere
		}
		if b.Release {
			rs.lockAll()
			rs.top.Release(b.Origin)
			rs.unlockAll()
			e.flight[rank].Mark(detector.FlightRelease, b.Origin)
		} else {
			e.flight[rank].Mark(detector.FlightSync, b.Origin)
		}
		// Credit the marker before acknowledging it: an acknowledged
		// sync has been counted (TestShardedSyncBarrier).
		e.addReceived(rank, 1)
		if b.Ack != nil {
			close(b.Ack)
		}
		return
	}
	epoch := atomic.LoadUint64(&e.epochs[rank])
	for i := range b.Evs {
		b.Evs[i].Acc.Epoch = epoch
	}
	if e.flight[rank] != nil {
		for i := range b.Evs {
			e.flight[rank].Access(b.Evs[i].Acc)
		}
	}
	var spanStart int64
	if e.spanOn {
		spanStart = e.spans.Now()
	}
	for i := range b.Evs {
		rs.top.RouteEach(b.Evs[i], rs.emit)
	}
	// The sharded notif-batch span covers the router's work (the
	// analysis itself runs asynchronously in the shard workers); it
	// still closes the origin's causal flow, which is what binds the
	// send to its processing in the timeline.
	if e.spanOn {
		defer e.recordBatchSpan(rank, spanStart, int64(len(b.Evs)), int64(epoch), b.Flow)
	}
	credit := int64(len(b.Evs))
	e.PutEventBuf(b.Evs)
	touched, last := 0, 0
	for s := range rs.out {
		if len(rs.out[s]) > 0 {
			touched++
			last = s
		}
	}
	switch touched {
	case 0:
		e.addReceived(rank, credit)
	case 1:
		// Fast path: the whole batch landed in one shard, so the message
		// carries the credit itself and no batchRef is needed.
		evs := rs.out[last]
		rs.out[last] = nil
		e.dispatch(rank, rs, last, shardMsg{evs: evs, credit: credit})
	default:
		ref := e.getBatchRef()
		ref.pending = int32(touched)
		ref.credit = credit
		for s := range rs.out {
			if len(rs.out[s]) == 0 {
				continue
			}
			evs := rs.out[s]
			rs.out[s] = nil
			e.dispatch(rank, rs, s, shardMsg{evs: evs, ref: ref})
		}
	}
}

// dispatch enqueues m on shard s's channel with the same
// overflow-counting backpressure as the rank channels: a full channel
// blocks the router (never drops) until the worker drains or the engine
// stops/closes.
func (e *Engine) dispatch(rank int, rs *rankShards, s int, m shardMsg) {
	select {
	case rs.ch[s] <- m:
		if e.recOn {
			e.rec.SetMax(obs.ShardQueueDepth, s, int64(len(rs.ch[s])))
		}
		return
	default:
	}
	atomic.AddInt64(&e.overflows[rank], 1)
	if e.recOn {
		e.rec.Add(obs.EngineOverflows, rank, 1)
		e.rec.SetMax(obs.ShardQueueDepth, s, int64(cap(rs.ch[s])))
		start := time.Now()
		defer func() { e.rec.Add(obs.EngineBlockNanos, rank, int64(time.Since(start))) }()
	}
	select {
	case rs.ch[s] <- m:
	case <-e.cfg.Stop:
	case <-e.closed:
	}
}

// drainShards sends a flush token down every shard channel and waits for
// all of them to bounce back, proving every previously enqueued piece
// has been analysed. It reports false if the engine stopped or closed
// before the barrier completed.
func (e *Engine) drainShards(rank int, rs *rankShards) bool {
	var spanStart int64
	if e.spanOn {
		spanStart = e.spans.Now()
		defer func() {
			e.spans.Record(rank, span.Record{
				Kind: span.KindShardDrain, Tid: span.TidEngine,
				Start: spanStart, Dur: e.spans.Now() - spanStart,
				A: int64(len(rs.ch)),
			})
		}()
	}
	done := make(chan struct{}, len(rs.ch))
	for s := range rs.ch {
		select {
		case rs.ch[s] <- shardMsg{flush: done}:
		case <-e.cfg.Stop:
			return false
		case <-e.closed:
			return false
		}
	}
	for range rs.ch {
		select {
		case <-done:
		case <-e.cfg.Stop:
			return false
		case <-e.closed:
			return false
		}
	}
	return true
}

// shardWorker drains shard s of rank until the engine stops or closes.
func (e *Engine) shardWorker(rank, s int) {
	rs := e.sh[rank]
	for {
		select {
		case m := <-rs.ch[s]:
			e.runShardMsg(rank, rs, s, m)
		case <-e.cfg.Stop:
			return
		case <-e.closed:
			return
		}
	}
}

func (e *Engine) runShardMsg(rank int, rs *rankShards, s int, m shardMsg) {
	if m.flush != nil {
		m.flush <- struct{}{} // buffered to pool size; never blocks
		return
	}
	var start time.Time
	if e.recOn {
		start = time.Now()
	}
	rs.mu[s].Lock()
	race := detector.AccessBatch(rs.subs[s], m.evs)
	rs.mu[s].Unlock()
	if e.recOn {
		e.rec.Add(obs.ShardBusyNanos, s, int64(time.Since(start)))
		e.rec.Add(obs.ShardBatches, s, 1)
	}
	if race != nil {
		race.EnsureProv().Shard = s
		e.raceFound(rank, race)
	}
	e.PutEventBuf(m.evs)
	if m.ref != nil {
		if atomic.AddInt32(&m.ref.pending, -1) == 0 {
			credit := m.ref.credit
			e.putBatchRef(m.ref)
			e.addReceived(rank, credit)
		}
	} else {
		e.addReceived(rank, m.credit)
	}
}

// analyseSharded is the origin-side Analyse for a sharded rank: pieces
// go straight to their sub-analyzers under the per-shard locks (workers
// may be running concurrently on other shards); the first race wins.
func (e *Engine) analyseSharded(rank int, rs *rankShards, ev detector.Event) *detector.Race {
	var race *detector.Race
	rs.top.RouteEach(ev, func(s int, piece detector.Event) {
		if race != nil {
			return
		}
		rs.mu[s].Lock()
		race = rs.subs[s].Access(piece)
		rs.mu[s].Unlock()
		if race != nil {
			race.EnsureProv().Shard = s
		}
	})
	if race != nil {
		e.raceFound(rank, race)
	}
	return race
}

// GetEventBuf takes a reusable event slice (length 0) from the engine's
// pool, for callers assembling a Notify batch; the engine recycles the
// slice after analysis. Falls back to the process-wide pool (the
// package-level GetEventBuf), so buffers cycle between engines and the
// streaming trace replay too.
func (e *Engine) GetEventBuf() []detector.Event {
	select {
	case b := <-e.evFree:
		return b
	default:
		return GetEventBuf()
	}
}

// PutEventBuf returns an event slice to the pool. The engine calls it on
// every analysed batch, so slices cycle between the instrumentation
// layer's notification assembly and the analysis side without
// reallocating in steady state. A full per-engine pool overflows into
// the process-wide pool instead of dropping the slice to the GC.
func (e *Engine) PutEventBuf(evs []detector.Event) {
	if cap(evs) == 0 {
		return
	}
	select {
	case e.evFree <- evs[:0]:
	default:
		PutEventBuf(evs)
	}
}

// sharedEvFree is the process-wide event-buffer free list behind the
// package-level GetEventBuf/PutEventBuf: the same pooled batch slices
// the engines' notification pipelines cycle, shared with callers that
// batch events outside any engine (the streaming trace replay). A
// buffered channel, like the per-engine pools: contention is two
// CAS-ish operations and nothing is dropped on GC.
var sharedEvFree = make(chan []detector.Event, 256)

// GetEventBuf takes a reusable event slice (length 0) from the
// process-wide pool; plain make when the pool is empty.
func GetEventBuf() []detector.Event {
	select {
	case b := <-sharedEvFree:
		return b
	default:
		return make([]detector.Event, 0, defaultEventBufCap)
	}
}

// PutEventBuf returns an event slice to the process-wide pool.
func PutEventBuf(evs []detector.Event) {
	if cap(evs) == 0 {
		return
	}
	select {
	case sharedEvFree <- evs[:0]:
	default: // pool full; let the GC have it
	}
}

// defaultEventBufCap sizes fresh pool slices to hold a typical
// notification batch without growing.
const defaultEventBufCap = 128

// eventPoolSlack pads the free-slice pool beyond the channel capacity:
// up to ChannelCap batches sit in a rank's channel (plus a few in the
// shard workers' hands), and the pool must be able to hold the whole
// population or steady-state Gets miss and reallocate.
const eventPoolSlack = 64

// batchRefPoolCap bounds the batchRef pool.
const batchRefPoolCap = 128

func (e *Engine) getBatchRef() *batchRef {
	select {
	case r := <-e.refFree:
		return r
	default:
		return &batchRef{}
	}
}

func (e *Engine) putBatchRef(r *batchRef) {
	r.pending, r.credit = 0, 0
	select {
	case e.refFree <- r:
	default:
	}
}
