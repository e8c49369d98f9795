package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// router is the monitor's routing stage. Monitor.Ingest runs it on the
// caller's goroutine: it owns the user→(worker, slot) assignment table,
// the quality-aware vantage gates and shedding, and the tick broadcast
// on UpdateEvery boundaries of stream time. One mutex guards all of it,
// so concurrent producers serialize exactly as they would on a channel,
// and closing the input is a flag under the same lock. The lock is held
// across the blocking queue and tick puts on purpose: that wait is
// the OverloadBlock backpressure, and reports must enter the queues in
// the order they were routed. Neither a worker nor the collector ever
// takes it, so the puts always drain.
type router struct {
	m *Monitor
	// workers and the shed marks are fixed at construction.
	workers              []routeWorker
	shedMark, reopenMark int
	shedBy               [3]*obs.Counter // indexed by ShedClass
	ticks                chan<- *monitorTick

	mu sync.Mutex
	//tagbreathe:owner route newRouter
	assign map[uint64]userSlot
	//tagbreathe:owner route newRouter
	gated map[gateKey]struct{}
	//tagbreathe:owner route
	started bool
	//tagbreathe:owner route
	nextUpdate time.Duration
	//tagbreathe:owner close
	closed bool
}

// userSlot is where the router sends a user's reports: a worker, and
// the user's slot in that worker's engine table.
type userSlot struct {
	worker, slot int32
}

// routeWorker pairs a shard worker's queue with its pre-resolved
// high-water gauge, so the per-report depth update costs one atomic
// load (and a CAS only on a new maximum), and counts the users the
// router has assigned to it — the next user's slot.
type routeWorker struct {
	q     *shardRing
	hw    *obs.Gauge
	users int32
}

// spanMax is how many entries a shard worker takes from its ring per
// lock.
const spanMax = 32

// shardRing is one shard worker's input queue: a fixed ring of
// ShardQueue entries. The router puts one entry at a time; the worker
// takes up to spanMax contiguous entries per lock, reads them in
// place, and frees them when it comes back for the next span. So the
// ring bounds every entry routed and not yet fed, the span in the
// worker's hands included, and a router that finds it full waits for
// the next free. Every occupancy the router reads — a tick's occ, the
// high-water gauge, the depth shedding decides on — counts only
// entries not yet fed: it first reclaims the part of the held span the
// worker has finished, which the worker publishes without a lock.
type shardRing struct {
	mu sync.Mutex
	// ready wakes the worker when an entry arrives or the ring
	// closes; space wakes a router waiting for the worker to free a
	// span.
	ready, space sync.Cond
	buf          []shardInput
	head         int // slot of the oldest outstanding entry
	n            int // outstanding entries, the held span included
	held         int // entries of the worker's span not yet freed
	spanLen      int // length of the worker's span
	closed       bool

	// The worker's cursor, touched only by the worker goroutine, on a
	// cache line of its own so that its per-entry writes do not
	// contend with the router's: the span it holds (the held entries,
	// in place), how many of them next has returned, and how many it
	// has finished with (read by the router's reclaim).
	_    [64]byte
	span []shardInput
	pos  int
	done atomic.Int32
}

func newShardRing(size int) *shardRing {
	q := &shardRing{buf: make([]shardInput, size)}
	q.ready.L = &q.mu
	q.space.L = &q.mu
	return q
}

// put appends a report for the user in slot, copying it once, straight
// into its ring slot; it waits while the ring is full for the worker to
// free a span. It returns the entries not yet fed, this one included.
func (q *shardRing) put(r *reader.TagReport, slot int32) int {
	q.mu.Lock() //tagbreathe:allow hotpath the ring's one lock per routed entry; it replaces the channel send's
	defer q.mu.Unlock()
	q.reclaim()
	q.wait()
	q.pushReport(r, slot, false)
	return q.n
}

// putTick appends an analysis tick, waiting while the ring is full. It
// stamps the entry's occ with the entries not yet fed that it found,
// the backlog queued ahead of the tick, and returns that count with
// the tick added.
func (q *shardRing) putTick(t *monitorTick) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	occ := q.unfed()
	q.wait()
	in := q.tail()
	in.tick, in.occ = t, occ
	q.commit()
	return q.n
}

// wait blocks until the ring has room. Called with q.mu held.
func (q *shardRing) wait() {
	for q.n == len(q.buf) {
		q.space.Wait()
	}
}

// unfed reclaims what the worker has finished and returns the number
// of entries not yet fed. Called with q.mu held.
func (q *shardRing) unfed() int {
	q.reclaim()
	return q.n
}

// offer appends a report (a vantage-gate tombstone when closeVantage)
// if the ring has room, without waiting, copying it straight into its
// slot, and reports whether it did. Called with q.mu held, after unfed.
func (q *shardRing) offer(r *reader.TagReport, slot int32, closeVantage bool) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.pushReport(r, slot, closeVantage)
	return true
}

// pushReport copies r straight into the next slot of a ring with room.
// Called with q.mu held.
func (q *shardRing) pushReport(r *reader.TagReport, slot int32, closeVantage bool) {
	in := q.tail()
	in.report = *r
	in.slot, in.tick, in.closeVantage = slot, nil, closeVantage
	q.commit()
}

// tail returns the slot the next entry is written in, in place. Called
// with q.mu held, on a ring with room.
func (q *shardRing) tail() *shardInput { return &q.buf[(q.head+q.n)%len(q.buf)] }

// commit queues the entry written at tail and wakes the worker. Called
// with q.mu held.
func (q *shardRing) commit() {
	q.n++
	q.ready.Signal()
}

// next returns the worker's next entry, valid until the following
// call, and marks the previous one finished. When the held span is
// used up it frees it and takes the next: up to spanMax entries,
// contiguous in the ring, under one lock. False means the ring is
// closed and drained.
func (q *shardRing) next() (*shardInput, bool) {
	if q.pos == len(q.span) {
		if !q.take() {
			return nil, false
		}
	} else {
		q.done.Store(int32(q.pos))
	}
	q.pos++
	return &q.span[q.pos-1], true
}

// spanUsed reports whether next has returned every entry of the held
// span, so that the next call takes a new span and may wait for it.
func (q *shardRing) spanUsed() bool { return q.pos == len(q.span) }

// take frees the held span and waits for the next.
func (q *shardRing) take() bool {
	q.mu.Lock() //tagbreathe:allow hotpath one lock per span of up to spanMax entries
	defer q.mu.Unlock()
	q.free(q.held)
	for q.n == 0 {
		if q.closed {
			return false
		}
		q.ready.Wait()
	}
	q.held = min(q.n, spanMax, len(q.buf)-q.head)
	q.spanLen = q.held
	q.span, q.pos = q.buf[q.head:q.head+q.held], 0
	q.done.Store(0)
	return true
}

// releaseFed frees the held entries before the one next returned last,
// which the worker has fed.
func (q *shardRing) releaseFed() {
	q.mu.Lock() //tagbreathe:allow hotpath once per tick delivery, on the 1/UpdateEvery side of the worker loop
	q.reclaim()
	q.mu.Unlock()
}

// reclaim frees the entries of the held span the worker has finished
// and that are not yet freed. Called with q.mu held.
func (q *shardRing) reclaim() {
	if k := int(q.done.Load()) - (q.spanLen - q.held); k > 0 {
		q.free(k)
	}
}

// free drops the first k held entries. Called with q.mu held.
func (q *shardRing) free(k int) {
	q.head = (q.head + k) % len(q.buf)
	q.n -= k
	q.held -= k
	q.space.Signal()
}

// close ends the ring: the worker drains what is queued, then next
// returns false.
func (q *shardRing) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.ready.Broadcast()
}

// newRouter builds the routing stage and starts the shard worker pool.
func newRouter(m *Monitor, ticks chan<- *monitorTick) *router {
	rt := &router{
		m:       m,
		workers: make([]routeWorker, m.cfg.ShardWorkers),
		ticks:   ticks,
		assign:  make(map[uint64]userSlot),
		gated:   make(map[gateKey]struct{}),
	}
	for i := range rt.workers {
		rt.workers[i] = routeWorker{
			q:  newShardRing(m.cfg.ShardQueue),
			hw: m.metrics.WorkerQueueHighWater.With(WorkerLabel(i)),
		}
		m.wg.Add(1)
		go m.workerLoop(i, rt.workers[i].q)
	}
	m.metrics.ShardWorkers.Set(float64(len(rt.workers)))

	// Quality-aware shedding (OverloadDropNewest only): once a queue is
	// near capacity, redundant-vantage reports are shed proactively so
	// the remaining slots carry primary data; hard-full drops are
	// classified the same way. Without the ladder the watermark sits at
	// the last eighth of the queue. With the ladder it sits midway
	// between the engage mark and capacity: strictly above engage,
	// because shedding redundant vantages is the rung AFTER tick
	// stretching (DESIGN.md §13) — were the marks equal, watermark
	// shedding would clamp broadcast-time occupancy just below engage
	// and the ladder could never climb — while the half-queue of
	// headroom above it absorbs the primary-vantage inflow that lands
	// while the gates close.
	rt.shedMark = m.cfg.ShardQueue - m.cfg.ShardQueue/8
	if m.cfg.Degrade.enabled() {
		d := m.cfg.Degrade
		d.fillDefaults()
		engage := int(float64(m.cfg.ShardQueue) * d.engageFraction)
		rt.shedMark = (engage + m.cfg.ShardQueue) / 2
	}
	rt.shedMark = max(rt.shedMark, 1)
	rt.reopenMark = rt.shedMark / 2
	rt.shedBy = [...]*obs.Counter{
		ShedUnknown:   m.metrics.ShedByClass.With(ShedUnknown.String()),
		ShedPrimary:   m.metrics.ShedByClass.With(ShedPrimary.String()),
		ShedRedundant: m.metrics.ShedByClass.With(ShedRedundant.String()),
	}
	return rt
}

// route puts one report on its user's worker queue (assigning a worker
// and a slot on first sight) and broadcasts a tick when the report
// crosses an UpdateEvery boundary. False means the input is closed.
//
//tagbreathe:hotpath runs once per tag read inside Ingest, on the producer's goroutine
func (rt *router) route(r *reader.TagReport) bool {
	m := rt.m
	rt.mu.Lock() //tagbreathe:allow hotpath the routing state's one lock, uncontended with a single producer; it replaces the channel hop to a routing goroutine
	defer rt.mu.Unlock()
	if rt.closed {
		return false
	}
	m.metrics.Ingested.Inc()
	uid := r.EPC.UserID()
	if !m.cfg.Pipeline.allowsUser(uid) {
		m.tracer.Abort(r.TraceID) // filtered out: the trace will never complete
		return true
	}
	if !rt.started {
		rt.started = true
		rt.nextUpdate = r.Timestamp + m.cfg.Window
	}
	us, ok := rt.assign[uid]
	if !ok {
		// Round-robin in first-seen order: deterministic for a given
		// stream, and balanced when users arrive interleaved. The slot
		// is taken now, even if this report is shed, so the worker
		// finds every user by slot whichever report reaches it first.
		wi := len(rt.assign) % len(rt.workers)
		us = userSlot{worker: int32(wi), slot: rt.workers[wi].users}
		rt.workers[wi].users++
		rt.assign[uid] = us
		m.metrics.ActiveUsers.Set(float64(len(rt.assign)))
	}
	w := &rt.workers[us.worker]
	var depth int
	if m.cfg.Overload == OverloadDropNewest {
		depth = rt.admit(w, uid, r, us.slot)
	} else {
		depth = w.q.put(r, us.slot)
		m.tracer.Stamp(r.TraceID, obs.StageDemux)
	}
	w.hw.SetMax(float64(depth))

	if r.Timestamp >= rt.nextUpdate {
		rt.broadcast(r.Timestamp) //tagbreathe:allow hotpath one tick descriptor and clock read per UpdateEvery of stream time, not per report
		rt.nextUpdate += m.cfg.UpdateEvery
		// A long read gap can leave nextUpdate behind the stream; snap
		// it forward so updates stay timely.
		if rt.nextUpdate <= r.Timestamp {
			rt.nextUpdate = r.Timestamp + m.cfg.UpdateEvery
		}
	}
	return true
}

// admit is the OverloadDropNewest path of route: enqueue without ever
// blocking, shedding quality-aware. Redundant vantages are shed
// coherently, not report-by-report: the differencer's streams are per
// (vantage, channel), and a stream that keeps receiving occasional
// reads while its siblings starve pins the finality horizon
// (EarliestOpenStream) for maxPhaseGap — stalling the user's primary
// chain too. So the first redundant report shed for a vantage closes a
// gate: that report travels to the worker as a tombstone
// (Engine.CloseVantage retires the phase streams), everything after it
// is shed at the door, and the gate reopens — streams re-prime
// naturally — once the queue drains to half the shed watermark or the
// vantage stops being redundant. The shed decision and the put share
// one ring lock. It returns the entries not yet fed afterwards. Called
// with rt.mu held.
func (rt *router) admit(w *routeWorker, uid uint64, r *reader.TagReport, slot int32) int {
	m := rt.m
	q := w.q
	q.mu.Lock() //tagbreathe:allow hotpath the ring's one lock per routed entry, as in put
	defer q.mu.Unlock()
	depth := q.unfed()
	gk := gateKey{uid: uid, v: vantage{reader: r.ReaderID, port: r.AntennaPort}}
	if _, closed := rt.gated[gk]; closed {
		if depth > rt.reopenMark && m.VantageClass(uid, r.ReaderID, r.AntennaPort) == ShedRedundant {
			// Gate held closed: the whole vantage stays silent until
			// pressure clears (or selection moves onto it).
			rt.shed(r.TraceID, ShedRedundant)
			return depth
		}
		delete(rt.gated, gk)
		m.metrics.VantageGates.Set(float64(len(rt.gated)))
	}
	if depth >= rt.shedMark && m.VantageClass(uid, r.ReaderID, r.AntennaPort) == ShedRedundant {
		// Near-full: sacrifice redundant oversampling before the queue
		// can reject primary data. The report is shed, but it travels
		// as a tombstone so the worker retires the vantage's phase
		// streams. With no room for the tombstone the gate stays open
		// and the next redundant report retries.
		if q.offer(r, slot, true) {
			rt.gated[gk] = struct{}{}
			m.metrics.VantageGates.Set(float64(len(rt.gated)))
			m.metrics.VantageGateCloses.Inc()
		}
		rt.shed(r.TraceID, ShedRedundant)
		return q.n
	}
	if q.offer(r, slot, false) {
		m.tracer.Stamp(r.TraceID, obs.StageDemux)
	} else {
		rt.shed(r.TraceID, m.VantageClass(uid, r.ReaderID, r.AntennaPort))
	}
	return q.n
}

// shed counts one report dropped at a worker queue by class and ends
// its trace.
func (rt *router) shed(traceID uint64, cls ShedClass) {
	rt.m.tracer.Abort(traceID)
	rt.m.metrics.Dropped.Inc()
	rt.shedBy[cls].Inc()
}

// broadcast enqueues one analysis tick on every worker and hands it to
// the collector. Ticks always block; they are rare. Called with rt.mu
// held.
func (rt *router) broadcast(asOf time.Duration) {
	tick := &monitorTick{
		asOf:    asOf,
		workers: len(rt.workers),
		results: make(chan shardResult, len(rt.workers)),
		wall:    time.Now(),
	}
	for i := range rt.workers {
		// putTick stamps occ, the backlog ahead of this tick — the
		// governor's pressure signal.
		rt.workers[i].q.putTick(tick)
	}
	rt.m.metrics.Ticks.Inc()
	rt.ticks <- tick
}

// close ends the input: the final tick is broadcast (when any report
// arrived), the worker queues close, and so does the collector's tick
// stream. Later routes return false. Idempotent.
func (rt *router) close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	if rt.started {
		rt.broadcast(rt.nextUpdate)
	}
	for i := range rt.workers {
		rt.workers[i].q.close()
	}
	close(rt.ticks)
}
