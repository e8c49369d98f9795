package core

import (
	"sync"
	"time"

	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// router is the monitor's routing stage. Monitor.Ingest runs it on the
// caller's goroutine: it owns the user→worker assignment table, the
// quality-aware vantage gates and shedding, and the tick broadcast on
// UpdateEvery boundaries of stream time. One mutex guards all of it,
// so concurrent producers serialize exactly as they would on a channel,
// and closing the input is a flag under the same lock. The lock is held
// across the blocking queue and tick sends on purpose: that wait is
// the OverloadBlock backpressure, and reports must enter the queues in
// the order they were routed. Neither a worker nor the collector ever
// takes it, so the sends always drain.
type router struct {
	m *Monitor
	// workers and the shed marks are fixed at construction.
	workers              []routeWorker
	shedMark, reopenMark int
	shedBy               [3]*obs.Counter // indexed by ShedClass
	ticks                chan<- *monitorTick

	mu sync.Mutex
	//tagbreathe:owner route newRouter
	assign map[uint64]int
	//tagbreathe:owner route newRouter
	gated map[gateKey]struct{}
	//tagbreathe:owner route
	started bool
	//tagbreathe:owner route
	nextUpdate time.Duration
	//tagbreathe:owner close
	closed bool
}

// routeWorker pairs a shard worker's queue with its pre-resolved
// high-water gauge, so the per-report depth update costs one atomic
// load (and a CAS only on a new maximum).
type routeWorker struct {
	q  chan shardInput
	hw *obs.Gauge
}

// newRouter builds the routing stage and starts the shard worker pool.
func newRouter(m *Monitor, ticks chan<- *monitorTick) *router {
	rt := &router{
		m:       m,
		workers: make([]routeWorker, m.cfg.ShardWorkers),
		ticks:   ticks,
		assign:  make(map[uint64]int),
		gated:   make(map[gateKey]struct{}),
	}
	for i := range rt.workers {
		rt.workers[i] = routeWorker{
			q:  make(chan shardInput, m.cfg.ShardQueue),
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
		engage := int(float64(m.cfg.ShardQueue) * d.EngageFraction)
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
// on first sight) and broadcasts a tick when the report crosses an
// UpdateEvery boundary. False means the input is closed.
//
//tagbreathe:hotpath runs once per tag read inside Ingest, on the producer's goroutine
func (rt *router) route(r reader.TagReport) bool {
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
	wi, ok := rt.assign[uid]
	if !ok {
		// Round-robin in first-seen order: deterministic for a given
		// stream, and balanced when users arrive interleaved.
		wi = len(rt.assign) % len(rt.workers)
		rt.assign[uid] = wi
		m.metrics.ActiveUsers.Set(float64(len(rt.assign)))
	}
	w := &rt.workers[wi]
	if m.cfg.Overload == OverloadDropNewest {
		rt.admit(w, uid, r)
	} else {
		w.q <- shardInput{report: r}
		m.tracer.Stamp(r.TraceID, obs.StageDemux)
	}
	w.hw.SetMax(float64(len(w.q)))

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
// (EarliestOpenStream) for MaxPhaseGap — stalling the user's primary
// chain too. So the first redundant report shed for a vantage closes a
// gate: that report travels to the worker as a tombstone
// (Engine.CloseVantage retires the phase streams), everything after it
// is shed at the door, and the gate reopens — streams re-prime
// naturally — once the queue drains to half the shed watermark or the
// vantage stops being redundant. Called with rt.mu held.
func (rt *router) admit(w *routeWorker, uid uint64, r reader.TagReport) {
	m := rt.m
	gk := gateKey{uid: uid, v: vantage{reader: r.ReaderID, port: r.AntennaPort}}
	if _, closed := rt.gated[gk]; closed {
		if len(w.q) > rt.reopenMark && m.VantageClass(uid, r.ReaderID, r.AntennaPort) == ShedRedundant {
			// Gate held closed: the whole vantage stays silent until
			// pressure clears (or selection moves onto it).
			rt.shed(r, ShedRedundant)
			return
		}
		delete(rt.gated, gk)
		m.metrics.VantageGates.Set(float64(len(rt.gated)))
	}
	if len(w.q) >= rt.shedMark && m.VantageClass(uid, r.ReaderID, r.AntennaPort) == ShedRedundant {
		// Near-full: sacrifice redundant oversampling before the queue
		// can reject primary data. The report is shed, but it travels
		// as a tombstone so the worker retires the vantage's phase
		// streams.
		select {
		case w.q <- shardInput{report: r, closeVantage: true}:
			rt.gated[gk] = struct{}{}
			m.metrics.VantageGates.Set(float64(len(rt.gated)))
			m.metrics.VantageGateCloses.Inc()
		default:
			// No room for the tombstone; the gate stays open and the
			// next redundant report retries.
		}
		rt.shed(r, ShedRedundant)
		return
	}
	select {
	case w.q <- shardInput{report: r}:
		m.tracer.Stamp(r.TraceID, obs.StageDemux)
	default:
		rt.shed(r, m.VantageClass(uid, r.ReaderID, r.AntennaPort))
	}
}

// shed counts one report dropped at a worker queue by class and ends
// its trace.
func (rt *router) shed(r reader.TagReport, cls ShedClass) {
	rt.m.tracer.Abort(r.TraceID)
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
		// occ is the backlog ahead of this tick — the governor's
		// pressure signal.
		rt.workers[i].q <- shardInput{tick: tick, occ: len(rt.workers[i].q)}
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
		close(rt.workers[i].q)
	}
	close(rt.ticks)
}
