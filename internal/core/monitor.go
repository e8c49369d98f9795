package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// OverloadPolicy selects what the monitor's router does when a user
// shard's bounded queue is full.
type OverloadPolicy int

const (
	// OverloadBlock (the default) applies backpressure: Ingest blocks
	// until the shard drains. No report is ever lost, and output is
	// deterministic for a given input stream, at the cost of slowing
	// the producer when one user's analysis falls behind.
	OverloadBlock OverloadPolicy = iota
	// OverloadDropNewest sheds load: the incoming report for the full
	// shard is dropped (and counted — see MonitorStats.Dropped) so
	// ingest never blocks and one slow user cannot stall the others.
	// Breathing is heavily oversampled relative to the 0.67 Hz band,
	// so occasional per-user drops degrade SNR, not correctness.
	OverloadDropNewest
)

// MonitorConfig tunes the streaming monitor.
type MonitorConfig struct {
	// Pipeline is the underlying pipeline configuration.
	Pipeline Config
	// Window is the sliding analysis window; the paper's
	// characterization uses 25 s windows, the default.
	Window time.Duration
	// UpdateEvery is the stride between rate re-estimations; default
	// one second, matching a realtime display cadence.
	UpdateEvery time.Duration
	// ApneaAlarmSec enables realtime pause detection: each update
	// carries the [start, end) intervals (≥ this many seconds) where
	// the user's breathing envelope collapsed within the window. Zero
	// disables (no extra work per update).
	ApneaAlarmSec float64
	// ShardQueue bounds each shard worker's input queue (reports +
	// analysis ticks); default 256. A reader singulates a given user's
	// tags at a few tens of Hz, so the default absorbs multi-second
	// analysis stalls before the Overload policy engages.
	ShardQueue int
	// ShardWorkers sizes the shard worker pool — the event-loop
	// goroutines that own the per-user engines. Default GOMAXPROCS.
	// The pool is the monitor's scale lever: per-user cost is an
	// engine (a few KB), not a goroutine + queue, so the process's
	// goroutine count stays O(workers) whatever the user count
	// (TestMonitorScale). 1 gives the sequential reference path the
	// equivalence tests compare against.
	ShardWorkers int
	// Overload selects the routing policy when a shard worker's queue
	// is full: OverloadBlock (default, lossless backpressure) or
	// OverloadDropNewest (shed the report, count it). Under
	// OverloadDropNewest the router sheds quality-aware: once a queue
	// nears capacity, reports from non-selected (reader, antenna)
	// vantages are sacrificed first, so redundant oversampling is lost
	// before the data the estimate is computed from (per-class
	// accounting in MonitorStats.ShedByClass).
	Overload OverloadPolicy
	// Degrade configures the per-worker adaptive tick-rate controller
	// (DESIGN.md §13): under sustained queue pressure a worker
	// stretches its effective tick interval (1×→2×→4×… UpdateEvery,
	// hysteresis on recovery) instead of letting queue depth or shed
	// counts climb, and every RateUpdate carries the stretch so
	// consumers see degraded cadence, never silently stale numbers.
	// The zero value disables the controller (full-cadence ticks,
	// bit-identical to the pre-ladder monitor).
	Degrade DegradeConfig
	// Metrics receives the monitor's instrumentation (see
	// NewMonitorMetrics). Nil builds private, unexposed instruments —
	// the monitor always counts (Stats reads the counters) but exposes
	// nothing.
	Metrics *MonitorMetrics
	// Tracer samples end-to-end report traces through the ingest,
	// routing (StageDemux), worker, and collector stages (see
	// obs.NewTracer). Reports arriving with a TraceID — stamped at the
	// LLRP layer — keep their reader-side origin so queue wait ahead of
	// the monitor is attributable; untraced reports may begin a trace
	// at ingest. Nil traces nothing: the per-report cost is two
	// predictable branches.
	Tracer *obs.Tracer
	// testTickWork (tests only, hence unexported) runs on a worker at
	// every analyzed tick, before the analysis, with the tick's stream
	// time: artificial tick work for the overload tests, either a fixed
	// sleep or a hold the test releases in step with its producer, so
	// the queue occupancy the router stamps on later ticks — what the
	// degradation governor samples — follows the test's steps, not the
	// worker's wall clock. Nil — always, outside package-internal
	// tests — costs one predictable branch per tick.
	testTickWork func(asOf time.Duration)
	// testForceStretch (tests only) pins every worker's governor at a
	// fixed stretch factor, bypassing the closed loop: the cadence the
	// stretch-equivalence tests compare against full rate.
	testForceStretch int
	// StalenessSLO is the estimate-freshness objective: a user whose
	// last emitted update is older than this much wall time counts as
	// stale in MonitorStats.StaleUsers, the
	// tagbreathe_monitor_stale_users gauge, and the FreshnessCheck
	// health check. Staleness is evaluated both on every tick and on
	// every Stats or FreshnessCheck call, so it stays current
	// during transport outages when no stream-time ticks flow at all —
	// exactly when freshness matters. 0 disables freshness tracking.
	StalenessSLO time.Duration
}

func (c *MonitorConfig) fillDefaults() {
	c.Pipeline.fillDefaults()
	if c.Window <= 0 {
		c.Window = 25 * time.Second
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = time.Second
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = 256
	}
	if c.ShardWorkers <= 0 {
		c.ShardWorkers = runtime.GOMAXPROCS(0)
	}
}

// RateUpdate is one realtime output of the monitor: the current
// breathing-rate estimate for one user, computed over the trailing
// window ending at Time.
type RateUpdate struct {
	UserID uint64
	// Time is the stream time the update was computed at.
	Time time.Duration
	// RateBPM is the Eq. 5 estimate over the window's buffered
	// crossings.
	RateBPM float64
	// InstantBPM is the Eq. 5 estimate over the most recent M = 7
	// crossings (the paper's realtime figure).
	InstantBPM float64
	// Crossings is how many zero crossings the window held.
	Crossings int
	// Reads is the number of low-level reads in the window for this
	// user on its selected vantage.
	Reads int
	// ReaderID names the reader selected for this user this window —
	// the provenance of the estimate when overlapping readers cover the
	// same user. Empty for the unnamed single-reader path.
	ReaderID string
	// AntennaPort is the antenna selected for this user this window.
	AntennaPort int
	// Pauses holds detected breathing pauses within the window when
	// MonitorConfig.ApneaAlarmSec is set — the realtime apnea alarm.
	Pauses [][2]float64
	// TickStretch is the shard worker's tick-stretch factor when this
	// update was computed: 1 means full cadence; k > 1 means the
	// degradation ladder is engaged and this user's updates arrive
	// every k × UpdateEvery of stream time (DESIGN.md §13).
	TickStretch int
	// Degraded mirrors TickStretch > 1 — the quality flag consumers
	// check so a degraded cadence is never mistaken for fresh data.
	Degraded bool
}

// Monitor is the streaming TagBreathe pipeline: feed it the reader's
// report stream in timestamp order and receive per-user rate updates.
//
// Internally the stream is sharded by user onto a fixed pool of shard
// workers — an event-loop/worker-pool hybrid. Ingest routes on the
// caller's goroutine: it assigns each newly seen user to one worker
// (round-robin in first-seen order; the assignment never changes) and
// puts every report on that worker's bounded queue. Each worker is an
// event loop owning the complete pipeline state of every user assigned
// to it (Eq. 3 differencer, fused bins, antenna metadata): exactly one
// goroutine ever touches a user's engine, so the single-writer-per-
// user invariant of the original goroutine-per-user design holds with
// O(workers) goroutines and queues instead of O(users), which saves
// a goroutine stack and a queue (~30 KB) per user (DESIGN.md §11).
// On every UpdateEvery boundary of stream time
// the router broadcasts a tick; workers analyze their users in
// parallel and a collector emits the tick's updates in stream-time
// order (and user-ID order within a tick), so the output is globally
// time-ordered and deterministic. Overload behaviour at the worker
// queues is set by MonitorConfig.Overload. The monitor runs
// ShardWorkers + 1 goroutines: the workers and the collector.
//
// The monitor is driven by stream time (report timestamps), not the
// wall clock, so it serves live operation, accelerated simulation, and
// trace replay identically.
//
// Close the input with Stop (or CloseInput after the final report) and
// drain Updates until it closes; the monitor owns no goroutine past
// that point (project style: no fire-and-forget goroutines).
type Monitor struct {
	cfg MonitorConfig

	rt      *router
	updates chan RateUpdate
	metrics *MonitorMetrics
	tracer  *obs.Tracer
	// bandPass is the streaming chain's band-pass, designed once for
	// cfg.Pipeline (nil outside the streaming chain); every engine's
	// vantages share its taps (EngineOptions.bandPass).
	bandPass *sigproc.StreamBandPass

	stopOnce sync.Once
	wg       sync.WaitGroup

	// lastWall records each user's last-update wall clock (UnixNano)
	// when StalenessSLO is set, written by the collector; it feeds the
	// stale-user count and the freshness gauges.
	lastMu sync.Mutex
	//tagbreathe:owner collectLoop NewMonitor
	lastWall map[uint64]int64
	// primary mirrors each user's currently selected (reader, antenna)
	// vantage, written by the collector from every emitted update. The
	// router consults it — only on the shed path — to classify reports
	// as primary (selected vantage) or redundant (any other), so
	// quality-aware shedding sacrifices redundant data first.
	//
	//tagbreathe:owner collectLoop NewMonitor
	primary map[uint64]vantage
}

// NewMonitor starts a streaming monitor. Callers must eventually call
// Stop (or CloseInput and drain Updates) to release its goroutines.
//
// cfg.Pipeline.HighCutHz must lie inside the extraction band (see
// Config.HighCutHz). NewMonitor does not check it: MonitorStream does,
// and a caller that builds a monitor directly owns the check.
func NewMonitor(cfg MonitorConfig) *Monitor {
	cfg.fillDefaults()
	m := &Monitor{
		cfg:      cfg,
		updates:  make(chan RateUpdate, 64),
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		bandPass: streamBandPass(cfg.Pipeline),
		primary:  make(map[uint64]vantage),
	}
	if cfg.StalenessSLO > 0 {
		m.lastWall = make(map[uint64]int64)
	}
	if m.metrics == nil {
		// Unexposed instruments: the hot path never branches on
		// whether observability is wired (see internal/obs).
		m.metrics = NewMonitorMetrics(nil)
	}
	// Tick descriptors flow router → collector with a small buffer: the
	// pipeline depth. A deeper buffer lets ingest run further ahead of
	// analysis; 2 keeps at most a couple of windows in flight.
	ticks := make(chan *monitorTick, 2)
	m.rt = newRouter(m, ticks)
	m.wg.Add(1)
	go m.collectLoop(ticks)
	return m
}

// Ingest submits one report, routing it to its user's shard worker on
// the caller's goroutine. Reports must arrive in timestamp order. It
// returns false if the input has been closed (Stop or CloseInput).
// Safe for concurrent use.
//
//tagbreathe:hotpath runs once per tag read on the producer's goroutine
func (m *Monitor) Ingest(r reader.TagReport) bool {
	if r.TraceID == 0 {
		// Untraced so far (direct feed from the emulator or replay):
		// this is the earliest stage that sees the report, so traces
		// may begin here.
		r.TraceID = m.tracer.Begin(obs.StageIngest)
	} else {
		// The LLRP layer already began the trace at frame decode; keep
		// its origin and stamp the hand-off into the monitor.
		m.tracer.Stamp(r.TraceID, obs.StageIngest)
	}
	if !m.rt.route(&r) {
		m.tracer.Abort(r.TraceID)
		return false
	}
	return true
}

// Updates returns the stream of rate updates. It is closed after Stop
// (or CloseInput) once in-flight analysis drains.
func (m *Monitor) Updates() <-chan RateUpdate {
	return m.updates
}

// MonitorStats is a point-in-time snapshot of a monitor's counters
// (Monitor.Stats). Each field reads one of the monitor's instruments
// (see MonitorMetrics). The JSON names are the keys of the
// "degradation" object the CLI serves on /debug/fleet.
type MonitorStats struct {
	// Processed counts reports the shard workers fed into user
	// engines; Dropped counts reports the router shed under
	// OverloadDropNewest (always zero under OverloadBlock). Every
	// admitted report is one or the other whenever the workers are
	// idle; while they feed, Processed trails by less than a span.
	Processed uint64 `json:"processed_reports"`
	Dropped   uint64 `json:"dropped_reports"`
	// ShedByClass partitions Dropped by the shed report's ShedClass
	// name: unknown + primary + redundant = Dropped.
	ShedByClass map[string]uint64 `json:"shed_by_class"`
	// Ticks counts the analysis ticks the router broadcast;
	// SkippedTicks counts per-worker tick deliveries skipped under
	// tick stretch. SkippedTicks / (Ticks × ShardWorkers) is the
	// degraded-tick occupancy.
	Ticks        uint64 `json:"ticks"`
	SkippedTicks uint64 `json:"skipped_ticks"`
	// DegradedWorkers is how many shard workers are above 1× tick
	// stretch now; PeakStretch is the highest stretch any worker has
	// reached (1 when the ladder never engaged).
	DegradedWorkers int `json:"degraded_workers"`
	PeakStretch     int `json:"peak_tick_stretch"`
	// StaleUsers counts users whose last update is older than
	// MonitorConfig.StalenessSLO (wall clock); TrackedUsers counts the
	// users that have emitted at all. Both are zero when the SLO is
	// unset.
	StaleUsers   int `json:"stale_users"`
	TrackedUsers int `json:"tracked_users"`
}

// Stats snapshots the monitor's counters. Safe to call at any time,
// concurrently with ingest. With a StalenessSLO it also refreshes the
// freshness gauges, as the tick path does.
func (m *Monitor) Stats() MonitorStats {
	st := MonitorStats{
		Processed:       m.metrics.Processed.Value(),
		Dropped:         m.metrics.Dropped.Value(),
		ShedByClass:     make(map[string]uint64, 3),
		Ticks:           m.metrics.Ticks.Value(),
		SkippedTicks:    m.metrics.TicksSkipped.Value(),
		DegradedWorkers: int(m.metrics.DegradedWorkers.Value()),
		PeakStretch:     1,
	}
	for _, c := range []ShedClass{ShedUnknown, ShedPrimary, ShedRedundant} {
		st.ShedByClass[c.String()] = m.metrics.ShedByClass.With(c.String()).Value()
	}
	if p := int(m.metrics.TickStretchPeak.Value()); p > 1 {
		st.PeakStretch = p
	}
	st.StaleUsers, st.TrackedUsers = m.staleUsers()
	return st
}

// VantageClass classifies a (reader, antenna) vantage for uid against
// the user's currently selected vantage: ShedPrimary if it is the
// selected one, ShedRedundant otherwise, ShedUnknown before the user
// has ever emitted an update. It is the classification quality-aware
// shedding uses (the router's near-full path, and — via a fleet
// classifier hook — the fleet merge). Safe to call concurrently.
func (m *Monitor) VantageClass(uid uint64, readerID string, port int) ShedClass {
	m.lastMu.Lock() //tagbreathe:allow hotpath taken only on the shed path, when a queue is already near capacity and reports are being sacrificed
	v, ok := m.primary[uid]
	m.lastMu.Unlock()
	if !ok {
		return ShedUnknown
	}
	if v.reader == readerID && v.port == port {
		return ShedPrimary
	}
	return ShedRedundant
}

// CloseInput signals that no further reports will arrive: it
// broadcasts the final tick, after which pending analysis completes and
// Updates closes. Like Ingest it may wait for a full queue, so keep
// draining Updates while it runs. Idempotent.
func (m *Monitor) CloseInput() {
	m.rt.close()
}

// Stop closes the input and waits for the pipeline to drain. Safe to
// call multiple times and concurrently with Ingest.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() {
		// Drain updates so the final tick and the analyze stage can
		// finish.
		//tagbreathe:allow goroutineleak exits when m.wg.Wait closes updates; tying it to the WaitGroup would deadlock the drain
		go func() {
			for range m.updates {
			}
		}()
		m.CloseInput()
		m.wg.Wait()
	})
}

// monitorTick asks every shard worker for its users' updates at one
// stream-time boundary. Workers reply on results (capacity = worker
// count, so no worker ever blocks replying); the collector gathers
// exactly workers replies per tick and emits them in order.
type monitorTick struct {
	asOf    time.Duration
	workers int
	results chan shardResult
	// wall is the broadcast wall-clock time, the start point of the
	// tick-to-update latency histogram.
	wall time.Time
}

// shardResult is one worker's reply to a tick: its users' rate updates
// plus the sampled trace IDs of reports it fed since the previous tick.
// Those traces complete (StageEmit) when the collector hands this
// tick's updates to the consumer — attributing to each traced report
// the full latency until its effect was visible downstream.
type shardResult struct {
	ups    []RateUpdate
	traces []uint64
}

// shardInput is one queue entry for a shard worker: a report, or an
// analysis tick (tick != nil). A single queue keeps reports and ticks
// ordered relative to each other, so a tick snapshots exactly the
// reports that preceded it.
type shardInput struct {
	report reader.TagReport
	// slot is the report's user in the worker's engine table, assigned
	// by the router on the user's first report.
	slot int32
	tick *monitorTick
	// occ is the worker's queue occupancy the router found when it
	// queued this entry, read for ticks only: the backlog queued ahead
	// of the tick. Sampled at dequeue it would under-read — the worker
	// drains the queue ahead of the tick before observing it — so the
	// router records the pressure the tick was born under.
	occ int
	// closeVantage marks this entry as a vantage-gate tombstone: the
	// router has stopped forwarding the report's (reader, antenna)
	// vantage for this user, and the worker must retire its phase
	// streams (Engine.CloseVantage) instead of feeding the report. An
	// open stream that will never read again pins the finality horizon
	// for maxPhaseGap and stalls the user's whole chain — coherent
	// shedding must close what it silences.
	closeVantage bool
}

// gateKey identifies one user's (reader, antenna) vantage gate in the
// router's quality-aware shedding state.
type gateKey struct {
	uid uint64
	v   vantage
}

// workerLoop is one shard worker: an event loop owning the complete
// pipeline state of every user the router assigned to it — the only
// writer of those engines, ever. It takes its queue a span at a time,
// feeds each report into its user's stage engine (so differencing and
// Eq. 6 fusion are already done when a tick lands) and answers ticks
// by analyzing all its users in ascending user ID; the worker pool is
// where the monitor's parallelism across users comes from.
//
//tagbreathe:hotpath per-report feed path; the tick branch is the 1/UpdateEvery cold side and carries its own allows
func (m *Monitor) workerLoop(wi int, q *shardRing) {
	defer m.wg.Done()

	// engines is indexed by the router's user slot; a slot stays nil
	// until its user's first report is fed (earlier ones may be shed).
	var engines []*Engine
	// order ticks the engines in ascending user ID, so each tick's
	// updates leave the worker sorted and the collector only merges
	// the workers' runs. It is re-sorted on the first tick after a new
	// user; sorted counts the engines it held then.
	var order []*Engine
	sorted := 0

	// Per-worker lag gauge handles, resolved once (Vec.With takes the
	// family lock; the Set calls below are single atomics).
	lbl := WorkerLabel(wi)
	//tagbreathe:allow hotpath per-worker gauge handles resolve once before the loop; only the atomic Sets run per tick
	var (
		gPending = m.metrics.EngineBinsPending.With(lbl)
		gHeldAge = m.metrics.EngineHeldFloorAge.With(lbl)
		gWarmup  = m.metrics.EngineFilterWarmup.With(lbl)
		gStretch = m.metrics.TickStretch.With(lbl)
	)

	// The degradation governor (DESIGN.md §13): nil when the ladder is
	// disabled, otherwise this worker's private closed loop — observed
	// at every tick delivery, never touched by another goroutine.
	var gov *tickGovernor
	degraded := false
	if m.cfg.Degrade.enabled() {
		gov = newTickGovernor(m.cfg.Degrade, m.cfg.ShardQueue) //tagbreathe:allow hotpath one governor per worker lifetime, built before the loop
		gStretch.Set(1)
	}
	if m.cfg.testForceStretch > 1 {
		gov = newForcedGovernor(m.cfg.testForceStretch) //tagbreathe:allow hotpath test-only fixed-cadence governor, built before the loop
		gStretch.Set(float64(gov.stretch))
	}

	// open holds the sampled traces of reports fed since the last tick;
	// the collector completes them when that tick's updates emit. Fixed
	// capacity: a pathological burst of sampled reports between ticks
	// aborts the excess (counted as dropped) instead of growing it.
	open := make([]uint64, 0, maxOpenTraces)
	// window is the FFT tick's bin buffer, one per worker: its engines
	// tick one at a time, so they share it.
	window := new([]float64)
	// fed counts the reports fed since the last flush into Processed.
	// The worker flushes it once per span, before next can wait for
	// the following span, and before it answers a tick, so Processed
	// is exact whenever the worker is idle or analyzing, and trails by
	// less than a span while it feeds.
	var fed uint64

	for {
		if fed > 0 && q.spanUsed() {
			m.metrics.Processed.Add(fed)
			fed = 0
		}
		in, ok := q.next()
		if !ok {
			break
		}
		if in.tick != nil {
			if fed > 0 {
				m.metrics.Processed.Add(fed)
				fed = 0
			}
			// The tick's analysis is the worker's long stall: free the
			// reports fed before it first, so meanwhile only entries not
			// yet fed hold the queue's slots.
			q.releaseFed()
			tick := in.tick
			occ := 0
			stretch := 1
			if gov != nil {
				// Occupancy as sampled by the router when it broadcast this
				// tick: the backlog that was queued ahead of it — near zero
				// for a worker that keeps up, the accrued backlog when it
				// does not.
				occ = in.occ
				if !gov.tick(occ) {
					// Skipped under stretch: reply immediately (empty) so
					// the collector's tick barrier never stalls; fed
					// traces stay open until the next analyzed tick.
					m.metrics.TicksSkipped.Inc()
					m.publishDegrade(gov, &degraded, gStretch)
					tick.results <- shardResult{}
					continue
				}
				stretch = gov.stretch
			}
			if m.cfg.testTickWork != nil {
				m.cfg.testTickWork(tick.asOf) // test-only overload; nil outside package tests
			}
			if sorted < len(order) {
				slices.SortFunc(order, func(a, b *Engine) int { return cmp.Compare(a.userID, b.userID) })
				sorted = len(order)
			}
			asOf := tick.asOf.Seconds()
			evict := (tick.asOf - m.cfg.Window).Seconds()
			var ups []RateUpdate //tagbreathe:allow hotpath per-tick result batch (1/UpdateEvery); freshly allocated because the collector reads it after the worker moves on
			pending := 0
			heldAge := 0.0
			warmFill := 1.0
			for _, eng := range order {
				start := time.Now() //tagbreathe:allow hotpath per-(user, tick) instrumentation feeding the tick quantiles (monitor.tick_p99_us); reports are the per-event unit
				if up, ok := eng.TickUpdate(asOf); ok {
					up.Time = tick.asOf
					up.TickStretch = stretch
					up.Degraded = stretch > 1
					ups = append(ups, up)
				}
				m.metrics.ShardTickSeconds.Observe(time.Since(start).Seconds()) //tagbreathe:allow hotpath per-(user, tick) instrumentation, paired with the clock read above
				// Selection stats are windowed per tick: reset so the next
				// update reflects the recent stream, not all history.
				eng.ResetTickStats()
				// Release fused bins that slid out of the window.
				eng.EvictBefore(evict)
				// Lag accounting: worst case across this worker's users.
				lag := eng.Lag(asOf)
				pending += lag.PendingBins
				if lag.HeldAge > heldAge {
					heldAge = lag.HeldAge
				}
				if lag.FilterFill < warmFill {
					warmFill = lag.FilterFill
				}
			}
			gPending.Set(float64(pending))
			gHeldAge.Set(heldAge)
			gWarmup.Set(warmFill)
			if gov != nil {
				perUser := 0.0
				if n := len(order); n > 0 {
					perUser = float64(pending) / float64(n)
				}
				gov.settle(occ, perUser)
				m.publishDegrade(gov, &degraded, gStretch)
			}
			res := shardResult{ups: ups}
			if len(open) > 0 {
				res.traces = append([]uint64(nil), open...) //tagbreathe:allow hotpath per-tick copy of at most maxOpenTraces sampled IDs, handed to the collector
				open = open[:0]
			}
			tick.results <- res
			continue
		}
		r := &in.report
		var eng *Engine
		if int(in.slot) < len(engines) {
			eng = engines[in.slot]
		}
		if in.closeVantage {
			// Vantage-gate tombstone: the router silenced this (reader,
			// antenna) vantage; retire its phase streams so they cannot
			// pin the finality horizon. The report itself was already
			// counted shed.
			if eng != nil {
				eng.CloseVantage(r.ReaderID, r.AntennaPort)
			}
			continue
		}
		m.tracer.Stamp(r.TraceID, obs.StageWorker) // dequeue: queue wait ends here
		uid := r.EPC.UserID()
		if eng == nil {
			//tagbreathe:allow hotpath first fed report of a user: engine construction happens once, then every report indexes the slot
			eng = NewEngine(m.cfg.Pipeline, EngineOptions{
				Window:        m.cfg.Window.Seconds(),
				TickStride:    m.cfg.UpdateEvery.Seconds(),
				ApneaAlarmSec: m.cfg.ApneaAlarmSec,
				UserID:        uid,
				Metrics:       m.metrics,
				window:        window,
				bandPass:      m.bandPass,
			})
			for int(in.slot) >= len(engines) {
				engines = append(engines, nil)
			}
			engines[in.slot] = eng
			order = append(order, eng)
		}
		eng.feed(r)
		fed++
		if r.TraceID != 0 {
			m.tracer.Stamp(r.TraceID, obs.StageFeed)
			m.tracer.SetUser(r.TraceID, uid)
			m.tracer.SetReader(r.TraceID, r.ReaderID)
			if len(open) < cap(open) {
				open = append(open, r.TraceID)
			} else {
				m.tracer.Abort(r.TraceID)
			}
		}
	}
	if degraded {
		// Shutdown hygiene: a worker exiting mid-degradation must not
		// leave the shared degraded-workers gauge pinned above zero.
		m.metrics.DegradedWorkers.Add(-1)
		gStretch.Set(1)
	}
}

// publishDegrade mirrors one worker's governor state into the shared
// instruments: the per-worker stretch gauge, the process-wide peak,
// and the degraded-workers gauge (delta-updated, so concurrent
// workers compose without coordination).
//
//tagbreathe:hotpath runs on every tick delivery of a degradation-enabled worker; three atomics, no locks
func (m *Monitor) publishDegrade(gov *tickGovernor, degraded *bool, gStretch *obs.Gauge) {
	gStretch.Set(float64(gov.stretch))
	m.metrics.TickStretchPeak.SetMax(float64(gov.stretch))
	now := gov.stretch > 1
	if now != *degraded {
		if now {
			m.metrics.DegradedWorkers.Add(1)
		} else {
			m.metrics.DegradedWorkers.Add(-1)
		}
		*degraded = now
	}
}

// maxOpenTraces bounds how many sampled traces one worker carries
// between ticks. At sane sampling strides (hundreds of reports per
// sample) a tick covers far fewer; the bound only matters when someone
// sets SampleEvery=1 against a dense stream.
const maxOpenTraces = 64

// collectLoop reassembles the sharded analyses into one ordered update
// stream: ticks arrive in stream-time order, and within a tick the
// updates are in ascending user ID — each worker's reply already is,
// and the collector merges them — so consumers see a deterministic,
// globally time-ordered stream regardless of shard scheduling.
func (m *Monitor) collectLoop(ticks <-chan *monitorTick) {
	defer m.wg.Done()
	defer close(m.updates)

	var runs [][]RateUpdate
	var traces []uint64
	for tick := range ticks {
		runs, traces = runs[:0], traces[:0]
		n := 0
		for i := 0; i < tick.workers; i++ {
			res := <-tick.results
			runs = append(runs, res.ups)
			traces = append(traces, res.traces...)
			n += len(res.ups)
		}
		ups := mergeByUser(make([]RateUpdate, 0, n), runs)
		clear(runs) // the workers' replies are garbage once merged
		if len(ups) > 0 {
			m.lastMu.Lock()
			wall := time.Now().UnixNano()
			for _, u := range ups {
				m.primary[u.UserID] = vantage{reader: u.ReaderID, port: u.AntennaPort}
				if m.lastWall != nil {
					m.lastWall[u.UserID] = wall
				}
			}
			m.lastMu.Unlock()
		}
		for _, u := range ups {
			m.updates <- u
		}
		m.metrics.Updates.Add(uint64(len(ups)))
		m.metrics.TickLatency.Observe(time.Since(tick.wall).Seconds())
		// The tick's updates are in consumers' hands: every report fed
		// since the previous tick has now had its effect emitted.
		for _, id := range traces {
			m.tracer.Complete(id)
		}
		if m.lastWall != nil {
			m.staleUsers() // refresh the freshness gauges on the tick cadence
		}
	}
}

// mergeByUser appends the updates of runs, each in ascending user ID,
// to dst in one ascending sequence. It scans the heads of the runs
// for each update, O(updates · runs); a run per shard worker keeps
// that small.
func mergeByUser(dst []RateUpdate, runs [][]RateUpdate) []RateUpdate {
	for {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || r[0].UserID < runs[best][0].UserID) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// staleUsers reports how many users' most recent emitted update is
// older (wall clock) than the configured StalenessSLO, and how many
// users have emitted at all. As a side effect it refreshes the
// tagbreathe_monitor_stale_users and ..._oldest_update_age_seconds
// gauges, so both the tick path and pull-driven callers (Stats, the
// /healthz freshness check) keep them current — during a transport
// outage no stream-time ticks flow at all, which is exactly when
// staleness must show. Returns (0, 0) when StalenessSLO is unset.
func (m *Monitor) staleUsers() (stale, total int) {
	if m.lastWall == nil {
		return 0, 0
	}
	now := time.Now().UnixNano()
	slo := m.cfg.StalenessSLO.Nanoseconds()
	var oldest int64
	m.lastMu.Lock()
	for _, w := range m.lastWall {
		total++
		age := now - w
		if age > slo {
			stale++
		}
		if age > oldest {
			oldest = age
		}
	}
	m.lastMu.Unlock()
	m.metrics.StaleUsers.Set(float64(stale))
	m.metrics.OldestUpdateAge.Set(float64(oldest) / 1e9)
	return stale, total
}

// FreshnessCheck returns a health check for obs.DebugServer
// (AddHealthCheck) that fails while any user's estimate is staler than the
// StalenessSLO — the wiring that turns the freshness objective into a
// /healthz verdict a load balancer or alert can act on.
func (m *Monitor) FreshnessCheck() func() error {
	return func() error {
		stale, total := m.staleUsers()
		if stale > 0 {
			return fmt.Errorf("core: %d of %d users stale (no update within %v)",
				stale, total, m.cfg.StalenessSLO)
		}
		return nil
	}
}

// MonitorStream is a convenience for trace replay: it pumps reports
// into a fresh monitor, closes the input, and returns all updates.
func MonitorStream(reports []reader.TagReport, cfg MonitorConfig) ([]RateUpdate, error) {
	if err := cfg.Pipeline.checkBand(); err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: empty report stream")
	}
	m := NewMonitor(cfg)
	done := make(chan []RateUpdate)
	//tagbreathe:allow goroutineleak collector exits when Updates closes and hands its result over done, which this function always receives
	go func() {
		var out []RateUpdate
		for u := range m.Updates() {
			out = append(out, u)
		}
		done <- out
	}()
	for _, r := range reports {
		m.Ingest(r)
	}
	m.CloseInput()
	out := <-done
	m.wg.Wait()
	return out, nil
}
