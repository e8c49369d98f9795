// Package fleet is the multi-reader gateway: a registry of named LLRP
// reader endpoints, each owned by one supervised llrp.Session, merged
// onto a single provenance-tagged report channel that feeds one
// monitor. It is the structural step from "a demo drives one reader"
// to "a deployment covers a ward": readers can be added, removed, and
// reconfigured at runtime; each carries its own health, backoff, and
// outage state; and every report is stamped with the name of the
// reader that produced it (reader.TagReport.ReaderID), so the
// pipeline's (reader, antenna) selection merges overlapping coverage
// deterministically instead of double-counting it.
//
// Each reader's session delivers straight into the merged channel from
// its connection's decode goroutine (llrp.SessionConfig.Deliver): there
// is no per-reader pump and no per-reader buffer. Flow control follows
// the monitor's shard-queue discipline one level up: delivery never
// blocks on the merged channel. When the consumer falls behind, the
// incoming report is shed and counted against the originating reader
// (Metrics.ReaderShed) — so a stalled consumer degrades every reader
// fairly and visibly, and no single slow path can wedge the fleet. A
// reader that stalls or dies simply stops producing; its session
// reconnects with backoff while the other readers' streams keep
// flowing.
//
// Shedding is quality-aware when Config.ShedClass is set: a reader
// under pressure sacrifices reports from non-selected (reader, antenna)
// vantages before primary data, and it does so coherently — once a
// redundant vantage is shed, a per-reader gate silences the whole
// vantage until pressure clears. Thinning a vantage report-by-report
// would leave some of its per-channel phase streams half-alive, and a
// stream that keeps receiving occasional reads pins the pipeline's
// finality horizon for MaxPhaseGap, stalling the user's primary chain
// too; full silence expires cleanly. Every shed is partitioned by
// class in Metrics.ReaderShedByClass.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// ReaderConfig is one registry entry: a named LLRP endpoint.
type ReaderConfig struct {
	// Name identifies the reader in the fleet (required, unique). It is
	// the ReaderID stamped on every report the reader produces, the
	// "reader" metric label, and the registry key for Remove and
	// Reconfigure — pick something an operator recognizes ("ward-3-e").
	Name string `json:"name"`
	// Addr is the reader's LLRP endpoint (required).
	Addr string `json:"addr"`
	// ROSpec overrides the fleet template's ROSpec for this reader when
	// non-zero (per-reader antenna sets, report batching).
	ROSpec llrp.ROSpecConfig `json:"-"`
}

// rospecSet reports whether the per-reader override is populated.
func (rc ReaderConfig) rospecSet() bool {
	return rc.ROSpec.ROSpecID != 0 || rc.ROSpec.ReportEveryN != 0 || len(rc.ROSpec.AntennaIDs) > 0
}

// Config assembles a reader fleet.
type Config struct {
	// Readers is the initial registry; more can be added at runtime.
	Readers []ReaderConfig
	// Session is the template for every entry's supervised session:
	// ROSpec, timeouts, backoff, watchdog, client metrics, tracer, and
	// logger all apply per reader. Addr, ReaderID, Metrics, and Deliver
	// are per-entry and overwritten by the fleet (each entry gets
	// private session instruments — see Metrics for why); the session
	// overload policy and buffer go unused, since every session delivers
	// into the merged channel.
	Session llrp.SessionConfig
	// ReportBuffer sizes the merged report channel; default 4096 (it
	// absorbs N readers' bursts, so it defaults deeper than one
	// session's buffer).
	ReportBuffer int
	// ShedClass classifies a report's vantage for quality-aware
	// shedding — typically core.Monitor.VantageClass adapted by the
	// caller. When set, readers shed redundant-vantage reports first
	// (coherently, per-vantage gates) as the merged channel nears
	// capacity, and every shed is counted by class. It is called from
	// every reader's decode goroutine concurrently and must be safe and
	// cheap. Nil sheds classlessly (all sheds count as unknown).
	ShedClass func(r reader.TagReport) core.ShedClass
	// Metrics receives the fleet's instrumentation (see NewMetrics).
	// Nil builds private, unexposed instruments.
	Metrics *Metrics
}

// entry is one registered reader: its supervised session, its private
// session instruments, its pre-resolved labeled metric handles, and
// its vantage gates.
type entry struct {
	cfg  ReaderConfig
	sess *llrp.Session
	// smetrics are the entry's private (unexposed) session instruments;
	// the fleet mirrors the interesting ones into labeled families.
	smetrics *llrp.SessionMetrics

	received *obs.Counter
	shed     *obs.Counter
	shedBy   [3]*obs.Counter // indexed by core.ShedClass
	stateG   *obs.Gauge
	reconG   *obs.Gauge

	// gated holds the reader's closed vantage gates. A vantage belongs
	// to exactly one reader, and a session delivers on one decode
	// goroutine at a time, so the set needs no lock.
	//
	//tagbreathe:owner deliver Add
	gated map[gateKey]struct{}
}

// gateKey identifies one vantage within a reader: every report an
// entry delivers shares the reader.
type gateKey struct {
	uid  uint64
	port int
}

// Fleet is a running reader-fleet registry. All methods are safe for
// concurrent use. Close (or cancelling the start context plus Close)
// tears down every session before Reports closes; the fleet owns no
// goroutine past Close (project style: no fire-and-forget goroutines).
type Fleet struct {
	tmpl     llrp.SessionConfig
	metrics  *Metrics
	tracer   *obs.Tracer
	classify func(r reader.TagReport) core.ShedClass

	reports chan reader.TagReport
	// shedMark and reopenMark are the merged-channel depths at which a
	// redundant vantage's gate closes and reopens.
	shedMark, reopenMark int
	ctx                  context.Context
	cancel               context.CancelFunc

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool

	// live counts sessions not yet closed by Remove or Close: Reports
	// closes only once no session can deliver into it.
	live      sync.WaitGroup
	closeOnce sync.Once
}

// Start builds the registry and begins connecting every configured
// reader immediately. Like llrp.StartSession it never blocks waiting
// for a connect — a reader that is down at start is the same routine
// condition as one that reboots later. ctx cancellation is equivalent
// to Close (call Close anyway to wait for teardown).
func Start(ctx context.Context, cfg Config) (*Fleet, error) {
	if cfg.ReportBuffer <= 0 {
		cfg.ReportBuffer = 4096
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	shedMark := max(cfg.ReportBuffer-cfg.ReportBuffer/8, 1)
	fctx, cancel := context.WithCancel(ctx)
	f := &Fleet{
		tmpl:       cfg.Session,
		metrics:    cfg.Metrics,
		tracer:     cfg.Session.Tracer,
		classify:   cfg.ShedClass,
		reports:    make(chan reader.TagReport, cfg.ReportBuffer),
		shedMark:   shedMark,
		reopenMark: shedMark / 2,
		ctx:        fctx,
		cancel:     cancel,
		entries:    make(map[string]*entry),
	}
	for _, rc := range cfg.Readers {
		if err := f.Add(rc); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Pull-time refresh for the sampled per-reader gauges (state,
	// reconnects): scrape hooks cannot be unregistered, but refresh on
	// a closed fleet is a cheap locked map walk, so outliving Close is
	// harmless.
	cfg.Metrics.reg.AddScrapeHook(func() { f.refreshGauges() })
	return f, nil
}

// Reports returns the merged, provenance-tagged report stream. The
// channel survives every Add/Remove/Reconfigure and reader outage; it
// closes only when the fleet itself closes. Reports from different
// readers interleave in arrival order — each reader's own stream stays
// timestamp-ordered (sessions preserve order), and the pipeline keys
// all phase-continuous state by ReaderID, so cross-reader interleaving
// jitter is tolerated by construction.
func (f *Fleet) Reports() <-chan reader.TagReport {
	return f.reports
}

// Add registers a reader and starts supervising it. The name must be
// unique and non-empty.
func (f *Fleet) Add(rc ReaderConfig) error {
	if rc.Name == "" {
		return fmt.Errorf("fleet: reader name is required")
	}
	if rc.Addr == "" {
		return fmt.Errorf("fleet: reader %q: addr is required", rc.Name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("fleet: closed")
	}
	if _, dup := f.entries[rc.Name]; dup {
		return fmt.Errorf("fleet: reader %q already registered", rc.Name)
	}

	scfg := f.tmpl
	scfg.Addr = rc.Addr
	scfg.ReaderID = rc.Name
	scfg.Metrics = llrp.NewSessionMetrics(nil) // private per entry; see Metrics
	if rc.rospecSet() {
		scfg.ROSpec = rc.ROSpec
	}
	lbl := readerLabel(rc.Name)
	e := &entry{
		cfg:      rc,
		smetrics: scfg.Metrics,
		received: f.metrics.ReaderReports.With(lbl),
		shed:     f.metrics.ReaderShed.With(lbl),
		stateG:   f.metrics.ReaderState.With(lbl),
		reconG:   f.metrics.ReaderReconnects.With(lbl),
	}
	for cls := core.ShedUnknown; cls <= core.ShedRedundant; cls++ {
		e.shedBy[cls] = f.metrics.ReaderShedByClass.With(lbl, cls.String()) //tagbreathe:allow metrichygiene cls ranges over the three fixed ShedClass values
	}
	scfg.Deliver = func(r reader.TagReport) { f.deliver(e, r) }
	sess, err := llrp.StartSession(f.ctx, scfg)
	if err != nil {
		return fmt.Errorf("fleet: reader %q: %w", rc.Name, err)
	}
	e.sess = sess
	f.entries[rc.Name] = e
	f.metrics.Added.Inc()
	f.metrics.Readers.Set(float64(len(f.entries)))
	f.live.Add(1)
	return nil
}

// retire closes an entry's session — waiting until its decode
// goroutine can deliver no more — and releases its hold on Reports.
// Each entry is retired exactly once, by Remove or by Close.
func (f *Fleet) retire(e *entry) {
	e.sess.Close()
	f.live.Done()
}

// Remove unregisters a reader: its session closes, and only once its
// decode goroutine has delivered its last report does Remove return —
// the entry is fully quiescent. The merged channel stays open for the
// remaining readers.
func (f *Fleet) Remove(name string) error {
	f.mu.Lock()
	e, ok := f.entries[name]
	if ok {
		delete(f.entries, name)
		f.metrics.Removed.Inc()
		f.metrics.Readers.Set(float64(len(f.entries)))
	}
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: reader %q not registered", name)
	}
	f.retire(e)
	e.stateG.Set(float64(llrp.SessionClosed))
	return nil
}

// Reconfigure atomically replaces a reader's configuration under the
// same name: the old session is closed and drained, then a fresh one
// starts against the (possibly new) address. Counters continue — the
// name is the identity, not the connection.
func (f *Fleet) Reconfigure(rc ReaderConfig) error {
	if err := f.Remove(rc.Name); err != nil {
		return err
	}
	return f.Add(rc)
}

// class classifies a report for shed accounting: the configured
// classifier, or unknown without one.
func (f *Fleet) class(r reader.TagReport) core.ShedClass {
	if f.classify == nil {
		return core.ShedUnknown
	}
	return f.classify(r)
}

// deliver is an entry's llrp.SessionConfig.Deliver hook: it places one
// report on the merged channel, shedding (never blocking) when the
// channel is full. With a classifier configured the shedding is
// quality-aware: as the channel nears capacity the reader sheds
// redundant-vantage reports first, and it silences a shed vantage
// coherently (per-reader gate, reopened when pressure clears or
// selection moves onto the vantage) — see the package comment for why
// report-by-report thinning would stall the pipeline's finality
// horizon.
//
//tagbreathe:hotpath runs once per tag read on the reader's decode goroutine
func (f *Fleet) deliver(e *entry, r reader.TagReport) {
	if f.classify != nil {
		gk := gateKey{uid: r.EPC.UserID(), port: r.AntennaPort}
		_, closed := e.gated[gk]
		if closed {
			if len(f.reports) > f.reopenMark && f.classify(r) == core.ShedRedundant {
				f.shed(e, r, core.ShedRedundant)
				return
			}
			delete(e.gated, gk)
		}
		if len(f.reports) >= f.shedMark && f.classify(r) == core.ShedRedundant {
			if e.gated == nil {
				e.gated = make(map[gateKey]struct{}) //tagbreathe:allow hotpath built on a reader's first gate close, under overload
			}
			e.gated[gk] = struct{}{}
			f.shed(e, r, core.ShedRedundant)
			return
		}
	}
	select {
	case f.reports <- r:
		e.received.Inc()
		depth := float64(len(f.reports))
		f.metrics.MergedQueue.Set(depth)
		f.metrics.MergedQueueHighWater.SetMax(depth)
	default:
		// Merged channel full: shed this report rather than let a
		// stalled consumer backpressure the whole fleet through one
		// reader. Counted per reader; the trace (if sampled) ends here.
		f.shed(e, r, f.class(r))
	}
}

// shed counts one report dropped at the merge against its reader and
// class, and ends its trace.
func (f *Fleet) shed(e *entry, r reader.TagReport, cls core.ShedClass) {
	e.shed.Inc()
	e.shedBy[cls].Inc()
	f.tracer.Abort(r.TraceID)
}

// Size returns the number of registered readers.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// ReaderStatus is one reader's point-in-time registry view — the
// /debug/fleet row.
type ReaderStatus struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	Up    bool   `json:"up"`
	Err   string `json:"error,omitempty"`
	// Reconnects counts re-established links; WatchdogTrips counts
	// links the keepalive watchdog declared dead.
	Reconnects    uint64 `json:"reconnects"`
	WatchdogTrips uint64 `json:"watchdog_trips"`
	// Reports counts reports merged from this reader; Shed counts
	// reports dropped at the full merged channel.
	Reports uint64 `json:"reports"`
	Shed    uint64 `json:"shed"`
	// ShedByClass splits Shed by vantage class; zero classes are
	// omitted.
	ShedByClass map[string]uint64 `json:"shed_by_class,omitempty"`
}

// Status snapshots every registered reader, sorted by name. As a side
// effect it refreshes the pull-sampled per-reader gauges, so both
// /debug/fleet and metric scrapes see current state.
func (f *Fleet) Status() []ReaderStatus {
	f.mu.Lock()
	out := make([]ReaderStatus, 0, len(f.entries))
	for _, e := range f.entries {
		st := e.sess.State()
		s := ReaderStatus{
			Name:          e.cfg.Name,
			Addr:          e.cfg.Addr,
			State:         st.String(),
			Up:            st == llrp.SessionUp,
			Reconnects:    e.sess.Reconnects(),
			WatchdogTrips: e.smetrics.WatchdogTrips.Value(),
			Reports:       e.received.Value(),
			Shed:          e.shed.Value(),
		}
		for cls := core.ShedUnknown; cls <= core.ShedRedundant; cls++ {
			if n := e.shedBy[cls].Value(); n > 0 {
				if s.ShedByClass == nil {
					s.ShedByClass = make(map[string]uint64, 3)
				}
				s.ShedByClass[cls.String()] = n
			}
		}
		if err := e.sess.Err(); err != nil {
			s.Err = err.Error()
		}
		e.stateG.Set(float64(st))
		e.reconG.Set(float64(s.Reconnects))
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// refreshGauges is the scrape-hook body: update the sampled per-reader
// gauges without building the status slice.
func (f *Fleet) refreshGauges() {
	f.mu.Lock()
	for _, e := range f.entries {
		e.stateG.Set(float64(e.sess.State()))
		e.reconG.Set(float64(e.sess.Reconnects()))
	}
	f.mu.Unlock()
}

// Healthy returns nil when every registered reader's link is up (and
// at least one reader is registered) — the fleet-wide health check for
// obs.DebugServer.AddHealthCheck. A degraded fleet names the readers
// that are down; estimates may still flow from the healthy remainder.
func (f *Fleet) Healthy() error {
	f.mu.Lock()
	total := len(f.entries)
	var down []string
	for name, e := range f.entries {
		if err := e.sess.Healthy(); err != nil {
			down = append(down, fmt.Sprintf("%s: %v", name, err))
		}
	}
	f.mu.Unlock()
	if total == 0 {
		return fmt.Errorf("fleet: no readers registered")
	}
	if len(down) > 0 {
		sort.Strings(down)
		return fmt.Errorf("fleet: %d/%d readers down (%s)", len(down), total, strings.Join(down, "; "))
	}
	return nil
}

// ReaderHealth returns a named reader's health check (the shape
// obs.DebugServer.AddHealthCheck wants), resolving the entry on every
// call so it follows Reconfigure and reports removal as unhealthy.
func (f *Fleet) ReaderHealth(name string) func() error {
	return func() error {
		f.mu.Lock()
		e, ok := f.entries[name]
		f.mu.Unlock()
		if !ok {
			return fmt.Errorf("fleet: reader %q not registered", name)
		}
		if err := e.sess.Healthy(); err != nil {
			return fmt.Errorf("fleet: reader %s: %w", name, err)
		}
		return nil
	}
}

// WaitUp blocks until every currently registered reader is up, ctx
// ends, or a session closes. Startup sequencing and tests only;
// steady-state consumers just read Reports.
func (f *Fleet) WaitUp(ctx context.Context) error {
	f.mu.Lock()
	sessions := make([]*llrp.Session, 0, len(f.entries))
	for _, e := range f.entries {
		sessions = append(sessions, e.sess)
	}
	f.mu.Unlock()
	for _, s := range sessions {
		if err := s.WaitUp(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close tears the fleet down: every session closes, and once none can
// deliver any more the merged Reports channel closes. Idempotent and
// safe to call concurrently.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		es := make([]*entry, 0, len(f.entries))
		for _, e := range f.entries {
			es = append(es, e)
		}
		f.mu.Unlock()
		f.cancel()
		for _, e := range es {
			f.retire(e)
		}
		// A concurrent Remove may still be retiring its entry.
		f.live.Wait()
		close(f.reports)
	})
	return nil
}
