// Package fleet is the multi-reader gateway: a fixed set of named LLRP
// reader endpoints, each owned by one supervised llrp.Session, merged
// onto a single provenance-tagged report channel that feeds one
// monitor. It is the structural step from "a demo drives one reader"
// to "a deployment covers a ward": each reader carries its own health,
// backoff, and outage state, and every report is stamped with the name
// of the reader that produced it (reader.TagReport.ReaderID), so the
// pipeline's (reader, antenna) selection merges overlapping coverage
// deterministically instead of double-counting it.
//
// Each reader's session delivers straight into the merged channel from
// its connection's decode goroutine, a decoded frame at a time
// (llrp.SessionConfig.Deliver): there is no per-reader pump and no
// per-reader buffer. Flow control follows the monitor's shard-queue
// discipline one level up: delivery never blocks on the merged channel.
// When the consumer falls behind, the incoming report is shed and
// counted against the originating reader (Metrics.ReaderShed) — so a
// stalled consumer degrades every reader fairly and visibly, and no
// single slow path can wedge the fleet. A reader that stalls or dies
// simply stops producing; its session reconnects with backoff while
// the other readers' streams keep flowing.
//
// Shedding is quality-aware when Config.ShedClass is set: a reader
// under pressure sacrifices reports from non-selected (reader, antenna)
// vantages before primary data, and it does so coherently — once a
// redundant vantage is shed, a per-reader gate silences the whole
// vantage until pressure clears. Thinning a vantage report-by-report
// would leave some of its per-channel phase streams half-alive, and a
// stream that keeps receiving occasional reads pins the pipeline's
// finality horizon for the 12 s Eq. 3 phase gap, stalling the user's
// primary chain too; full silence expires cleanly. Every shed is partitioned by
// class in Metrics.ReaderShedByClass.
package fleet

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// ReaderConfig is one fleet entry: a named LLRP endpoint.
type ReaderConfig struct {
	// Name identifies the reader in the fleet (required, unique). It is
	// the ReaderID stamped on every report the reader produces and the
	// "reader" metric label — pick something an operator recognizes
	// ("ward-3-e").
	Name string `json:"name"`
	// Addr is the reader's LLRP endpoint (required).
	Addr string `json:"addr"`
}

// Config assembles a reader fleet.
type Config struct {
	// Readers is the fleet's reader set (at least one), fixed for the
	// fleet's life.
	Readers []ReaderConfig
	// Session is the template for every entry's supervised session:
	// ROSpec, timeouts, backoff, watchdog, client metrics, tracer, and
	// logger all apply per reader. Addr, ReaderID, Metrics, and Deliver
	// are per-entry and overwritten by the fleet (each entry gets
	// private session instruments — see Metrics for why).
	Session llrp.SessionConfig
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

// reportBuffer sizes the merged report channel: it absorbs N readers'
// bursts, so it is deeper than one session's channel.
const reportBuffer = 4096

// entry is one reader: its supervised session, its private
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
	//tagbreathe:owner deliver
	gated map[gateKey]struct{}
}

// gateKey identifies one vantage within a reader: every report an
// entry delivers shares the reader.
type gateKey struct {
	uid  uint64
	port int
}

// Fleet is a running reader fleet. Its reader set is fixed when Start
// returns. All methods are safe for concurrent use. Close (or
// cancelling the start context plus Close) tears down every session
// before Reports closes; the fleet owns no goroutine past Close
// (project style: no fire-and-forget goroutines).
type Fleet struct {
	metrics  *Metrics
	tracer   *obs.Tracer
	classify func(r reader.TagReport) core.ShedClass

	reports chan reader.TagReport
	// shedMark and reopenMark are the merged-channel depths at which a
	// redundant vantage's gate closes and reopens.
	shedMark, reopenMark int
	cancel               context.CancelFunc

	// entries is sorted by name and never changes after Start.
	entries []*entry

	closeOnce sync.Once
}

// Start validates the reader set — at least one reader, each with a
// name and an addr, names unique — and begins connecting every reader
// immediately. Like llrp.StartSession it never blocks waiting for a
// connect: a reader that is down at start is the same routine
// condition as one that reboots later. ctx cancellation is equivalent
// to Close (call Close anyway to wait for teardown).
func Start(ctx context.Context, cfg Config) (*Fleet, error) {
	return start(ctx, cfg, reportBuffer)
}

// start is Start with the merged channel's size as a parameter, so
// tests can fill it quickly.
func start(ctx context.Context, cfg Config, buffer int) (*Fleet, error) {
	if len(cfg.Readers) == 0 {
		return nil, fmt.Errorf("fleet: no readers configured")
	}
	rcs := slices.Clone(cfg.Readers)
	slices.SortFunc(rcs, func(a, b ReaderConfig) int { return strings.Compare(a.Name, b.Name) })
	for i, rc := range rcs {
		if rc.Name == "" {
			return nil, fmt.Errorf("fleet: reader name is required")
		}
		if rc.Addr == "" {
			return nil, fmt.Errorf("fleet: reader %q: addr is required", rc.Name)
		}
		if i > 0 && rcs[i-1].Name == rc.Name {
			return nil, fmt.Errorf("fleet: reader %q configured twice", rc.Name)
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	shedMark := max(buffer-buffer/8, 1)
	fctx, cancel := context.WithCancel(ctx)
	f := &Fleet{
		metrics:    cfg.Metrics,
		tracer:     cfg.Session.Tracer,
		classify:   cfg.ShedClass,
		reports:    make(chan reader.TagReport, buffer),
		shedMark:   shedMark,
		reopenMark: shedMark / 2,
		cancel:     cancel,
		entries:    make([]*entry, 0, len(rcs)),
	}
	for _, rc := range rcs {
		e, err := f.startEntry(fctx, cfg.Session, rc)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.entries = append(f.entries, e)
	}
	cfg.Metrics.Readers.Set(float64(len(f.entries)))
	// Pull-time refresh for the sampled per-reader gauges (state,
	// reconnects): scrape hooks cannot be unregistered, but refresh on
	// a closed fleet is a cheap walk over its entries, so outliving
	// Close is harmless.
	cfg.Metrics.reg.AddScrapeHook(func() { f.refreshGauges() })
	return f, nil
}

// startEntry starts one reader's supervised session from the template.
func (f *Fleet) startEntry(ctx context.Context, tmpl llrp.SessionConfig, rc ReaderConfig) (*entry, error) {
	scfg := tmpl
	scfg.Addr = rc.Addr
	scfg.ReaderID = rc.Name
	scfg.Metrics = llrp.NewSessionMetrics(nil) // private per entry; see Metrics
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
	scfg.Deliver = func(batch []reader.TagReport) { f.deliver(e, batch) }
	sess, err := llrp.StartSession(ctx, scfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: reader %q: %w", rc.Name, err)
	}
	e.sess = sess
	return e, nil
}

// Reports returns the merged, provenance-tagged report stream. The
// channel survives every reader outage; it closes only when the fleet
// itself closes. Reports from different readers interleave in arrival
// order — each reader's own stream stays timestamp-ordered (sessions
// preserve order), and the pipeline keys all phase-continuous state by
// ReaderID, so cross-reader interleaving jitter is tolerated by
// construction.
func (f *Fleet) Reports() <-chan reader.TagReport {
	return f.reports
}

// class classifies a report for shed accounting: the configured
// classifier, or unknown without one.
func (f *Fleet) class(r reader.TagReport) core.ShedClass {
	if f.classify == nil {
		return core.ShedUnknown
	}
	return f.classify(r)
}

// deliver is an entry's llrp.SessionConfig.Deliver hook: it places a
// decoded frame's reports on the merged channel one by one, shedding
// (never blocking) when the channel is full, then counts the reports
// merged and samples the channel's depth once. With a classifier
// configured the shedding is quality-aware: as the channel nears
// capacity the reader sheds redundant-vantage reports first, and it
// silences a shed vantage coherently (per-reader gate, reopened when
// pressure clears or selection moves onto the vantage) — see the
// package comment for why report-by-report thinning would stall the
// pipeline's finality horizon.
//
//tagbreathe:hotpath runs once per frame on the reader's decode goroutine; its loop runs per tag read
func (f *Fleet) deliver(e *entry, batch []reader.TagReport) {
	merged := 0
	for i := range batch {
		if f.merge(e, &batch[i]) {
			merged++
		}
	}
	if merged > 0 {
		e.received.Add(uint64(merged))
		depth := float64(len(f.reports))
		f.metrics.MergedQueue.Set(depth)
		f.metrics.MergedQueueHighWater.SetMax(depth)
	}
}

// merge puts one report on the merged channel unless a vantage gate
// or a full channel sheds it, and reports whether it went on.
func (f *Fleet) merge(e *entry, r *reader.TagReport) bool {
	if f.classify != nil {
		gk := gateKey{uid: r.EPC.UserID(), port: r.AntennaPort}
		_, closed := e.gated[gk]
		if closed {
			if len(f.reports) > f.reopenMark && f.classify(*r) == core.ShedRedundant {
				f.shed(e, r, core.ShedRedundant)
				return false
			}
			delete(e.gated, gk)
		}
		if len(f.reports) >= f.shedMark && f.classify(*r) == core.ShedRedundant {
			if e.gated == nil {
				e.gated = make(map[gateKey]struct{}) //tagbreathe:allow hotpath built on a reader's first gate close, under overload
			}
			e.gated[gk] = struct{}{}
			f.shed(e, r, core.ShedRedundant)
			return false
		}
	}
	select {
	case f.reports <- *r:
		return true
	default:
		// Merged channel full: shed this report rather than let a
		// stalled consumer backpressure the whole fleet through one
		// reader. Counted per reader; the trace (if sampled) ends here.
		f.shed(e, r, f.class(*r))
		return false
	}
}

// shed counts one report dropped at the merge against its reader and
// class, and ends its trace.
func (f *Fleet) shed(e *entry, r *reader.TagReport, cls core.ShedClass) {
	e.shed.Inc()
	e.shedBy[cls].Inc()
	f.tracer.Abort(r.TraceID)
}

// ReaderStatus is one reader's point-in-time view — the /debug/fleet
// row.
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

// Status snapshots every reader, sorted by name. As a side effect it
// refreshes the pull-sampled per-reader gauges, so both /debug/fleet
// and metric scrapes see current state.
func (f *Fleet) Status() []ReaderStatus {
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
	return out
}

// refreshGauges is the scrape-hook body: update the sampled per-reader
// gauges without building the status slice.
func (f *Fleet) refreshGauges() {
	for _, e := range f.entries {
		e.stateG.Set(float64(e.sess.State()))
		e.reconG.Set(float64(e.sess.Reconnects()))
	}
}

// Healthy returns nil when every reader's link is up — the fleet-wide
// health check for obs.DebugServer.AddHealthCheck. A degraded fleet
// names the readers that are down; estimates may still flow from the
// healthy remainder.
func (f *Fleet) Healthy() error {
	var down []string
	for _, e := range f.entries {
		if err := e.sess.Healthy(); err != nil {
			down = append(down, fmt.Sprintf("%s: %v", e.cfg.Name, err))
		}
	}
	if len(down) > 0 {
		return fmt.Errorf("fleet: %d/%d readers down (%s)", len(down), len(f.entries), strings.Join(down, "; "))
	}
	return nil
}

// ReaderHealth returns a named reader's health check (the shape
// obs.DebugServer.AddHealthCheck wants); a name outside the fleet is
// always unhealthy.
func (f *Fleet) ReaderHealth(name string) func() error {
	for _, e := range f.entries {
		if e.cfg.Name == name {
			return func() error {
				if err := e.sess.Healthy(); err != nil {
					return fmt.Errorf("fleet: reader %s: %w", name, err)
				}
				return nil
			}
		}
	}
	return func() error { return fmt.Errorf("fleet: reader %q not configured", name) }
}

// WaitUp blocks until every reader is up, ctx ends, or a session
// closes. Startup sequencing and tests only; steady-state consumers
// just read Reports.
func (f *Fleet) WaitUp(ctx context.Context) error {
	for _, e := range f.entries {
		if err := e.sess.WaitUp(ctx); err != nil {
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
		f.cancel()
		for _, e := range f.entries {
			e.sess.Close()
		}
		close(f.reports)
	})
	return nil
}
