// Command tagbreathe runs the TagBreathe pipeline against one of three
// report sources and prints realtime rate updates plus a per-user
// summary — the CLI equivalent of the paper's live visualization
// (Fig. 11).
//
// Sources:
//
//	(default)        simulate a scenario (flags below)
//	-replay FILE     replay a recorded CSV trace (see -csv)
//	-connect ADDR    connect to an LLRP reader or the llrpsim emulator
//
// -connect is repeatable: naming more than one endpoint (optionally as
// name=addr) runs a reader fleet — one supervised session per reader,
// all report streams merged with provenance into one monitor, fleet
// state on /debug/fleet and per-reader checks on /healthz.
//
// Examples:
//
//	tagbreathe -users 4 -duration 2m
//	tagbreathe -distance 6 -rate 15 -vitals
//	tagbreathe -posture lying -orientation 45 -contending 20
//	tagbreathe -csv reports.csv && tagbreathe -replay reports.csv
//	tagbreathe -connect localhost:5084 -listen 30s
//	tagbreathe -connect east=localhost:5084 -connect west=localhost:5085 -listen 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"tagbreathe"
	"tagbreathe/internal/obs"
)

// connectFlags collects the repeatable -connect values, each "addr" or
// "name=addr".
type connectFlags []string

func (c *connectFlags) String() string { return strings.Join(*c, ",") }

func (c *connectFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

func main() {
	var (
		users       = flag.Int("users", 1, "number of monitored users (side by side at -distance)")
		distance    = flag.Float64("distance", 4, "antenna-to-user distance in meters")
		rate        = flag.Float64("rate", 10, "paced breathing rate in bpm (first user; others staggered)")
		duration    = flag.Duration("duration", 2*time.Minute, "monitored duration")
		posture     = flag.String("posture", "sitting", "posture: sitting, standing, lying")
		orientation = flag.Float64("orientation", 0, "body orientation in degrees (0 = facing antenna)")
		contending  = flag.Int("contending", 0, "number of contending item tags in the field")
		pattern     = flag.String("pattern", "metronome", "breathing pattern: metronome, natural, irregular")
		fidget      = flag.Duration("fidget", 0, "mean interval between postural shifts (0 = still)")
		seed        = flag.Int64("seed", 1, "random seed")
		csvPath     = flag.String("csv", "", "record the raw low-level reads to this CSV file")
		replayPath  = flag.String("replay", "", "replay a recorded CSV trace instead of simulating")
		connect     connectFlags
		listenFor   = flag.Duration("listen", 30*time.Second, "with -connect: how long to stream")
		backoffMin  = flag.Duration("reconnect-min", 100*time.Millisecond, "with -connect: initial reconnect backoff")
		backoffMax  = flag.Duration("reconnect-max", 30*time.Second, "with -connect: backoff ceiling")
		watchdog    = flag.Duration("watchdog", 10*time.Second, "with -connect: drop and redial a link silent this long (0 disables)")
		vitals      = flag.Bool("vitals", false, "print the respiratory summary (breaths, depth, I:E, apneas)")
		heart       = flag.Bool("heart", false, "also run the experimental cardiac estimator")
		motion      = flag.Bool("motion", false, "enable motion-artifact rejection")
		filterName  = flag.String("filter", "fft", "band-pass filter: fft, fir (batch FIR), stream (incremental FIR; realtime ticks cost O(new samples), updates lag by the filter delay)")
		quiet       = flag.Bool("quiet", false, "suppress realtime updates; print only the summary")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/traces, and pprof on this address (e.g. 127.0.0.1:9464); empty disables")
		traceSample = flag.Int("trace-sample", 256, "with -debug-addr: sample 1/N reports for end-to-end pipeline traces (stage latency histograms + /debug/traces exemplars; 0 disables)")
		staleAfter  = flag.Duration("stale-after", 0, "with -connect: estimate-freshness SLO — flag users whose latest update is older than this wall-clock age (stale-users gauge, /healthz degrades; 0 disables)")
		maxStretch  = flag.Int("max-stretch", 8, "with -connect: graceful-degradation ladder cap — under sustained overload the live monitor stretches its tick cadence up to this factor before shedding data (<= 1 disables)")
	)
	flag.Var(&connect, "connect", "connect to an LLRP endpoint instead of simulating; repeat (optionally as name=addr) to merge a reader fleet into one monitor")
	flag.Parse()

	opts := runOptions{
		users: *users, distance: *distance, rate: *rate, duration: *duration,
		posture: *posture, orientation: *orientation, contending: *contending,
		pattern: *pattern, fidget: *fidget, seed: *seed, csvPath: *csvPath,
		vitals: *vitals, heart: *heart, motion: *motion, quiet: *quiet,
		backoffMin: *backoffMin, backoffMax: *backoffMax, watchdog: *watchdog,
		staleAfter: *staleAfter, maxStretch: *maxStretch,
	}
	switch *filterName {
	case "fft":
		opts.filter = tagbreathe.FilterFFT
	case "fir":
		opts.filter = tagbreathe.FilterFIRBatch
	case "stream":
		opts.filter = tagbreathe.FilterFIRStreaming
	default:
		fmt.Fprintf(os.Stderr, "tagbreathe: unknown -filter %q (want fft, fir, or stream)\n", *filterName)
		os.Exit(2)
	}

	// With -debug-addr the full run is observable: every stage's
	// instruments land in one registry served at /metrics. Without it
	// the registry stays nil and instrumentation is unexposed.
	var logger *slog.Logger
	if *debugAddr != "" {
		logger = obs.NewTextLogger(os.Stderr, slog.LevelInfo)
		obs.SetLogger(logger)
		opts.metrics = tagbreathe.NewMetricsRegistry()
		opts.metrics.PublishExpvar("tagbreathe")
		dbg, err := tagbreathe.ServeDebug(*debugAddr, opts.metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tagbreathe: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		opts.dbg = dbg
		// Go runtime telemetry (GC pauses, scheduler latency, heap,
		// goroutines) refreshes on every /metrics scrape.
		tagbreathe.RegisterRuntimeMetrics(opts.metrics)
		if *traceSample > 0 {
			opts.tracer = tagbreathe.NewTracer(opts.metrics,
				tagbreathe.TracerConfig{SampleEvery: *traceSample})
			dbg.SetTracer(opts.tracer)
		}
		obs.Logger("cli").Info("debug server up",
			"metrics", "http://"+dbg.Addr()+"/metrics",
			"healthz", "http://"+dbg.Addr()+"/healthz",
			"traces", "http://"+dbg.Addr()+"/debug/traces")
	}

	var (
		reports []tagbreathe.TagReport
		truth   map[uint64]float64
		userIDs []uint64
		err     error
	)
	switch {
	case *replayPath != "":
		reports, err = replayTrace(*replayPath)
	case len(connect) > 1 || (len(connect) == 1 && strings.Contains(connect[0], "=")):
		// Named endpoints, or more than one: the fleet path.
		reports, err = streamFleet(connect, *listenFor, opts)
		opts.livePrinted = true
	case len(connect) == 1:
		reports, err = streamSession(connect[0], *listenFor, opts)
		// The -connect path monitors live while streaming; analyze
		// should not replay the realtime updates a second time.
		opts.livePrinted = true
	default:
		reports, truth, userIDs, err = simulate(opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagbreathe: %v\n", err)
		os.Exit(1)
	}

	if err := analyze(reports, truth, userIDs, opts); err != nil {
		fmt.Fprintf(os.Stderr, "tagbreathe: %v\n", err)
		os.Exit(1)
	}
}

type runOptions struct {
	users                       int
	distance, rate, orientation float64
	duration, fidget            time.Duration
	posture, pattern, csvPath   string
	contending                  int
	seed                        int64
	vitals, heart, motion       bool
	filter                      tagbreathe.FilterMode
	quiet                       bool
	metrics                     *tagbreathe.MetricsRegistry
	livePrinted                 bool
	backoffMin, backoffMax      time.Duration
	watchdog                    time.Duration
	staleAfter                  time.Duration
	maxStretch                  int
	dbg                         *tagbreathe.DebugServer
	tracer                      *tagbreathe.Tracer
}

// simulate builds and runs the scenario described by the flags.
func simulate(o runOptions) ([]tagbreathe.TagReport, map[uint64]float64, []uint64, error) {
	if o.users < 1 {
		return nil, nil, nil, fmt.Errorf("need at least one user")
	}
	var post tagbreathe.Posture
	switch o.posture {
	case "sitting":
		post = tagbreathe.Sitting
	case "standing":
		post = tagbreathe.Standing
	case "lying":
		post = tagbreathe.Lying
	default:
		return nil, nil, nil, fmt.Errorf("unknown posture %q", o.posture)
	}
	pat := tagbreathe.PatternMetronome
	switch o.pattern {
	case "metronome":
	case "natural":
		pat = tagbreathe.PatternNatural
	case "irregular":
		pat = tagbreathe.PatternIrregular
	default:
		return nil, nil, nil, fmt.Errorf("unknown pattern %q", o.pattern)
	}

	rates := make([]float64, o.users)
	for i := range rates {
		rates[i] = o.rate + float64(i)*3
	}
	specs := tagbreathe.SideBySide(o.users, o.distance, rates...)
	for i := range specs {
		specs[i].Posture = post
		specs[i].OrientationDeg = o.orientation
		specs[i].Pattern = pat
		specs[i].FidgetEverySec = o.fidget.Seconds()
		if o.heart {
			specs[i].HeartRateBPM = 66 + float64(i)*5
		}
	}

	sc := tagbreathe.DefaultScenario()
	sc.Users = specs
	sc.Duration = o.duration
	sc.ContendingTags = o.contending
	sc.Seed = o.seed

	fmt.Printf("simulating %d user(s) at %.1f m for %v (posture %s, orientation %.0f°, %d contending tags)\n",
		o.users, o.distance, o.duration, o.posture, o.orientation, o.contending)
	res, err := sc.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("low-level reads: %d (%.1f/s aggregate)\n\n", len(res.Reports), res.Stats.AggregateReadRate())

	if o.csvPath != "" {
		f, err := os.Create(o.csvPath)
		if err != nil {
			return nil, nil, nil, err
		}
		defer f.Close()
		if err := tagbreathe.WriteTrace(f, res.Reports); err != nil {
			return nil, nil, nil, err
		}
		fmt.Printf("raw reads written to %s\n\n", o.csvPath)
	}
	return res.Reports, res.TrueRateBPM, res.UserIDs, nil
}

// replayTrace loads a recorded CSV.
func replayTrace(path string) ([]tagbreathe.TagReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reports, err := tagbreathe.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	fmt.Printf("replaying %d reads from %s\n\n", len(reports), path)
	return reports, nil
}

// streamSession collects reports from one LLRP endpoint for the
// listen window. The link is a managed session that redials with
// backoff and re-provisions the ROSpec after any failure, so a reader
// restart mid-run costs a gap, not the run. Unless -quiet, the reports
// also feed a live Monitor as they arrive, so realtime updates print
// (and the monitor's metrics are live on -debug-addr) while the stream
// is still running — the deployment shape of Fig. 11.
func streamSession(addr string, listenFor time.Duration, o runOptions) ([]tagbreathe.TagReport, error) {
	logger := obs.Logger("llrp-session")
	sess, err := tagbreathe.StartLLRPSession(context.Background(), tagbreathe.LLRPSessionConfig{
		Addr:          addr,
		ROSpec:        tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 32},
		BackoffMin:    o.backoffMin,
		BackoffMax:    o.backoffMax,
		Watchdog:      o.watchdog,
		ClientMetrics: tagbreathe.NewLLRPClientMetrics(o.metrics),
		Metrics:       tagbreathe.NewLLRPSessionMetrics(o.metrics),
		Tracer:        o.tracer,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if o.dbg != nil {
		// /healthz now degrades to 503 whenever the link is down.
		o.dbg.AddHealthCheck("llrp_session", sess.Healthy)
	}
	fmt.Printf("streaming from %s for %v (auto-reconnect: backoff %v..%v, watchdog %v)\n",
		addr, listenFor, o.backoffMin, o.backoffMax, o.watchdog)

	reports := collectReports(sess.Reports(), listenFor, o, newLiveMonitor(o))
	if err := sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tagbreathe: session close: %v\n", err)
	}
	if n := sess.Reconnects(); n > 0 {
		fmt.Printf("link recovered from %d outage(s) during the run\n", n)
	}
	fmt.Printf("collected %d reads\n\n", len(reports))
	return reports, nil
}

// streamFleet is the multi-reader -connect path: every endpoint gets a
// supervised session under the fleet registry, and all report streams
// merge — provenance-tagged — into the one live monitor, where the
// (reader, antenna) selection picks each user's best vantage per
// window. Fleet state serves at /debug/fleet and every reader
// contributes its own /healthz check.
func streamFleet(targets []string, listenFor time.Duration, o runOptions) ([]tagbreathe.TagReport, error) {
	logger := obs.Logger("fleet")
	cfgs := make([]tagbreathe.FleetReaderConfig, 0, len(targets))
	for _, t := range targets {
		// Bare addresses name themselves; "name=addr" picks the label
		// carried on reports, metrics, and health checks.
		name, addr := t, t
		if i := strings.IndexByte(t, '='); i >= 0 {
			name, addr = t[:i], t[i+1:]
		}
		cfgs = append(cfgs, tagbreathe.FleetReaderConfig{Name: name, Addr: addr})
	}
	// The live monitor exists before the fleet so the merge can shed
	// quality-aware: its vantage classifier tells each reader which
	// reports are redundant oversampling and which carry the selected
	// vantage a user's estimate is computed from.
	mon := newLiveMonitor(o)
	fcfg := tagbreathe.FleetConfig{
		Readers: cfgs,
		Session: tagbreathe.LLRPSessionConfig{
			ROSpec:        tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 32},
			BackoffMin:    o.backoffMin,
			BackoffMax:    o.backoffMax,
			Watchdog:      o.watchdog,
			ClientMetrics: tagbreathe.NewLLRPClientMetrics(o.metrics),
			Tracer:        o.tracer,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		},
		Metrics: tagbreathe.NewFleetMetrics(o.metrics),
	}
	if mon != nil {
		fcfg.ShedClass = func(r tagbreathe.TagReport) tagbreathe.ShedClass {
			return mon.VantageClass(r.EPC.UserID(), r.ReaderID, r.AntennaPort)
		}
	}
	f, err := tagbreathe.StartFleet(context.Background(), fcfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if o.dbg != nil {
		// /healthz degrades to 503 while any reader is down, and names
		// the down readers both in the aggregate fleet check and in
		// each reader's own check; /debug/fleet serves the live
		// per-reader registry state plus the monitor's degradation
		// ladder as JSON.
		o.dbg.AddHealthCheck("fleet", f.Healthy)
		for _, c := range cfgs {
			o.dbg.AddHealthCheck("reader_"+c.Name, f.ReaderHealth(c.Name))
		}
		// A debug server implies a metrics registry, so mon is live.
		o.dbg.HandleJSON("/debug/fleet", func() any {
			return struct {
				Readers     []tagbreathe.FleetReaderStatus `json:"readers"`
				Degradation tagbreathe.MonitorStats        `json:"degradation"`
			}{f.Status(), mon.Stats()}
		})
	}
	fmt.Printf("streaming from a fleet of %d readers for %v (auto-reconnect: backoff %v..%v, watchdog %v)\n",
		len(cfgs), listenFor, o.backoffMin, o.backoffMax, o.watchdog)

	reports := collectReports(f.Reports(), listenFor, o, mon)
	status := f.Status()
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tagbreathe: fleet close: %v\n", err)
	}
	for _, s := range status {
		line := fmt.Sprintf("reader %s (%s): %d reads", s.Name, s.Addr, s.Reports)
		if s.Reconnects > 0 {
			line += fmt.Sprintf(", recovered from %d outage(s)", s.Reconnects)
		}
		if s.Shed > 0 {
			line += fmt.Sprintf(", %d shed at the merge", s.Shed)
		}
		if len(s.ShedByClass) > 0 {
			line += fmt.Sprintf(", shed by class %v", s.ShedByClass)
		}
		fmt.Println(line)
	}
	fmt.Printf("collected %d reads\n\n", len(reports))
	return reports, nil
}

// newLiveMonitor builds the monitor that tails a -connect stream, or
// nil when nothing would consume it (quiet run, no metrics). Built
// before the transport so the fleet path can hand the monitor's
// vantage classifier to its merge-level shedder.
func newLiveMonitor(o runOptions) *tagbreathe.Monitor {
	if o.quiet && o.metrics == nil {
		return nil
	}
	mon := tagbreathe.NewMonitor(tagbreathe.MonitorConfig{
		Pipeline:     tagbreathe.Config{MotionRejection: o.motion, Filter: o.filter},
		UpdateEvery:  5 * time.Second,
		Metrics:      tagbreathe.NewMonitorMetrics(o.metrics),
		Tracer:       o.tracer,
		StalenessSLO: o.staleAfter,
		Degrade:      tagbreathe.DegradeConfig{MaxStretch: o.maxStretch},
	})
	if o.dbg != nil && o.staleAfter > 0 {
		// /healthz degrades to 503 while any user's freshest
		// estimate is older than the SLO — the wall-clock signal
		// that survives transport outages, when stream-time ticks
		// stop entirely.
		o.dbg.AddHealthCheck("estimate_freshness", mon.FreshnessCheck())
	}
	return mon
}

// printDegradation reports how hard the graceful-degradation ladder
// worked during a live run; silent when it never engaged and nothing
// was shed.
func printDegradation(mon *tagbreathe.Monitor) {
	if mon == nil {
		return
	}
	d := mon.Stats()
	if d.PeakStretch <= 1 && d.Dropped == 0 {
		return
	}
	line := fmt.Sprintf("degradation: peak tick stretch %d×, %d tick deliveries skipped",
		d.PeakStretch, d.SkippedTicks)
	if d.Dropped > 0 {
		line += fmt.Sprintf(", shed %d reports (primary %d, redundant %d, unknown %d)",
			d.Dropped, d.ShedByClass["primary"], d.ShedByClass["redundant"],
			d.ShedByClass["unknown"])
	}
	fmt.Println(line)
}

// collectReports drains a report channel until the listen deadline (or
// the channel closes), feeding the live Monitor on the side. The live
// monitor runs whenever its output is consumed somewhere: printed
// updates, or metrics on -debug-addr (so a -quiet run still populates
// /metrics while streaming). mon may be nil (see newLiveMonitor); when
// set, collectReports owns its shutdown.
func collectReports(ch <-chan tagbreathe.TagReport, listenFor time.Duration, o runOptions, mon *tagbreathe.Monitor) []tagbreathe.TagReport {
	monDone := make(chan struct{})
	if mon == nil {
		close(monDone)
	} else {
		go func() {
			defer close(monDone)
			if !o.quiet {
				fmt.Println("realtime estimates (25 s sliding window):")
			}
			for u := range mon.Updates() {
				if !o.quiet {
					printUpdate(u)
				}
			}
		}()
	}

	var reports []tagbreathe.TagReport
	deadline := time.After(listenFor)
collect:
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				break collect
			}
			reports = append(reports, r)
			if mon != nil {
				mon.Ingest(r)
			}
		case <-deadline:
			break collect
		}
	}
	if mon != nil {
		mon.CloseInput()
	}
	<-monDone
	printDegradation(mon)
	return reports
}

// printUpdate renders one realtime update line.
func printUpdate(u tagbreathe.RateUpdate) {
	fmt.Printf("  t=%6.1fs  user %x  %5.1f bpm (instant %5.1f)  [%d reads, antenna %d]\n",
		u.Time.Seconds(), u.UserID, u.RateBPM, u.InstantBPM, u.Reads, u.AntennaPort)
}

// analyze runs the pipeline (and optional extensions) and prints
// results. truth and userIDs may be nil for replay/LLRP sources; users
// are then auto-discovered from the EPCs.
func analyze(reports []tagbreathe.TagReport, truth map[uint64]float64, userIDs []uint64, o runOptions) error {
	if len(reports) == 0 {
		return fmt.Errorf("no reports to analyze")
	}
	cfg := tagbreathe.Config{
		Users:           userIDs,
		MotionRejection: o.motion,
		Filter:          o.filter,
		Metrics:         tagbreathe.NewEstimateMetrics(o.metrics),
	}

	if !o.quiet && !o.livePrinted {
		updates, err := tagbreathe.MonitorStream(reports, tagbreathe.MonitorConfig{
			Pipeline:    cfg,
			UpdateEvery: 5 * time.Second,
			Metrics:     tagbreathe.NewMonitorMetrics(o.metrics),
			Tracer:      o.tracer,
		})
		if err != nil {
			return err
		}
		fmt.Println("realtime estimates (25 s sliding window):")
		for _, u := range updates {
			printUpdate(u)
		}
		fmt.Println()
	}

	ests, err := tagbreathe.Estimate(reports, cfg)
	if err != nil {
		return err
	}
	if userIDs == nil {
		for uid := range ests {
			userIDs = append(userIDs, uid)
		}
	}
	fmt.Println("final estimates over the full run:")
	for _, uid := range userIDs {
		est, ok := ests[uid]
		if !ok {
			fmt.Printf("  user %x: no extractable breathing signal\n", uid)
			continue
		}
		line := fmt.Sprintf("  user %x: %.2f bpm", uid, est.RateBPM)
		if t, has := truth[uid]; has {
			line += fmt.Sprintf("  (truth %.2f, accuracy %.1f%%)", t, tagbreathe.Accuracy(est.RateBPM, t)*100)
		}
		line += fmt.Sprintf("  [%d reads, antenna %d]", est.Reads, est.AntennaPort)
		fmt.Println(line)
		if len(est.Signal.MotionEvents) > 0 {
			fmt.Printf("    motion rejected: %d intervals\n", len(est.Signal.MotionEvents))
		}

		if o.vitals {
			s := tagbreathe.SummarizeVitals(est.Signal, 0)
			fmt.Printf("    vitals: %d breaths, rate %.1f±%.1f bpm, depth CV %.2f, I:E %.2f, %d apneas\n",
				s.Breaths, s.MeanRateBPM, s.RateStdBPM, s.DepthCV, s.MeanIERatio, len(s.Apneas))
		}
		if o.heart {
			if h, err := tagbreathe.EstimateHeartRate(reports, uid, cfg); err == nil {
				verdict := "unreliable (below commodity noise floor)"
				if h.PeakProminence >= 3 {
					verdict = "confident"
				}
				fmt.Printf("    heart: %.1f bpm, prominence %.1f — %s\n",
					h.RateBPM, h.PeakProminence, verdict)
			}
		}
	}
	return nil
}
