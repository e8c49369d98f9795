// Package load is the capacity harness: closed-loop load generation
// against the real streaming monitor, measured, swept, and recorded as
// a capacity model (BENCH_capacity.json).
//
// One Point drives K synthesized users (internal/sim.Synth — 16 bytes
// of generator state per user) through the monitor's router → worker
// pool → collector path in-process and records what production
// capacity planning needs: steady-state CPU, live heap bytes per user,
// per-user tick-latency quantiles from the shard-tick histogram, and
// the exact processed/dropped accounting. Sweep runs a user-count
// ladder and emits the model; RunWirePoint replays the same load over
// a loopback LLRP session to price the wire path at smaller K.
//
// The loop is closed: under OverloadBlock the generator is
// backpressured by Ingest itself, so a sustained point means the
// pipeline genuinely kept up, not that a queue silently grew.
package load

import (
	"fmt"
	"runtime"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// Options configures one capacity point.
type Options struct {
	// Users is the synthesized user count (required, ≥ 1).
	Users int
	// Stream is the simulated stream duration (default 20 s — two
	// analysis windows at the capacity defaults below).
	Stream time.Duration
	// TagsPerUser and PerTagHz size the per-user report load (defaults
	// 1 tag at 2 Hz: capacity runs price the pipeline, not the tag
	// fan-out, which scales linearly anyway).
	TagsPerUser int
	PerTagHz    float64
	// Window and UpdateEvery are the monitor's analysis geometry
	// (defaults 10 s and 5 s — shorter than the paper's 25 s display
	// window so a 20 s stream yields settled ticks at every K).
	Window      time.Duration
	UpdateEvery time.Duration
	// ShardQueue and ShardWorkers pass through to MonitorConfig
	// (0 = monitor defaults).
	ShardQueue   int
	ShardWorkers int
	// Overload selects the monitor's overload policy. OverloadBlock
	// (default) is the capacity measurement: the generator is
	// backpressured and nothing may drop. OverloadDropNewest is the
	// shed probe: ingest never blocks and the drop fraction records
	// how far past its limit the pipeline was pushed.
	Overload core.OverloadPolicy
	// Degrade passes the graceful-degradation ladder through to the
	// monitor (zero value = disabled). The sweep arms it only on the
	// shed probe: under a paced overload the ladder stretches tick
	// cadence before the watermark sheds, so the probe's stretch
	// figures record where real-time load first forces the monitor to
	// trade update cadence for losslessness. Block points never carry
	// it — the capacity measurement stays full-cadence.
	Degrade core.DegradeConfig
	// Seed keys the synthetic stream.
	Seed int64
	// Pace replays the stream against the wall clock: 1 delivers each
	// report at its own timestamp (real-time load), 2 at double speed,
	// 0 (default) unpaced — the closed loop runs as fast as Ingest
	// admits. Capacity points run unpaced; the shed probe runs paced,
	// so its drop fraction answers "does real-time load at this user
	// count fit?", not "can an unthrottled producer outrun one core?".
	Pace float64
	// TraceSample samples one of every N reports for end-to-end
	// report→update latency (Point.E2EP50Micros/E2EP99Micros) via
	// obs.Tracer; 0 selects the default stride, negative disables
	// tracing (the e2e fields stay 0).
	TraceSample int
	// OnTracer, when set, receives the point's pipeline tracer just
	// before the load phase starts (and nil when tracing is disabled).
	// The CLI uses it to expose the live tracer at /debug/traces while
	// a sweep runs.
	OnTracer func(*obs.Tracer)
}

// DefaultTraceSample is the capacity harness's sampling stride: sparse
// enough that the tracer's clock reads stay invisible next to the
// pipeline work at every ladder point, dense enough for settled
// quantiles even on a 20 s stream at 1k users.
const DefaultTraceSample = 64

func (o *Options) fillDefaults() {
	if o.Stream <= 0 {
		o.Stream = 20 * time.Second
	}
	if o.TagsPerUser <= 0 {
		o.TagsPerUser = 1
	}
	if o.PerTagHz <= 0 {
		o.PerTagHz = 2
	}
	if o.Window <= 0 {
		o.Window = 10 * time.Second
	}
	if o.UpdateEvery <= 0 {
		o.UpdateEvery = 5 * time.Second
	}
}

// Point is one measured capacity point — the JSON row of
// BENCH_capacity.json.
type Point struct {
	Users   int `json:"users"`
	Reports int `json:"reports"`
	Updates int `json:"updates"`
	// Processed + Dropped account for every admitted report exactly
	// once (the harness asserts it).
	Processed uint64 `json:"processed"`
	Dropped   uint64 `json:"dropped"`
	// DropFrac is Dropped over admitted reports — 0 under
	// OverloadBlock by construction.
	DropFrac float64 `json:"drop_frac"`
	// WallSeconds is the closed-loop load phase duration: generation,
	// ingest, and the drain-settle wait.
	WallSeconds float64 `json:"wall_seconds"`
	// CPUSeconds is the process CPU (user+system) consumed by the load
	// phase, from getrusage; 0 when the platform doesn't expose it.
	CPUSeconds float64 `json:"cpu_seconds"`
	// ReportsPerSec is Reports / WallSeconds — sustained closed-loop
	// ingest throughput.
	ReportsPerSec float64 `json:"reports_per_sec"`
	// BytesPerUser is the live-heap cost of one user's pipeline state:
	// (post-GC heap with all engines live − pre-run post-GC heap) /
	// Users.
	BytesPerUser float64 `json:"bytes_per_user"`
	HeapBytes    uint64  `json:"heap_bytes"`
	// TickP50Micros / TickP99Micros are per-user incremental tick
	// quantiles from the monitor_shard_tick_seconds histogram.
	TickP50Micros float64 `json:"tick_p50_micros"`
	TickP99Micros float64 `json:"tick_p99_micros"`
	// E2EP50Micros / E2EP99Micros are sampled end-to-end
	// report→update latencies (ingest stamp to the covering tick's
	// emit) from the pipeline tracer — what a consumer actually waits
	// between a tag read entering the pipeline and its effect showing
	// in an update. Dominated by UpdateEvery/2 on paced runs; on
	// unpaced runs it prices the pipeline's queueing alone.
	E2EP50Micros float64 `json:"e2e_p50_micros"`
	E2EP99Micros float64 `json:"e2e_p99_micros"`
	// TracesCompleted counts the sampled traces behind the e2e
	// quantiles (0 = tracing disabled).
	TracesCompleted uint64 `json:"traces_completed"`
	// Goroutines is the process goroutine count at steady state —
	// the worker-pool invariant makes it O(ShardWorkers), not O(Users).
	Goroutines int `json:"goroutines"`
	// PeakStretch is the highest tick-stretch rung any worker reached
	// during the point (1 = the degradation ladder never engaged or
	// was disabled).
	PeakStretch int `json:"peak_stretch"`
	// DegradedTickFrac is the degraded-tick occupancy: per-worker tick
	// deliveries skipped under stretch over total deliveries
	// (SkippedTicks / (Ticks × ShardWorkers)). 0 with the ladder
	// disabled.
	DegradedTickFrac float64 `json:"degraded_tick_frac"`
}

// RunPoint measures one capacity point in-process.
func RunPoint(opts Options) (Point, error) {
	opts.fillDefaults()
	syn, err := sim.NewSynth(sim.SynthConfig{
		Users:       opts.Users,
		TagsPerUser: opts.TagsPerUser,
		PerTagHz:    opts.PerTagHz,
		Seed:        opts.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	steps := syn.Steps(opts.Stream)
	total := steps * syn.ReportsPerStep()
	if steps == 0 {
		return Point{}, fmt.Errorf("load: stream %v too short for one read step at %v Hz",
			opts.Stream, opts.PerTagHz)
	}

	// The tracer ring is harness cost, like the synth: build it before
	// the heap baseline so it stays out of the bytes/user figure.
	tracer := newLoadTracer(opts.TraceSample, perTickReports(opts, total), effectiveWorkers(opts))
	if opts.OnTracer != nil {
		opts.OnTracer(tracer)
	}

	// Heap baseline before any monitor state exists. The synth itself
	// is already built — its (16 bytes × users) is generator cost, not
	// pipeline cost, and stays out of the bytes/user figure.
	baseline := liveHeap()

	mm := core.NewMonitorMetrics(nil)
	m := core.NewMonitor(core.MonitorConfig{
		Window:       opts.Window,
		UpdateEvery:  opts.UpdateEvery,
		ShardQueue:   opts.ShardQueue,
		ShardWorkers: opts.ShardWorkers,
		Overload:     opts.Overload,
		Degrade:      opts.Degrade,
		Metrics:      mm,
		Tracer:       tracer,
	})
	done := make(chan int)
	//tagbreathe:allow goroutineleak exits when Updates closes after CloseInput, and RunPoint always receives from done
	//tagbreathe:allow ctxflow the collector is joined by the done receive below; Monitor.Stop bounds its life, not a context
	go func() {
		n := 0
		for range m.Updates() {
			n++
		}
		done <- n
	}()

	cpu0 := processCPUSeconds()
	start := time.Now()
	buf := make([]reader.TagReport, 0, syn.ReportsPerStep())
	for k := 0; k < steps; k++ {
		buf = syn.Next(buf[:0])
		for _, r := range buf {
			if opts.Pace > 0 {
				// Synth staggers timestamps evenly inside each step, so
				// pacing per report is smooth, not bursty. Only sleep
				// when meaningfully ahead; when behind, push on — the
				// probe offers real-time load, it doesn't slow to the
				// pipeline's pace.
				ahead := time.Duration(float64(r.Timestamp)/opts.Pace) - time.Since(start)
				if ahead > 2*time.Millisecond {
					time.Sleep(ahead)
				}
			}
			m.Ingest(r)
		}
	}
	// Settle: every admitted report is processed or dropped, so the
	// worker queues are drained and the engines hold their steady
	// state. This is the closed-loop accounting gate — a report that
	// neither lands in an engine nor in the drop counter would hang
	// the harness here, loudly.
	settleDeadline := time.Now().Add(2 * time.Minute)
	for mm.Processed.Value()+mm.Dropped.Value() < uint64(total) {
		if time.Now().After(settleDeadline) {
			m.Stop()
			return Point{}, fmt.Errorf("load: %d of %d reports unaccounted after settle timeout",
				uint64(total)-mm.Processed.Value()-mm.Dropped.Value(), total)
		}
		time.Sleep(500 * time.Microsecond)
	}
	wall := time.Since(start).Seconds()
	cpu1 := processCPUSeconds()

	// Steady state: all engines live, queues empty, workers blocked on
	// their queues. Everything measured here is the pipeline's own
	// footprint.
	goroutines := runtime.NumGoroutine()
	heap := liveHeap()

	m.CloseInput()
	updates := <-done
	m.Stop()

	var heapDelta uint64
	if heap > baseline {
		heapDelta = heap - baseline
	}
	p := Point{
		Users:         opts.Users,
		Reports:       total,
		Updates:       updates,
		Processed:     mm.Processed.Value(),
		Dropped:       mm.Dropped.Value(),
		DropFrac:      float64(mm.Dropped.Value()) / float64(total),
		WallSeconds:   wall,
		CPUSeconds:    cpu1 - cpu0,
		ReportsPerSec: float64(total) / wall,
		BytesPerUser:  float64(heapDelta) / float64(opts.Users),
		HeapBytes:     heapDelta,
		TickP50Micros: mm.ShardTickSeconds.Quantile(0.50) * 1e6,
		TickP99Micros: mm.ShardTickSeconds.Quantile(0.99) * 1e6,
		Goroutines:    goroutines,
		PeakStretch:   m.PeakTickStretch(),
	}
	if deliveries := m.Ticks() * uint64(effectiveWorkers(opts)); deliveries > 0 {
		p.DegradedTickFrac = float64(m.SkippedTicks()) / float64(deliveries)
	}
	if n := tracer.Completed(); n > 0 {
		p.E2EP50Micros = tracer.EndToEnd().Quantile(0.50) * 1e6
		p.E2EP99Micros = tracer.EndToEnd().Quantile(0.99) * 1e6
		p.TracesCompleted = n
	}
	if opts.Overload == core.OverloadBlock && p.Dropped != 0 {
		return p, fmt.Errorf("load: OverloadBlock dropped %d reports", p.Dropped)
	}
	if p.Processed+p.Dropped != uint64(total) {
		return p, fmt.Errorf("load: accounting broken: processed %d + dropped %d != %d admitted",
			p.Processed, p.Dropped, total)
	}
	return p, nil
}

// newLoadTracer builds the harness's pipeline tracer from the
// TraceSample option: explicit strides are honored, negative disables
// (nil tracer), and 0 selects an adaptive stride — DefaultTraceSample
// widened until the traces sampled during one UpdateEvery interval fit
// the exemplar ring and the workers' bounded open-trace lists. Without
// the widening, a 10⁵-user point samples thousands of traces per tick
// interval and every one is evicted or shed before its covering tick
// completes it, leaving the e2e quantiles empty exactly at the ladder's
// interesting end.
func newLoadTracer(sample, perTickReports, workers int) *obs.Tracer {
	if sample < 0 {
		return nil
	}
	const ring = 4096
	if sample == 0 {
		sample = DefaultTraceSample
		// Budget well inside maxOpenTraces per worker and the ring.
		budget := 32 * workers
		if budget > ring/2 {
			budget = ring / 2
		}
		if s := perTickReports / budget; s > sample {
			sample = s
		}
	}
	return obs.NewTracer(nil, obs.TracerConfig{SampleEvery: sample, RingSize: ring})
}

// perTickReports estimates how many reports arrive between two analysis
// ticks — the tracer's in-flight population, since traces complete at
// tick emit.
func perTickReports(opts Options, total int) int {
	return int(float64(total) * opts.UpdateEvery.Seconds() / opts.Stream.Seconds())
}

// effectiveWorkers mirrors MonitorConfig's ShardWorkers default.
func effectiveWorkers(opts Options) int {
	if opts.ShardWorkers > 0 {
		return opts.ShardWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
