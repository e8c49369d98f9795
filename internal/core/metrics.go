package core

import (
	"math"
	"strconv"

	"tagbreathe/internal/obs"
)

// Metric name catalog for the core pipeline (see DESIGN.md §7 for the
// full scheme). All names carry the tagbreathe_ prefix so a shared
// Prometheus scrape can't collide with other jobs.

// MonitorMetrics are the streaming pipeline's instruments. Build one
// with NewMonitorMetrics and hand it to MonitorConfig.Metrics; a nil
// registry yields live but unexposed instruments, so Monitor code
// updates handles unconditionally.
type MonitorMetrics struct {
	// Ingested counts reports entering the router (pre-filter).
	Ingested *obs.Counter
	// Dropped counts reports shed under OverloadDropNewest —
	// MonitorStats.Dropped reads this counter.
	Dropped *obs.Counter
	// Processed counts reports fed into user engines by the shard
	// workers — MonitorStats.Processed reads this counter. Each worker
	// adds its count once per span of its queue, so while it feeds the
	// counter trails by less than one span (32 reports) per worker.
	// With Dropped it closes the accounting loop: admitted = processed
	// + dropped whenever the workers are idle.
	Processed *obs.Counter
	// Ticks counts analysis tick broadcasts.
	Ticks *obs.Counter
	// Updates counts rate updates emitted to consumers.
	Updates *obs.Counter
	// ActiveUsers is the number of users with live engine state.
	ActiveUsers *obs.Gauge
	// ShardWorkers is the shard worker pool size.
	ShardWorkers *obs.Gauge
	// WorkerQueueHighWater records, per shard worker, the deepest its
	// input queue has been — the backpressure early-warning signal.
	WorkerQueueHighWater *obs.GaugeVec
	// TickLatency is the wall time from a tick's broadcast to its
	// updates being handed to the consumer — the freshness of what a
	// dashboard displays.
	TickLatency *obs.Histogram
	// ShardTickSeconds is the wall time of one shard's per-tick
	// analysis (engine settle + select + extract/advance) — the
	// incremental engine's per-tick work, per user.
	ShardTickSeconds *obs.Histogram
	// TickBins is the fused-bin work of one shard tick: the window
	// length in the recompute filter modes, or only the newly
	// finalized bins in streaming mode — the direct evidence that a
	// streaming tick's work is independent of the window length.
	TickBins *obs.Histogram
	// AntennaReadRate, AntennaMeanRSSI, and AntennaScore surface the
	// per-(user, reader, antenna) §IV-D.3 selection inputs computed
	// each tick. The reader label is "-" for the unnamed single-reader
	// path, so series names stay stable when a deployment grows from
	// one reader to a fleet.
	AntennaReadRate *obs.GaugeVec
	AntennaMeanRSSI *obs.GaugeVec
	AntennaScore    *obs.GaugeVec
	// EngineBinsPending is, per shard worker, the total fused bins
	// deposited but not yet pushed through the streaming filter chains
	// — the engine-internal backlog that answers "which stage is
	// behind" during overload. Zero in non-streaming filter modes.
	EngineBinsPending *obs.GaugeVec
	// EngineHeldFloorAge is, per shard worker, the stream-time age of
	// the oldest accrual still held back for bin finality across the
	// worker's engines — structural latency from the fusion stage.
	EngineHeldFloorAge *obs.GaugeVec
	// EngineFilterWarmup is, per shard worker, the smallest warmup
	// fill fraction (0..1) across the worker's streaming filter
	// chains; 1 once every chain is past its warmup (the low-pass's
	// taps plus the high-pass's settle, 298 bins at the default band).
	EngineFilterWarmup *obs.GaugeVec
	// TickStretch is each shard worker's current tick-stretch factor
	// (1 = full cadence): the live position of the degradation ladder,
	// per worker. Constant 1 when the controller is disabled.
	TickStretch *obs.GaugeVec
	// TickStretchPeak is the highest stretch any worker has reached
	// over the monitor's lifetime — the ladder's high-water mark.
	TickStretchPeak *obs.Gauge
	// DegradedWorkers counts shard workers currently above 1× stretch.
	// Zero means every worker is at full cadence; after recovery the
	// hysteresis must bring it back to zero (the soak asserts this).
	DegradedWorkers *obs.Gauge
	// TicksSkipped counts per-worker tick deliveries skipped under
	// tick stretch. Against Ticks × ShardWorkers it is the
	// degraded-tick occupancy.
	TicksSkipped *obs.Counter
	// ShedByClass partitions Dropped by shed class (unknown, primary,
	// redundant): quality-aware shedding's proof that redundant
	// vantages are sacrificed before primary data.
	ShedByClass *obs.CounterVec
	// VantageGates counts (user, vantage) gates currently closed by
	// quality-aware shedding: whole vantages silenced coherently so
	// their half-starved streams cannot pin the finality horizon.
	VantageGates *obs.Gauge
	// VantageGateCloses counts gate-close transitions over the
	// monitor's lifetime (each one retires the vantage's phase
	// streams via a tombstone).
	VantageGateCloses *obs.Counter
	// StaleUsers counts users whose last emitted update is older than
	// MonitorConfig.StalenessSLO — the estimate-freshness SLO gauge.
	StaleUsers *obs.Gauge
	// OldestUpdateAge is the wall-clock age of the least fresh user's
	// last update, the continuous signal behind StaleUsers.
	OldestUpdateAge *obs.Gauge
}

// NewMonitorMetrics wires monitor instruments into r (nil r: live,
// unexposed). Two monitors on one registry share series.
func NewMonitorMetrics(r *obs.Registry) *MonitorMetrics {
	return &MonitorMetrics{
		Ingested: r.Counter("tagbreathe_monitor_reports_ingested_total",
			"Reports received by the monitor's router."),
		Dropped: r.Counter("tagbreathe_monitor_reports_dropped_total",
			"Reports shed by the OverloadDropNewest policy."),
		Processed: r.Counter("tagbreathe_monitor_reports_processed_total",
			"Reports fed into user engines by the shard workers."),
		Ticks: r.Counter("tagbreathe_monitor_ticks_total",
			"Analysis ticks broadcast to shards."),
		Updates: r.Counter("tagbreathe_monitor_updates_total",
			"Rate updates emitted to consumers."),
		ActiveUsers: r.Gauge("tagbreathe_monitor_active_users",
			"Users with live engine state."),
		ShardWorkers: r.Gauge("tagbreathe_monitor_shard_workers",
			"Shard worker pool size."),
		WorkerQueueHighWater: r.GaugeVec("tagbreathe_monitor_shard_queue_high_water",
			"Deepest observed input queue depth, per shard worker.", "worker"),
		TickLatency: r.Histogram("tagbreathe_monitor_tick_latency_seconds",
			"Wall time from tick broadcast to updates emitted.", nil),
		ShardTickSeconds: r.Histogram("tagbreathe_monitor_shard_tick_seconds",
			"Wall time of one user's per-tick incremental analysis.",
			ShardTickBuckets),
		TickBins: r.Histogram("tagbreathe_monitor_tick_bins",
			"Fused bins processed per shard tick (window length in recompute modes, newly finalized bins in streaming mode).", nil),
		AntennaReadRate: r.GaugeVec("tagbreathe_antenna_read_rate_hz",
			"Per-(user, reader, antenna) read rate over the last window (§IV-D.3 input).",
			"user", "reader", "antenna"),
		AntennaMeanRSSI: r.GaugeVec("tagbreathe_antenna_mean_rssi_dbm",
			"Per-(user, reader, antenna) mean RSSI over the last window (§IV-D.3 input).",
			"user", "reader", "antenna"),
		AntennaScore: r.GaugeVec("tagbreathe_antenna_score",
			"Per-(user, reader, antenna) selection score (§IV-D.3).",
			"user", "reader", "antenna"),
		EngineBinsPending: r.GaugeVec("tagbreathe_engine_bins_pending",
			"Fused bins deposited but not yet pushed through the streaming filter chains, per shard worker.",
			"worker"),
		EngineHeldFloorAge: r.GaugeVec("tagbreathe_engine_held_floor_age_seconds",
			"Stream-time age of the oldest accrual held back for bin finality, per shard worker.",
			"worker"),
		EngineFilterWarmup: r.GaugeVec("tagbreathe_engine_filter_warmup_ratio",
			"Smallest streaming-filter warmup fill fraction (0..1) across a shard worker's engines.",
			"worker"),
		TickStretch: r.GaugeVec("tagbreathe_monitor_tick_stretch",
			"Current tick-stretch factor (1 = full cadence), per shard worker.",
			"worker"),
		TickStretchPeak: r.Gauge("tagbreathe_monitor_tick_stretch_peak",
			"Highest tick-stretch factor any shard worker has reached."),
		DegradedWorkers: r.Gauge("tagbreathe_monitor_degraded_workers",
			"Shard workers currently above 1x tick stretch."),
		TicksSkipped: r.Counter("tagbreathe_monitor_ticks_skipped_total",
			"Per-worker tick deliveries skipped under tick stretch."),
		ShedByClass: r.CounterVec("tagbreathe_monitor_reports_shed_by_class_total",
			"Reports shed by the router, partitioned by vantage class (unknown, primary, redundant).",
			"class"),
		VantageGates: r.Gauge("tagbreathe_monitor_vantage_gates_closed",
			"(user, vantage) gates currently closed by quality-aware shedding."),
		VantageGateCloses: r.Counter("tagbreathe_monitor_vantage_gate_closes_total",
			"Vantage-gate close transitions (each retires the vantage's phase streams)."),
		StaleUsers: r.Gauge("tagbreathe_monitor_stale_users",
			"Users whose last emitted update is older than the staleness SLO."),
		OldestUpdateAge: r.Gauge("tagbreathe_monitor_oldest_update_age_seconds",
			"Wall-clock age of the least fresh user's last emitted update."),
	}
}

// ShardTickBuckets resolves the per-user incremental tick, which the
// streaming engine holds in the microseconds (BenchmarkMonitorTickWindow)
// — far below obs.DefBuckets' 0.5 ms floor. The ledger's
// monitor.tick_p50_us and monitor.tick_p99_us come from this
// histogram. The grid is log-linear, four buckets per power of two
// from 1 µs to 2¹⁸ µs ≈ 0.26 s (73 bounds, one unlabelled family): a
// bucket spans at most a quarter of its lower edge, so when a few
// slow ticks push a quantile across an edge, the interpolated
// quantile moves by a fraction of its value rather than a bucket's
// width.
var ShardTickBuckets = logLinearBuckets(1e-6, 18, 4)

// logLinearBuckets returns bounds from start to start·2^octaves with
// perOctave equal-width buckets inside each power of two.
func logLinearBuckets(start float64, octaves, perOctave int) []float64 {
	out := make([]float64, 0, octaves*perOctave+1)
	for o := 0; o < octaves; o++ {
		lo := math.Ldexp(start, o)
		for k := 0; k < perOctave; k++ {
			out = append(out, lo*(1+float64(k)/float64(perOctave)))
		}
	}
	return append(out, math.Ldexp(start, octaves))
}

// WorkerLabel formats a shard worker index for the "worker" label.
//
//tagbreathe:labelvalue one series per shard worker; the pool is sized by GOMAXPROCS, not by load
func WorkerLabel(i int) string {
	return strconv.Itoa(i)
}

// UserLabel formats a user ID for the "user" metric label, matching
// the hex form the CLI prints so log lines and metric series join.
//
//tagbreathe:labelvalue one series per monitored user; deployments track a handful of users, not an open set
func UserLabel(uid uint64) string {
	return strconv.FormatUint(uid, 16)
}

// AntennaLabel formats an antenna port for the "antenna" metric label.
//
//tagbreathe:labelvalue antenna ports are hardware-bounded (LLRP readers expose at most a few)
func AntennaLabel(port int) string {
	return strconv.Itoa(port)
}

// ReaderLabel formats a reader name for the "reader" metric label. The
// unnamed single-reader case ("") becomes "-" so the series is still
// addressable.
//
//tagbreathe:labelvalue reader names are operator-configured fleet entries, a handful per process
func ReaderLabel(name string) string {
	if name == "" {
		return "-"
	}
	return name
}

// EstimateMetrics are the batch pipeline's instruments; hand one to
// Config.Metrics.
type EstimateMetrics struct {
	// Runs counts Estimate invocations.
	Runs *obs.Counter
	// Shards counts per-user shards processed across runs.
	Shards *obs.Counter
	// NoSignal counts shards that yielded no estimate (too little
	// data or no extractable breathing signal).
	NoSignal *obs.Counter
	// ShardSeconds is the wall time of one shard's full pipeline.
	ShardSeconds *obs.Histogram
	// RunSeconds is the wall time of one whole Estimate call.
	RunSeconds *obs.Histogram
	// Workers is the pool size of the last run.
	Workers *obs.Gauge
	// WorkerUtilization is the last run's busy fraction: summed shard
	// wall time over (run wall time × workers). Near 1.0 the pool is
	// the bottleneck; near 1/workers one giant shard dominates.
	WorkerUtilization *obs.Gauge
}

// NewEstimateMetrics wires batch-pipeline instruments into r (nil r:
// live, unexposed).
func NewEstimateMetrics(r *obs.Registry) *EstimateMetrics {
	return &EstimateMetrics{
		Runs: r.Counter("tagbreathe_estimate_runs_total",
			"Batch Estimate invocations."),
		Shards: r.Counter("tagbreathe_estimate_shards_total",
			"Per-user shards processed by the batch pipeline."),
		NoSignal: r.Counter("tagbreathe_estimate_no_signal_total",
			"Shards with no extractable breathing signal."),
		ShardSeconds: r.Histogram("tagbreathe_estimate_shard_seconds",
			"Wall time of one per-user shard's pipeline.", nil),
		RunSeconds: r.Histogram("tagbreathe_estimate_run_seconds",
			"Wall time of one whole Estimate call.", nil),
		Workers: r.Gauge("tagbreathe_estimate_workers",
			"Worker pool size of the last Estimate run."),
		WorkerUtilization: r.Gauge("tagbreathe_estimate_worker_utilization",
			"Busy fraction of the last run's worker pool (0..1)."),
	}
}
