// Package tagbreathe is a Go implementation of TagBreathe (Hou, Wang,
// Zheng — IEEE ICDCS 2017): breath monitoring of one or more users with
// commodity UHF RFID systems. Passive tags on a user's clothes
// backscatter the reader's carrier; chest and abdomen motion during
// breathing modulates the backscatter phase, and the pipeline in this
// module turns the reader's low-level data stream into per-user
// breathing waveforms and rates.
//
// The package is the public facade over the implementation packages:
//
//   - Simulation substrate (no reader hardware required): breathing
//     body models, the UHF channel with frequency hopping, the EPC
//     Gen2 inventory MAC, and a reader emulator produce the same
//     low-level record stream an Impinj R420 reports.
//   - The TagBreathe pipeline: per-channel phase differencing,
//     multi-tag sensor fusion, band-limited breath extraction, and
//     zero-crossing rate estimation, in batch (Estimate) and
//     streaming (Monitor) forms.
//   - An LLRP-style wire protocol: a reader emulator (server) and a
//     managed host session that dials, provisions and reconnects, so
//     the pipeline can run against a remote reader exactly as the
//     original system ran against its reader.
//
// # Quick start
//
//	sc := tagbreathe.DefaultScenario()        // 1 user, 3 tags, 10 bpm
//	res, err := sc.Run()                      // simulate two minutes
//	if err != nil { ... }
//	ests, err := tagbreathe.Estimate(res.Reports, tagbreathe.Config{
//		Users: res.UserIDs,
//	})
//	for uid, est := range ests {
//		fmt.Printf("user %x breathes at %.1f bpm\n", uid, est.RateBPM)
//	}
//
// See the examples directory for multi-user monitoring, a multi-
// antenna ward deployment, and live streaming over the LLRP protocol.
package tagbreathe

import (
	"context"
	"io"
	"math/rand"

	"tagbreathe/internal/baseline"
	"tagbreathe/internal/body"
	"tagbreathe/internal/commission"
	"tagbreathe/internal/core"
	"tagbreathe/internal/epc"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
	"tagbreathe/internal/trace"
	"tagbreathe/internal/vitals"
)

// Core pipeline types.
type (
	// Config tunes the TagBreathe pipeline; the zero value uses the
	// paper's parameters (0.67 Hz cutoff, M = 7 crossings, 16 Hz
	// fusion bins), of which only the cutoff is settable.
	Config = core.Config
	// UserEstimate is the pipeline output for one user.
	UserEstimate = core.UserEstimate
	// BreathSignal is an extracted breathing waveform.
	BreathSignal = core.BreathSignal
	// Monitor is the realtime streaming pipeline.
	Monitor = core.Monitor
	// MonitorConfig tunes the streaming monitor.
	MonitorConfig = core.MonitorConfig
	// MonitorStats is a snapshot of the monitor's counters (see
	// Monitor.Stats).
	MonitorStats = core.MonitorStats
	// RateUpdate is one realtime per-user rate estimate.
	RateUpdate = core.RateUpdate
	// OverloadPolicy selects what the monitor does when a shard
	// worker's queue overflows (see MonitorConfig.Overload).
	OverloadPolicy = core.OverloadPolicy
	// DegradeConfig tunes the monitor's graceful-degradation ladder —
	// the per-worker controller that stretches tick cadence under
	// sustained overload before any data is shed (see
	// MonitorConfig.Degrade). The zero value disables it.
	DegradeConfig = core.DegradeConfig
	// ShedClass ranks a report's vantage quality for quality-aware
	// load shedding (see Monitor.VantageClass and
	// FleetConfig.ShedClass).
	ShedClass = core.ShedClass
	// FilterMode selects the stage engine's band-pass implementation
	// (see Config.Filter).
	FilterMode = core.FilterMode
)

// Band-pass filter modes for Config.Filter.
const (
	// FilterFFT (the zero value) recomputes the window each tick
	// through the FFT band-pass — the paper's reference extraction
	// (§IV-B).
	FilterFFT = core.FilterFFT
	// FilterFIRBatch recomputes the window each tick through the
	// linear-phase FIR band-pass.
	FilterFIRBatch = core.FilterFIRBatch
	// FilterFIRStreaming runs the causal streaming chain (FIR
	// low-pass, IIR high-pass): Monitor ticks cost O(new samples +
	// taps) independent of the window, at the price of the low-pass's
	// group delay (~2.9 s at the default band) before updates reflect
	// the newest breaths.
	FilterFIRStreaming = core.FilterFIRStreaming
)

// Overload policies for MonitorConfig.Overload.
const (
	// OverloadBlock applies lossless backpressure to Ingest (default).
	OverloadBlock = core.OverloadBlock
	// OverloadDropNewest sheds the incoming report for a full shard
	// queue and counts it (MonitorStats.Dropped).
	OverloadDropNewest = core.OverloadDropNewest
)

// Reader-facing types.
type (
	// TagReport is one low-level read record, the unit of input.
	TagReport = reader.TagReport
	// Antenna is one reader antenna port and its position.
	Antenna = reader.Antenna
	// EPC96 is a 96-bit tag identifier (64-bit user ‖ 32-bit tag).
	EPC96 = epc.EPC96
)

// Simulation types.
type (
	// Scenario is a complete simulated experiment configuration.
	Scenario = sim.Scenario
	// UserSpec describes one simulated subject.
	UserSpec = sim.UserSpec
	// Result is a completed simulation run.
	Result = sim.Result
	// Posture is a subject's body position.
	Posture = body.Posture
	// TagSite is a tag attachment location on the torso.
	TagSite = body.TagSite
)

// Posture values.
const (
	Sitting  = body.Sitting
	Standing = body.Standing
	Lying    = body.Lying
)

// Tag site values.
const (
	SiteChest   = body.SiteChest
	SiteMid     = body.SiteMid
	SiteAbdomen = body.SiteAbdomen
)

// Breathing pattern families for UserSpec.Pattern.
const (
	PatternMetronome = sim.PatternMetronome
	PatternNatural   = sim.PatternNatural
	PatternIrregular = sim.PatternIrregular
)

// LLRP protocol types for remote-reader deployments.
type (
	// ROSpecConfig selects antennas and report batching.
	ROSpecConfig = llrp.ROSpecConfig
	// LLRPSession is a managed reader connection: it dials, provisions
	// the ROSpec, and reconnects with backoff after any link failure,
	// delivering reports on one stable channel throughout.
	LLRPSession = llrp.Session
	// LLRPSessionConfig tunes the session's reconnect and watchdog
	// policy.
	LLRPSessionConfig = llrp.SessionConfig
)

// Estimate runs the batch pipeline over a report window and returns
// per-user estimates. See core.Estimate for details.
func Estimate(reports []TagReport, cfg Config) (map[uint64]*UserEstimate, error) {
	return core.Estimate(reports, cfg)
}

// EstimateUser runs the batch pipeline for a single user.
func EstimateUser(reports []TagReport, userID uint64, cfg Config) (*UserEstimate, error) {
	return core.EstimateUser(reports, userID, cfg)
}

// NewMonitor starts a realtime streaming monitor; see Monitor.
func NewMonitor(cfg MonitorConfig) *Monitor {
	return core.NewMonitor(cfg)
}

// MonitorStream replays a recorded report stream through a monitor and
// returns every rate update it produced.
func MonitorStream(reports []TagReport, cfg MonitorConfig) ([]RateUpdate, error) {
	return core.MonitorStream(reports, cfg)
}

// Accuracy is the paper's Eq. 8 metric: 1 − |measured − truth|/truth,
// clamped at zero.
func Accuracy(measured, truth float64) float64 {
	return core.Accuracy(measured, truth)
}

// HeartEstimate is the experimental cardiac extension's output.
type HeartEstimate = core.HeartEstimate

// EstimateHeartRate runs the experimental cardiac extension: the same
// phase stream, analyzed in the 0.8–2.5 Hz band. Check
// HeartEstimate.PeakProminence before trusting the rate — commodity
// readers' phase-noise floor buries the ~0.35 mm apex beat (see the
// heart study in EXPERIMENTS.md).
func EstimateHeartRate(reports []TagReport, userID uint64) (*HeartEstimate, error) {
	return core.EstimateHeartRate(reports, userID)
}

// DefaultScenario returns the paper's Table I default experiment:
// one sitting user with three tags, paced at 10 bpm, 4 m from a single
// antenna, two minutes.
func DefaultScenario() *Scenario {
	return sim.DefaultScenario()
}

// SideBySide builds UserSpecs for n users seated shoulder to shoulder
// at the given distance, the Fig. 13 multi-user layout.
func SideBySide(n int, distance float64, ratesBPM ...float64) []UserSpec {
	return sim.SideBySide(n, distance, ratesBPM...)
}

// NewUserTagEPC packs the paper's Fig. 9 EPC layout: 64-bit user ID
// followed by a 32-bit tag ID.
func NewUserTagEPC(userID uint64, tagID uint32) EPC96 {
	return epc.NewUserTagEPC(userID, tagID)
}

// StartLLRPSession starts a managed reader session: a supervision loop
// that dials cfg.Addr, provisions cfg.ROSpec, and transparently
// reconnects with exponential backoff whenever the link dies, so
// long-running deployments survive reader restarts and network faults
// without consumer-side re-wiring. Reports from every incarnation of
// the connection arrive on the one channel Session.Reports returns.
// Canceling ctx (or calling Close) ends the session for good.
func StartLLRPSession(ctx context.Context, cfg LLRPSessionConfig) (*LLRPSession, error) {
	return llrp.StartSession(ctx, cfg)
}

// Reader-fleet types for multi-reader deployments: a fixed set of named
// LLRP endpoints, each under its own supervised session, merged onto
// one provenance-tagged report channel that feeds a single Monitor.
// The pipeline's (reader, antenna) selection merges overlapping
// coverage deterministically — a user seen by several readers is
// estimated once, from the best vantage, never double-counted.
type (
	// Fleet is a running multi-reader fleet (see StartFleet).
	Fleet = fleet.Fleet
	// FleetConfig assembles a fleet: its readers, the per-reader
	// session template, quality-aware shedding, and instrumentation.
	FleetConfig = fleet.Config
	// FleetReaderConfig is one named reader endpoint in the fleet.
	FleetReaderConfig = fleet.ReaderConfig
	// FleetReaderStatus is one reader's view (the /debug/fleet row).
	FleetReaderStatus = fleet.ReaderStatus
	// FleetMetrics instruments the fleet with reader-labeled families.
	FleetMetrics = fleet.Metrics
)

// StartFleet starts a multi-reader fleet: one supervised LLRP session
// per configured reader, merged onto the single channel Fleet.Reports
// returns, with every report stamped with its reader's name
// (TagReport.ReaderID). The reader set is fixed at start; one stalled
// or dead reader never blocks the others. Canceling ctx (or calling
// Close) tears the fleet down.
func StartFleet(ctx context.Context, cfg FleetConfig) (*Fleet, error) {
	return fleet.Start(ctx, cfg)
}

// NewFleetMetrics wires fleet instruments into r (nil r: live,
// unexposed).
func NewFleetMetrics(r *MetricsRegistry) *FleetMetrics {
	return fleet.NewMetrics(r)
}

// Observability. The obs layer is zero-dependency: a concurrent
// metrics registry with Prometheus text-format and expvar exposition,
// plus an optional debug HTTP server (/metrics, /healthz, pprof).
// Every pipeline stage accepts a metrics set built from one registry;
// passing nil disables exposition at zero hot-path cost.
type (
	// MetricsRegistry collects metric families for exposition.
	MetricsRegistry = obs.Registry
	// DebugServer serves /metrics, /healthz, and pprof endpoints.
	DebugServer = obs.DebugServer
	// MonitorMetrics instruments the streaming Monitor (see
	// MonitorConfig.Metrics).
	MonitorMetrics = core.MonitorMetrics
	// EstimateMetrics instruments the batch pipeline (see
	// Config.Metrics).
	EstimateMetrics = core.EstimateMetrics
	// LLRPServerMetrics instruments the reader-side protocol end.
	LLRPServerMetrics = llrp.ServerMetrics
	// LLRPClientMetrics instruments the host-side protocol end.
	LLRPClientMetrics = llrp.ClientMetrics
	// LLRPSessionMetrics instruments the managed session layer
	// (reconnects, outages, watchdog trips).
	LLRPSessionMetrics = llrp.SessionMetrics
)

// Pipeline tracing. A Tracer samples reports at a configurable stride
// and stamps each sampled one at every pipeline stage it passes — LLRP
// frame decode, session forward, monitor ingest, routing, worker dequeue,
// engine feed, update emit — feeding per-stage latency histograms, an
// end-to-end report→update histogram, and an exemplar ring served at
// the debug server's /debug/traces. Thread one tracer through
// LLRPSessionConfig.Tracer and MonitorConfig.Tracer; a nil tracer is
// valid everywhere and traces nothing.
type (
	// Tracer samples end-to-end report traces through the pipeline.
	Tracer = obs.Tracer
	// TracerConfig tunes a Tracer's sampling stride and exemplar ring.
	TracerConfig = obs.TracerConfig
)

// NewTracer wires a pipeline tracer's instruments into r (nil r: live
// but unexposed) and builds its exemplar ring.
func NewTracer(r *MetricsRegistry, cfg TracerConfig) *Tracer {
	return obs.NewTracer(r, cfg)
}

// RegisterRuntimeMetrics bridges Go runtime telemetry (GC pause and
// scheduling-latency quantiles, heap size, goroutine count) into the
// registry, refreshed on every scrape.
func RegisterRuntimeMetrics(r *MetricsRegistry) {
	obs.RegisterRuntime(r)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry {
	return obs.NewRegistry()
}

// NewMonitorMetrics wires streaming-monitor instruments into r (nil r:
// instruments work but are not exposed anywhere).
func NewMonitorMetrics(r *MetricsRegistry) *MonitorMetrics {
	return core.NewMonitorMetrics(r)
}

// NewEstimateMetrics wires batch-pipeline instruments into r.
func NewEstimateMetrics(r *MetricsRegistry) *EstimateMetrics {
	return core.NewEstimateMetrics(r)
}

// NewLLRPServerMetrics wires reader-side protocol instruments into r.
func NewLLRPServerMetrics(r *MetricsRegistry) *LLRPServerMetrics {
	return llrp.NewServerMetrics(r)
}

// NewLLRPClientMetrics wires host-side protocol instruments into r.
func NewLLRPClientMetrics(r *MetricsRegistry) *LLRPClientMetrics {
	return llrp.NewClientMetrics(r)
}

// NewLLRPSessionMetrics wires session-layer instruments into r.
func NewLLRPSessionMetrics(r *MetricsRegistry) *LLRPSessionMetrics {
	return llrp.NewSessionMetrics(r)
}

// ServeDebug starts the debug HTTP server on addr, exposing the
// registry at /metrics plus /healthz and /debug/pprof. Close the
// returned server when done.
func ServeDebug(addr string, r *MetricsRegistry) (*DebugServer, error) {
	return obs.ServeDebug(addr, r)
}

// RadarScenario simulates a CW Doppler radar over the same subjects,
// the paper's motivating comparison.
type RadarScenario = baseline.RadarScenario

// Respiratory analytics (the healthcare applications §I motivates).
type (
	// Breath is one segmented respiratory cycle.
	Breath = vitals.Breath
	// Apnea is a detected breathing pause.
	Apnea = vitals.Apnea
	// VitalsSummary aggregates rate, depth, I:E ratio, variability,
	// and apneas over a window.
	VitalsSummary = vitals.Summary
)

// SegmentBreaths slices an extracted breathing signal into individual
// respiratory cycles.
func SegmentBreaths(sig *BreathSignal) []Breath {
	return vitals.SegmentBreaths(sig)
}

// DetectApneas flags breathing pauses of at least minPauseSec seconds.
func DetectApneas(sig *BreathSignal, minPauseSec float64) []Apnea {
	return vitals.DetectApneas(sig, minPauseSec)
}

// SummarizeVitals computes the full respiratory summary for a signal.
func SummarizeVitals(sig *BreathSignal, minPauseSec float64) VitalsSummary {
	return vitals.Summarize(sig, minPauseSec)
}

// Tag commissioning (§IV-C: EPC overwrite or mapping-table fallback).
type (
	// TagRegistry resolves tag reports to logical identities.
	TagRegistry = commission.Registry
	// TagIdentity is a (user, tag) pair.
	TagIdentity = commission.Identity
	// TagWriter programs identities into tags with Gen2 word-write
	// semantics and verification.
	TagWriter = commission.Writer
	// WritableTag is a tag's EPC bank during commissioning.
	WritableTag = commission.WritableTag
)

// NewTagRegistry builds an empty commissioning registry.
func NewTagRegistry() *TagRegistry {
	return commission.NewRegistry()
}

// NewTagWriterWithRetries builds a commissioning station that writes
// tag identities with Gen2 word-write semantics, verifying and
// retrying up to maxRetries times per tag.
func NewTagWriterWithRetries(maxRetries int, rng *rand.Rand) (*TagWriter, error) {
	return commission.NewWriter(maxRetries, rng)
}

// ParseEPC96 parses a 24-hex-digit EPC string.
func ParseEPC96(s string) (EPC96, error) {
	return epc.ParseEPC96(s)
}

// Trace recording and replay.

// WriteTrace records a report stream as CSV for offline replay.
func WriteTrace(w io.Writer, reports []TagReport) error {
	return trace.WriteAll(w, reports)
}

// ReadTrace loads a recorded CSV trace.
func ReadTrace(r io.Reader) ([]TagReport, error) {
	return trace.ReadAll(r)
}
