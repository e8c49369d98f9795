// Package core implements the paper's contribution: the TagBreathe
// host-side pipeline that turns a commodity reader's low-level tag
// report stream into per-user breathing signals and rates.
//
// The stages mirror §IV of the paper:
//
//  1. Preprocessing — reports are classified by user ID and tag ID
//     (recovered from the 96-bit EPC, Fig. 9) and by antenna and
//     frequency channel; per-channel phase differences become
//     displacement values (Eq. 3), immune to hop discontinuities.
//  2. Sensor fusion — displacement streams from all of a user's tags
//     are fused per time bin (Eq. 6) before extraction, and the fused
//     stream is accumulated into a breathing waveform (Eq. 7).
//  3. Extraction — an FFT-based band-pass filter isolates the 0.05 to
//     0.67 Hz breathing band, and zero crossings yield the rate
//     (Eq. 5, buffered over M = 7 crossings).
//  4. Antenna selection — with multiple antennas the stream from the
//     best antenna per user (read rate and RSSI) is used (§IV-D.3).
package core

import (
	"math"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
	"tagbreathe/internal/units"
)

// DisplacementSample is one Eq. 3 output: the change in tag-antenna
// distance between two consecutive same-channel phase readings of one
// tag. TPrev..T is the interval the displacement accrued over; fusion
// spreads D across that interval so sparse streams (sideways users,
// heavy contention) do not alias whole breath cycles into one bin.
type DisplacementSample struct {
	// T is the later reading's time, seconds since run start.
	T float64
	// TPrev is the earlier reading's time.
	TPrev float64
	// D is the displacement in meters (positive = tag receding).
	D float64
}

// streamKey identifies one phase-continuous stream: same reader, same
// tag, same antenna, same frequency channel. Phase values are only
// comparable within a key — across channels both λ and the circuit
// constant c change (Fig. 4), across antennas the geometry changes,
// and across readers everything changes (independent oscillators,
// independent geometry), so fleet provenance is part of the key.
type streamKey struct {
	reader  string
	user    uint64
	tag     uint32
	antenna int
	channel int
}

// lastPhase remembers the previous reading of a stream.
type lastPhase struct {
	t     float64
	phase units.Radians
	valid bool
}

// Differencer converts a report stream into per-tag displacement
// streams, implementing the preprocessing of §IV-A.3. It is a
// stateful, streaming component: feed reports in timestamp order and
// collect displacement samples per (user, tag, antenna).
type Differencer struct {
	cfg  Config
	last map[streamKey]lastPhase
}

// NewDifferencer builds a Differencer with the given pipeline config.
func NewDifferencer(cfg Config) *Differencer {
	cfg.fillDefaults()
	return &Differencer{
		cfg:  cfg,
		last: make(map[streamKey]lastPhase),
	}
}

// TagDisplacement is the output of one report: which user, tag, and
// antenna produced it, and the displacement sample, if this report had
// a usable same-channel predecessor.
type TagDisplacement struct {
	UserID  uint64
	TagID   uint32
	Antenna int
	Sample  DisplacementSample
}

// Ingest processes one report. It returns the displacement sample the
// report produced and true, or a zero value and false when the report
// only primes its stream (first reading on a channel, or the
// predecessor was too old to difference against).
func (df *Differencer) Ingest(r reader.TagReport) (TagDisplacement, bool) {
	key := streamKey{
		reader:  r.ReaderID,
		user:    r.EPC.UserID(),
		tag:     r.EPC.TagID(),
		antenna: r.AntennaPort,
		channel: r.ChannelIndex,
	}
	if df.cfg.IgnoreChannelGrouping {
		key.channel = 0 // ablation: one stream per tag regardless of hop
	}
	t := r.Timestamp.Seconds()
	prev := df.last[key]
	df.last[key] = lastPhase{t: t, phase: r.Phase, valid: true}

	if !prev.valid || t-prev.t > df.cfg.MaxPhaseGap || t <= prev.t {
		return TagDisplacement{}, false
	}

	dtheta := units.WrapPhaseDiff(r.Phase - prev.phase)
	if df.cfg.PiAmbiguityMitigation {
		// Readers that cannot resolve the BPSK constellation add
		// random π flips; folding the difference into (-π/2, π/2]
		// removes them at the cost of halving the unambiguous range,
		// still far beyond breathing displacement between reads.
		dtheta = foldPi(dtheta)
	}
	lambda := float64(r.Frequency.Wavelength())
	// Eq. 3: Δd = λ/(4π) · (θ_{i+1} − θ_i). The radio wave travels
	// 2d, so a phase change Δθ corresponds to a distance change of
	// λΔθ/(4π).
	d := lambda / (4 * math.Pi) * float64(dtheta)
	return TagDisplacement{
		UserID:  key.user,
		TagID:   key.tag,
		Antenna: key.antenna,
		Sample:  DisplacementSample{T: t, TPrev: prev.t, D: d},
	}, true
}

// Reset clears all stream state (e.g., when a sliding window advances
// far enough that stale predecessors should not be differenced).
func (df *Differencer) Reset() {
	clear(df.last)
}

// foldPi maps a wrapped phase difference into (-π/2, π/2] by removing
// any π component, the standard mitigation for constellation-ambiguous
// readers.
func foldPi(d units.Radians) units.Radians {
	v := float64(d)
	for v > math.Pi/2 {
		v -= math.Pi
	}
	for v <= -math.Pi/2 {
		v += math.Pi
	}
	return units.Radians(v)
}

// AccumulateDisplacement implements Eq. 4 for a single stream: the
// total displacement after each sample, i.e. the running sum of the
// per-reading displacements. The result is a reconstruction of the
// tag's radial trajectory (up to an unknown starting offset), which is
// what Fig. 6 plots.
func AccumulateDisplacement(samples []DisplacementSample) []sigproc.Sample {
	out := make([]sigproc.Sample, len(samples))
	var acc float64
	for i, s := range samples {
		acc += s.D
		out[i] = sigproc.Sample{T: s.T, V: acc}
	}
	return out
}

// Config tunes the pipeline. The zero value is usable: fillDefaults
// installs the paper's parameters.
type Config struct {
	// BinInterval is Δt of Eq. 6, the fusion bin width. Default 62.5 ms
	// (16 Hz fused stream), comfortably above twice the 0.67 Hz cutoff.
	BinInterval time.Duration
	// LowCutHz is the high-pass edge of the extraction band. Breathing
	// has little energy this low, but integrated phase noise does; the
	// paper's zero-centred Fig. 8 signal implies this detrending.
	// Default 0.05 Hz, safely under the slowest evaluated rate (5 bpm
	// = 0.083 Hz, Table I).
	LowCutHz float64
	// HighCutHz is the low-pass cutoff; §IV-B sets 0.67 Hz (40 bpm).
	HighCutHz float64
	// CrossingBufferM is M of Eq. 5; the paper buffers 7 crossings.
	CrossingBufferM int
	// MinCrossingGap suppresses crossing chatter; at most 40 bpm a
	// half-cycle lasts 0.75 s, so 0.4 s is safely below real spacing.
	MinCrossingGap float64
	// EdgeTrim excludes this many seconds at each end of the filtered
	// window from crossing detection, where the FFT filter rings.
	EdgeTrim float64
	// MaxPhaseGap bounds how old a predecessor reading may be for
	// Eq. 3 differencing. Default 12 s: breathing moves the tag far
	// less than λ/4 even over that span, so the difference remains
	// unambiguous, and a generous gap preserves the telescoping of
	// Eq. 4 sums in sparse-read regimes — high contention, sideways
	// orientation, and wide channel plans (the FCC 50-channel plan
	// revisits each channel only every ~10 s).
	MaxPhaseGap float64
	// PiAmbiguityMitigation folds phase differences into (-π/2, π/2]
	// for readers with BPSK constellation ambiguity.
	PiAmbiguityMitigation bool
	// Users restricts processing to these user IDs. Empty means
	// auto-discover: every distinct EPC high-64 seen is treated as a
	// user (suitable when all tags in the field are monitoring tags).
	Users []uint64
	// Filter selects the band-pass filter, the one switch Estimate,
	// Monitor and ExtractBreath all read. FilterFFT (the zero value)
	// is the paper's reference FFT band-pass (§IV-B); FilterFIRBatch
	// is the FIR alternative §IV-B mentions. Both recompute the
	// window each tick. FilterFIRStreaming runs the causal streaming
	// chain, making Monitor ticks O(new samples + taps) independent
	// of window length at the price of the filter's group delay; it
	// runs as FilterFIRBatch under MotionRejection, and ExtractBreath,
	// which has no streaming form, runs FFT for it.
	Filter FilterMode
	// MotionRejection blanks fused bins whose magnitude marks
	// non-respiratory body motion (postural shifts move the torso by
	// centimeters — orders beyond breathing) and drops zero crossings
	// inside the blanked windows. Off by default to match the paper's
	// pipeline; the motion study quantifies the benefit.
	MotionRejection bool
	// IgnoreChannelGrouping disables the per-channel stream separation
	// of §IV-A.3, differencing consecutive phases across channel hops
	// as a naive implementation would. Exists only for the ablation
	// that demonstrates why Eq. 3 groups by channel: under frequency
	// hopping the per-channel constant c changes every dwell and the
	// naive differences are dominated by hop discontinuities.
	IgnoreChannelGrouping bool
	// Workers bounds the worker pool Estimate spreads per-user shards
	// across. Per-user streams are independent (EPC Gen2 singulation
	// keeps them separate at the MAC layer, §III), so the batch
	// pipeline shards by user ID and runs displacement accumulation,
	// fusion, extraction, and rate estimation concurrently. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs shards sequentially on the calling
	// goroutine (the reference path the equivalence tests compare
	// against). Both paths produce bit-identical estimates.
	Workers int
	// Metrics receives the batch pipeline's instrumentation (see
	// NewEstimateMetrics). Nil disables: Estimate's results are
	// identical either way; only observation changes.
	Metrics *EstimateMetrics
	// LiteralBinning reproduces the paper's Eq. 6 exactly: each
	// displacement sample lands wholly in the bin of its later
	// reading. The default spreads each sample over the interval it
	// accrued across — identical for dense reads, and markedly more
	// robust when same-channel reads arrive seconds apart (heavy
	// contention, sideways users). The spreading ablation quantifies
	// the difference.
	LiteralBinning bool
}

// fillDefaults installs the paper's parameter values for unset fields.
func (c *Config) fillDefaults() {
	if c.BinInterval <= 0 {
		c.BinInterval = 62500 * time.Microsecond
	}
	if c.LowCutHz <= 0 {
		c.LowCutHz = 0.05
	}
	if c.HighCutHz <= 0 {
		c.HighCutHz = 0.67
	}
	if c.CrossingBufferM <= 0 {
		c.CrossingBufferM = 7
	}
	if c.MinCrossingGap <= 0 {
		c.MinCrossingGap = 0.4
	}
	if c.EdgeTrim <= 0 {
		c.EdgeTrim = 1.5
	}
	if c.MaxPhaseGap <= 0 {
		c.MaxPhaseGap = 12.0
	}
}

// allowsUser reports whether reports for this user ID should be
// processed.
func (c *Config) allowsUser(id uint64) bool {
	if len(c.Users) == 0 {
		return true
	}
	for _, u := range c.Users {
		if u == id {
			return true
		}
	}
	return false
}

// epcUserID is a tiny helper so other files in this package don't
// reach through the epc package for the common case.
func epcUserID(e epc.EPC96) uint64 { return e.UserID() }
