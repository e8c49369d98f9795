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
	"fmt"
	"math"

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
// independent geometry), so fleet provenance is part of the key. The
// reader is its interned number (Differencer.readers), so the key
// hashes without touching a string.
type streamKey struct {
	reader  int32
	tag     uint32
	antenna int
	user    uint64
	channel int
}

// phaseStream is one stream's slot: its previous reading, and the
// vantage and tag it belongs to. valid is false until the stream's
// first reading, and again once CloseVantage retires it.
type phaseStream struct {
	t       float64
	phase   units.Radians
	reader  int32
	tag     uint32
	antenna int
	valid   bool
}

// Differencer converts a report stream into per-tag displacement
// streams, implementing the preprocessing of §IV-A.3. It is a
// stateful, streaming component: feed reports in timestamp order and
// collect displacement samples per (user, tag, antenna).
//
// Streams live in a slice in first-seen order. index finds a stream's
// slot by key, for Ingest and for the streams the stage engine's slot
// cache does not cover; a stream the cache covers is created by slot
// (newStream) and never enters the index (Engine.streamOf).
type Differencer struct {
	readers smallSet[string]
	index   map[streamKey]int32
	streams []phaseStream
}

// NewDifferencer builds an empty Differencer.
func NewDifferencer() *Differencer {
	return &Differencer{index: make(map[streamKey]int32)}
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
	d, ok := df.difference(df.stream(df.reader(r.ReaderID), &r), &r, r.Timestamp.Seconds())
	if !ok {
		return TagDisplacement{}, false
	}
	return TagDisplacement{
		UserID:  r.EPC.UserID(),
		TagID:   r.EPC.TagID(),
		Antenna: r.AntennaPort,
		Sample:  d,
	}, true
}

// reader returns the interned number of a reader ID.
func (df *Differencer) reader(id string) int32 {
	if ri, ok := df.readers.find(id); ok {
		return ri
	}
	return df.readers.add(id)
}

// stream returns the slot of r's stream on interned reader ri,
// creating the stream on its first report.
func (df *Differencer) stream(ri int32, r *reader.TagReport) int32 {
	key := streamKey{
		reader:  ri,
		antenna: r.AntennaPort,
		user:    r.EPC.UserID(),
		tag:     r.EPC.TagID(),
		channel: r.ChannelIndex,
	}
	if s, ok := df.index[key]; ok {
		return s
	}
	s := df.newStream(ri, key.tag, key.antenna)
	df.index[key] = s
	return s
}

// newStream appends a stream on interned reader ri and returns its
// slot, without entering it in the index.
func (df *Differencer) newStream(ri int32, tag uint32, antenna int) int32 {
	df.streams = append(df.streams, phaseStream{reader: ri, tag: tag, antenna: antenna})
	return int32(len(df.streams) - 1)
}

// difference applies Eq. 3 to report r, read at t seconds, on stream
// slot s: it records r as the stream's latest reading and returns the
// displacement since the previous one, or false when r only primes the
// stream.
func (df *Differencer) difference(s int32, r *reader.TagReport, t float64) (DisplacementSample, bool) {
	ps := &df.streams[s]
	prevT, prevPhase, prevValid := ps.t, ps.phase, ps.valid
	ps.t, ps.phase, ps.valid = t, r.Phase, true

	if !prevValid || t-prevT > maxPhaseGap || t <= prevT {
		return DisplacementSample{}, false
	}

	dtheta := units.WrapPhaseDiff(r.Phase - prevPhase)
	lambda := float64(r.Frequency.Wavelength())
	// Eq. 3: Δd = λ/(4π) · (θ_{i+1} − θ_i). The radio wave travels
	// 2d, so a phase change Δθ corresponds to a distance change of
	// λΔθ/(4π).
	d := lambda / (4 * math.Pi) * float64(dtheta)
	return DisplacementSample{T: t, TPrev: prevT, D: d}, true
}

// closeStreams retires every stream of one (reader, antenna) vantage:
// each re-primes on its next report, and none pins EarliestOpenStream
// meanwhile.
func (df *Differencer) closeStreams(readerID string, port int) {
	ri, ok := df.readers.find(readerID)
	if !ok {
		return
	}
	for i := range df.streams {
		if s := &df.streams[i]; s.reader == ri && s.antenna == port {
			s.valid = false
		}
	}
}

// tagsOn counts the distinct tag IDs that reported on one (reader,
// antenna) vantage.
func (df *Differencer) tagsOn(ri int32, port int) int {
	tags := make(map[uint32]struct{})
	for _, s := range df.streams {
		if s.reader == ri && s.antenna == port {
			tags[s.tag] = struct{}{}
		}
	}
	return len(tags)
}

// Reset clears all stream state (e.g., when a sliding window advances
// far enough that stale predecessors should not be differenced).
func (df *Differencer) Reset() {
	df.readers = smallSet[string]{}
	clear(df.index)
	df.streams = df.streams[:0]
}

// scanKeys is how many keys a smallSet finds by linear scan before it
// falls back to its map.
const scanKeys = 8

// smallSet numbers distinct keys densely in first-seen order. The
// first scanKeys keys are found by a linear scan, cheaper than hashing
// for the few readers or vantages one user sees; later keys are found
// through a map, so a hostile stream cannot make lookups linear.
type smallSet[K comparable] struct {
	keys []K
	over map[K]int32
}

// find returns k's number, or false if k was never added.
func (s *smallSet[K]) find(k K) (int32, bool) {
	for i, key := range s.keys[:min(len(s.keys), scanKeys)] {
		if key == k {
			return int32(i), true
		}
	}
	if len(s.keys) > scanKeys {
		i, ok := s.over[k]
		return i, ok
	}
	return 0, false
}

// add numbers a key find does not know.
func (s *smallSet[K]) add(k K) int32 {
	i := int32(len(s.keys))
	s.keys = append(s.keys, k)
	if i >= scanKeys {
		if s.over == nil {
			s.over = make(map[K]int32)
		}
		s.over[k] = i
	}
	return i
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

// The pipeline's fixed parameters: the values the paper sets (Eq. 5's
// M, §IV-B's band) and the few it leaves to the implementation.
const (
	// binInterval is Δt of Eq. 6, the fusion bin width in seconds:
	// 62.5 ms (a 16 Hz fused stream), comfortably above twice the
	// 0.67 Hz cutoff.
	binInterval = 0.0625
	// nyquistHz is the highest frequency the fused bin grid carries.
	nyquistHz = 0.5 / binInterval
	// lowCutHz is the high-pass edge of the extraction band. Breathing
	// has little energy this low, but integrated phase noise does; the
	// paper's zero-centred Fig. 8 signal implies this detrending. It
	// sits safely under the slowest evaluated rate (5 bpm = 0.083 Hz,
	// Table I).
	lowCutHz = 0.05
	// crossingBufferM is M of Eq. 5; the paper buffers 7 crossings.
	crossingBufferM = 7
	// minCrossingGap suppresses crossing chatter, in seconds; at most
	// 40 bpm a half-cycle lasts 0.75 s, so 0.4 s is safely below real
	// spacing.
	minCrossingGap = 0.4
	// edgeTrim excludes this many seconds at each end of the filtered
	// window from crossing detection, where the FFT filter rings.
	edgeTrim = 1.5
	// maxPhaseGap bounds how old, in seconds, a predecessor reading may
	// be for Eq. 3 differencing. Breathing moves the tag far less than
	// λ/4 even over 12 s, so the difference remains unambiguous, and a
	// generous gap preserves the telescoping of Eq. 4 sums in
	// sparse-read regimes — high contention, sideways orientation, and
	// wide channel plans (the FCC 50-channel plan revisits each channel
	// only every ~10 s).
	maxPhaseGap = 12.0
)

// Config tunes the pipeline. The zero value is usable: fillDefaults
// installs the paper's parameters.
type Config struct {
	// HighCutHz is the low-pass cutoff; §IV-B sets 0.67 Hz (40 bpm),
	// the default. It must lie strictly between the 0.05 Hz high-pass
	// edge and the 8 Hz Nyquist frequency of the 16 Hz fused stream;
	// Estimate and MonitorStream reject a value outside that band.
	HighCutHz float64
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
	// of window length at the price of the low-pass's group delay
	// (~2.9 s at the default band); it runs as FilterFIRBatch under
	// MotionRejection, and ExtractBreath, which has no streaming form,
	// runs FFT for it.
	Filter FilterMode
	// MotionRejection blanks fused bins whose magnitude marks
	// non-respiratory body motion (postural shifts move the torso by
	// centimeters — orders beyond breathing) and drops zero crossings
	// inside the blanked windows. Off by default to match the paper's
	// pipeline; the motion study quantifies the benefit.
	MotionRejection bool
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
}

// fillDefaults installs the paper's cutoff when HighCutHz is unset.
func (c *Config) fillDefaults() {
	if c.HighCutHz <= 0 {
		c.HighCutHz = 0.67
	}
}

// checkBand reports an error unless the low-pass cutoff, after
// defaults, lies strictly inside (lowCutHz, nyquistHz): at or below the
// high-pass edge the band is empty, and at or above Nyquist the low-pass
// is not realizable on the fused grid.
func (c Config) checkBand() error {
	c.fillDefaults()
	if !(c.HighCutHz > lowCutHz && c.HighCutHz < nyquistHz) {
		return fmt.Errorf("core: HighCutHz %g Hz outside the band (%g, %g) Hz", c.HighCutHz, lowCutHz, nyquistHz)
	}
	return nil
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
