package core

import (
	"fmt"
	"math"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/sigproc"
)

// BreathSignal is an extracted breathing waveform: the Eq. 7
// accumulation of fused displacement, band-pass filtered to the
// breathing band (Fig. 8), on a uniform time grid.
type BreathSignal struct {
	// T0 is the time of the first sample, seconds since run start.
	T0 float64
	// SampleRate is samples per second (1/Δt of the fusion binning).
	SampleRate float64
	// Samples is the filtered waveform, meters of accumulated fused
	// displacement (amplitude scales with tag count under fusion).
	Samples []float64
	// Crossings are the detected zero crossings (edge-trimmed).
	Crossings []sigproc.ZeroCrossing
	// MotionEvents are [start, end) times (seconds) where
	// motion-artifact rejection blanked the stream; empty when
	// rejection is disabled or nothing was rejected.
	MotionEvents [][2]float64
}

// Duration returns the waveform's time span in seconds.
func (b *BreathSignal) Duration() float64 {
	if b.SampleRate <= 0 {
		return 0
	}
	return float64(len(b.Samples)) / b.SampleRate
}

// IndexAt returns the sample index corresponding to time t (seconds
// since run start), clamped into the valid range. Analysis layers use
// it to map crossing times back onto the waveform.
func (b *BreathSignal) IndexAt(t float64) int {
	if b.SampleRate <= 0 || len(b.Samples) == 0 {
		return 0
	}
	i := int((t - b.T0) * b.SampleRate)
	if i < 0 {
		return 0
	}
	if i >= len(b.Samples) {
		return len(b.Samples) - 1
	}
	return i
}

// ExtractBreath runs the §IV-B extraction on a fused bin stream: the
// bins are accumulated (Eq. 7) into a displacement trajectory, the
// trajectory is band-pass filtered to [lowCutHz, HighCutHz] — through
// the FIR filter when cfg.Filter is FilterFIRBatch, the FFT filter
// otherwise, and zero crossings are
// detected away from the filter's edge-ringing region.
func ExtractBreath(bins []float64, binInterval, t0 float64, cfg Config) (*BreathSignal, error) {
	cfg.fillDefaults()
	if binInterval <= 0 {
		return nil, fmt.Errorf("core: non-positive bin interval %v", binInterval)
	}
	rate := 1 / binInterval
	if len(bins) < 8 {
		return nil, fmt.Errorf("core: too few fused bins (%d) for extraction", len(bins))
	}
	var motionEvents [][2]float64
	if cfg.MotionRejection {
		bins, motionEvents = rejectMotion(bins, binInterval, t0)
	}
	traj := sigproc.CumSum(bins)
	traj = sigproc.Detrend(traj)

	var (
		filtered []float64
		err      error
	)
	if cfg.Filter == FilterFIRBatch {
		// FIR path: low-pass at HighCutHz, then remove drift with a
		// long moving average standing in for the high-pass leg.
		taps := int(4*rate/cfg.HighCutHz) | 1
		if taps > len(traj) {
			taps = len(traj) | 1
		}
		var h []float64
		h, err = sigproc.FIRLowPass(taps, rate, cfg.HighCutHz)
		if err != nil {
			return nil, err
		}
		lp := sigproc.Convolve(traj, h)
		width := int(rate/lowCutHz) | 1
		drift := sigproc.MovingAverage(lp, width)
		filtered = make([]float64, len(lp))
		for i := range lp {
			filtered[i] = lp[i] - drift[i]
		}
	} else {
		filtered, err = sigproc.BandPassFFT(traj, rate, lowCutHz, cfg.HighCutHz)
		if err != nil {
			return nil, err
		}
	}

	crossings := sigproc.ZeroCrossings(filtered, t0, rate, minCrossingGap)
	// Trim crossings inside the edge-ringing margin of the filter and
	// inside motion-blanked windows, where any crossing is artifact.
	tEnd := t0 + float64(len(filtered))/rate
	trimmed := crossings[:0]
	for _, c := range crossings {
		if c.T < t0+edgeTrim || c.T > tEnd-edgeTrim {
			continue
		}
		inMotion := false
		for _, ev := range motionEvents {
			if c.T >= ev[0] && c.T < ev[1] {
				inMotion = true
				break
			}
		}
		if !inMotion {
			trimmed = append(trimmed, c)
		}
	}

	return &BreathSignal{
		T0:           t0,
		SampleRate:   rate,
		Samples:      filtered,
		Crossings:    trimmed,
		MotionEvents: motionEvents,
	}, nil
}

// Pause-detection tuning: the local breathing envelope (2 s rolling
// RMS) must stay below pauseEnvelopeFraction of the window's 80th-
// percentile envelope for a stretch to count as a breathing pause.
// The upper-percentile reference keeps a long pause from dragging the
// scale down to its own level.
const pauseEnvelopeFraction = 0.3

// DetectPauses returns [start, end) intervals of at least minPauseSec
// seconds where the breathing envelope collapses — a torso that
// stopped moving leaves only filter ringing in the band-passed
// signal. The realtime monitor uses it for apnea alarms and the
// vitals layer for summaries. A pause running into the end of the
// window is reported as ending at the window edge.
func (b *BreathSignal) DetectPauses(minPauseSec float64) [][2]float64 {
	if b == nil || minPauseSec <= 0 || b.SampleRate <= 0 || len(b.Samples) == 0 {
		return nil
	}
	sq := make([]float64, len(b.Samples))
	for i, v := range b.Samples {
		sq[i] = v * v
	}
	win := int(2*b.SampleRate) | 1
	meanSq := sigproc.MovingAverage(sq, win)
	env := make([]float64, len(meanSq))
	for i, v := range meanSq {
		env[i] = math.Sqrt(v)
	}
	threshold := pauseEnvelopeFraction * sigproc.Percentile(env, 80)
	if threshold <= 0 {
		if d := float64(len(b.Samples)) / b.SampleRate; d >= minPauseSec {
			return [][2]float64{{b.T0, b.T0 + d}}
		}
		return nil
	}
	var out [][2]float64
	inPause := false
	var start float64
	for i, e := range env {
		t := b.T0 + float64(i)/b.SampleRate
		if e < threshold {
			if !inPause {
				inPause = true
				start = t
			}
			continue
		}
		if inPause {
			if t-start >= minPauseSec {
				out = append(out, [2]float64{start, t})
			}
			inPause = false
		}
	}
	if inPause {
		end := b.T0 + float64(len(env))/b.SampleRate
		if end-start >= minPauseSec {
			out = append(out, [2]float64{start, end})
		}
	}
	return out
}

// Motion-rejection tuning: a bin is an artifact when its magnitude
// exceeds motionRejectK robust standard deviations of the bin
// population, and a guard of motionGuardSec is blanked on both sides
// of each artifact run (the body settles over a fraction of a second).
const (
	motionRejectK  = 5.0
	motionSettleK  = 2.0
	motionGuardSec = 1.25
)

// rejectMotion blanks fused bins corrupted by non-respiratory body
// motion. Postural shifts move the torso by centimeters in under a
// second — per-bin displacements tens of robust standard deviations
// above the millimetric breathing bulk — so a MAD-based threshold
// separates them cleanly. Blanked bins contribute zero displacement:
// the accumulated trajectory simply holds level through the shift
// instead of absorbing a step that would dwarf the breathing band.
func rejectMotion(bins []float64, binInterval, t0 float64) ([]float64, [][2]float64) {
	n := len(bins)
	if n == 0 {
		return bins, nil
	}
	// Robust scale: median absolute deviation of the bins.
	med := sigproc.Percentile(bins, 50)
	dev := make([]float64, n)
	for i, v := range bins {
		dev[i] = math.Abs(v - med)
	}
	mad := sigproc.Percentile(dev, 50)
	if fmath.ExactZero(mad) {
		return bins, nil
	}
	threshold := motionRejectK * 1.4826 * mad
	settle := motionSettleK * 1.4826 * mad

	guard := int(motionGuardSec/binInterval) + 1
	blank := make([]bool, n)
	found := false
	for i, v := range bins {
		if math.Abs(v-med) <= threshold {
			continue
		}
		found = true
		// Expand with hysteresis: a shift's smoothstep tails fall
		// below the detection threshold while still carrying
		// centimeter-scale steps, so blank outward until the stream
		// settles back to the breathing bulk, then add the guard.
		lo := i
		for lo > 0 && math.Abs(bins[lo-1]-med) > settle {
			lo--
		}
		hi := i
		for hi < n-1 && math.Abs(bins[hi+1]-med) > settle {
			hi++
		}
		lo -= guard
		hi += guard
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			blank[j] = true
		}
	}
	if !found {
		return bins, nil
	}
	out := make([]float64, n)
	copy(out, bins)
	var events [][2]float64
	for i := 0; i < n; {
		if !blank[i] {
			i++
			continue
		}
		start := i
		for i < n && blank[i] {
			out[i] = 0
			i++
		}
		events = append(events, [2]float64{
			t0 + float64(start)*binInterval,
			t0 + float64(i)*binInterval,
		})
	}
	return out, events
}

// OverallRateBPM estimates the mean breathing rate across the whole
// signal by applying Eq. 5 with M equal to the total crossing count:
// each breath contributes two crossings, so (M−1)/(2·span) breaths per
// second between the first and last crossing. Returns 0 when fewer
// than three crossings exist (below one full breath of evidence).
//
// When motion rejection blanked part of the stream, the rate is
// computed per contiguous segment between motion events and combined
// weighted by observed span — otherwise the crossing-free gaps would
// count as breathing time and bias the estimate low.
func (b *BreathSignal) OverallRateBPM() float64 {
	if len(b.MotionEvents) == 0 {
		return rateOverCrossings(b.Crossings)
	}
	var breaths, span float64
	start := 0
	flush := func(end int) {
		seg := b.Crossings[start:end]
		if len(seg) >= 3 {
			s := seg[len(seg)-1].T - seg[0].T
			if s > 0 {
				breaths += float64(len(seg)-1) / 2
				span += s
			}
		}
		start = end
	}
	for _, ev := range b.MotionEvents {
		for i := start; i < len(b.Crossings); i++ {
			if b.Crossings[i].T >= ev[0] {
				flush(i)
				break
			}
		}
	}
	flush(len(b.Crossings))
	if span <= 0 {
		return rateOverCrossings(b.Crossings)
	}
	return breaths / span * 60
}

// rateOverCrossings is Eq. 5 across one contiguous crossing run.
func rateOverCrossings(cr []sigproc.ZeroCrossing) float64 {
	m := len(cr)
	if m < 3 {
		return 0
	}
	span := cr[m-1].T - cr[0].T
	if span <= 0 {
		return 0
	}
	return float64(m-1) / (2 * span) * 60
}

// InstantRateSeriesBPM evaluates Eq. 5 over a sliding buffer of
// bufferM crossings (the paper's realtime display uses M = 7,
// i.e. 3 breaths), returning breathing rate in bpm per evaluation.
func (b *BreathSignal) InstantRateSeriesBPM(bufferM int) []sigproc.Sample {
	series := sigproc.RateSeriesFromCrossings(b.Crossings, bufferM)
	for i := range series {
		series[i].V *= 60
	}
	return series
}

// Spectrum returns the magnitude spectrum of the accumulated (unfiltered
// band limited) signal and the matching frequency axis — the Fig. 7
// view. The DC bin is zeroed for readability.
func Spectrum(bins []float64, binInterval float64) (freqs, mags []float64) {
	if len(bins) == 0 || binInterval <= 0 {
		return nil, nil
	}
	rate := 1 / binInterval
	traj := sigproc.Detrend(sigproc.CumSum(bins))
	spec := sigproc.FFTReal(traj)
	half := len(spec)/2 + 1
	freqs = make([]float64, half)
	mags = make([]float64, half)
	all := sigproc.Magnitudes(spec)
	df := rate / float64(len(spec))
	for i := 0; i < half; i++ {
		freqs[i] = float64(i) * df
		mags[i] = all[i]
	}
	if len(mags) > 0 {
		mags[0] = 0
	}
	return freqs, mags
}
