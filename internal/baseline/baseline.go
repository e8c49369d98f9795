// Package baseline implements the comparator estimators the paper
// positions TagBreathe against: breathing-rate estimation from raw
// RSSI, from the reader's Doppler reports, from the FFT spectral peak
// (the §IV-B pitfall), from a single tag without fusion, and a
// continuous-wave Doppler radar simulator that demonstrates why
// radar-style sensing collapses with multiple users (§I, §II, §VII)
// while the Gen2 collision arbitration keeps TagBreathe's per-user
// streams separate.
package baseline

import (
	"fmt"

	"tagbreathe/internal/core"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// Estimator is a breathing-rate estimator over a low-level report
// window for one user. Implementations return the estimated rate in
// breaths per minute or an error when the window carries no signal.
type Estimator interface {
	// Name identifies the estimator in experiment output.
	Name() string
	// EstimateBPM estimates the user's breathing rate from reports.
	EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error)
}

// resampleUserSeries extracts one scalar field of a user's reports and
// interpolates it onto a uniform grid, shared plumbing for the RSSI and
// Doppler baselines.
func resampleUserSeries(reports []reader.TagReport, userID uint64, sampleRate float64, field func(reader.TagReport) float64) ([]float64, error) {
	var samples []sigproc.Sample
	for _, r := range reports {
		if r.EPC.UserID() != userID {
			continue
		}
		samples = append(samples, sigproc.Sample{T: r.Timestamp.Seconds(), V: field(r)})
	}
	if len(samples) < 8 {
		return nil, fmt.Errorf("baseline: only %d reports for user %x", len(samples), userID)
	}
	return sigproc.Resample(samples, sampleRate)
}

// bandRate estimates the dominant in-band frequency of a series by
// band-passing to the breathing band and counting zero crossings —
// the same back end the TagBreathe pipeline uses, so baseline
// comparisons isolate the front-end signal choice.
func bandRate(series []float64, sampleRate float64) (float64, error) {
	filtered, err := sigproc.BandPassFFT(sigproc.Detrend(series), sampleRate, 0.05, 0.67)
	if err != nil {
		return 0, err
	}
	crossings := sigproc.ZeroCrossings(filtered, 0, sampleRate, 0.4)
	if len(crossings) < 3 {
		return 0, fmt.Errorf("baseline: too few zero crossings (%d)", len(crossings))
	}
	span := crossings[len(crossings)-1].T - crossings[0].T
	if span <= 0 {
		return 0, fmt.Errorf("baseline: degenerate crossing span")
	}
	return float64(len(crossings)-1) / (2 * span) * 60, nil
}

// RSSIEstimator tracks breathing in the raw RSSI stream (§IV-A.1).
// The 0.5 dBm quantization and multipath sensitivity make it fragile —
// exactly the limitation the paper reports.
type RSSIEstimator struct {
	// SampleRate for resampling; zero defaults to 16 Hz.
	SampleRate float64
}

// Name implements Estimator.
func (e *RSSIEstimator) Name() string { return "rssi" }

// EstimateBPM implements Estimator.
func (e *RSSIEstimator) EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error) {
	rate := e.SampleRate
	if rate <= 0 {
		rate = 16
	}
	series, err := resampleUserSeries(reports, userID, rate, func(r reader.TagReport) float64 {
		return float64(r.RSSI)
	})
	if err != nil {
		return 0, err
	}
	return bandRate(series, rate)
}

// DopplerEstimator tracks breathing in the reader's raw Doppler
// reports (§IV-A.2). Eq. 2's short observation window makes each
// report noisy; the envelope carries only a weak periodicity.
type DopplerEstimator struct {
	SampleRate float64
}

// Name implements Estimator.
func (e *DopplerEstimator) Name() string { return "doppler" }

// EstimateBPM implements Estimator. Integrating the Doppler series
// (velocity → displacement) before band-passing recovers what
// periodicity survives the noise.
func (e *DopplerEstimator) EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error) {
	rate := e.SampleRate
	if rate <= 0 {
		rate = 16
	}
	series, err := resampleUserSeries(reports, userID, rate, func(r reader.TagReport) float64 {
		return r.DopplerHz
	})
	if err != nil {
		return 0, err
	}
	displacement := sigproc.CumSum(sigproc.Detrend(series))
	return bandRate(displacement, rate)
}

// FFTPeakEstimator is the §IV-B pitfall: run the TagBreathe front end
// (displacement fusion) but read the rate off the FFT magnitude peak.
// Its resolution is limited to 1/window Hz — 2.4 bpm for a 25 s window
// — which is why the paper prefers zero-crossing timing.
type FFTPeakEstimator struct{}

// Name implements Estimator.
func (e *FFTPeakEstimator) Name() string { return "fft-peak" }

// EstimateBPM implements Estimator.
func (e *FFTPeakEstimator) EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error) {
	bins, binSec, err := fusedBins(reports, userID)
	if err != nil {
		return 0, err
	}
	traj := sigproc.Detrend(sigproc.CumSum(bins))
	// No quadratic interpolation: the point of this baseline is the
	// raw bin-resolution limit, so take the literal argmax bin.
	spec := sigproc.Magnitudes(sigproc.FFTReal(traj))
	rate := 1 / binSec
	df := rate / float64(len(spec))
	best, bestMag := 0, 0.0
	for i := 1; i <= len(spec)/2; i++ {
		f := float64(i) * df
		if f < 0.05 || f > 0.67 {
			continue
		}
		if spec[i] > bestMag {
			best, bestMag = i, spec[i]
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("baseline: no in-band spectral peak")
	}
	return float64(best) * df * 60, nil
}

// SingleTagEstimator runs the TagBreathe pipeline restricted to one
// tag — the no-fusion ablation of §IV-C. Tag selection uses the tag
// with the most reads (the best single stream, giving the ablation its
// fairest shot).
type SingleTagEstimator struct {
	Config core.Config
}

// Name implements Estimator.
func (e *SingleTagEstimator) Name() string { return "single-tag" }

// EstimateBPM implements Estimator.
func (e *SingleTagEstimator) EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error) {
	counts := make(map[uint32]int)
	for _, r := range reports {
		if r.EPC.UserID() == userID {
			counts[r.EPC.TagID()]++
		}
	}
	bestTag, bestN := uint32(0), 0
	for tag, n := range counts {
		if n > bestN || (n == bestN && tag < bestTag) {
			bestTag, bestN = tag, n
		}
	}
	if bestN == 0 {
		return 0, fmt.Errorf("baseline: no reports for user %x", userID)
	}
	var filtered []reader.TagReport
	for _, r := range reports {
		if r.EPC.UserID() == userID && r.EPC.TagID() == bestTag {
			filtered = append(filtered, r)
		}
	}
	est, err := core.EstimateUser(filtered, userID, e.Config)
	if err != nil {
		return 0, err
	}
	return est.RateBPM, nil
}

// TagBreatheEstimator wraps the full pipeline behind the Estimator
// interface so experiment tables can treat it uniformly.
type TagBreatheEstimator struct {
	Config core.Config
}

// Name implements Estimator.
func (e *TagBreatheEstimator) Name() string { return "tagbreathe" }

// EstimateBPM implements Estimator.
func (e *TagBreatheEstimator) EstimateBPM(reports []reader.TagReport, userID uint64) (float64, error) {
	est, err := core.EstimateUser(reports, userID, e.Config)
	if err != nil {
		return 0, err
	}
	return est.RateBPM, nil
}

// fusedBins reruns the TagBreathe front end (differencing + fusion)
// and returns the fused bins and bin width in seconds.
func fusedBins(reports []reader.TagReport, userID uint64) ([]float64, float64, error) {
	df := core.NewDifferencer()
	var samples []core.DisplacementSample
	var t0, t1 float64
	first := true
	for _, r := range reports {
		if r.EPC.UserID() != userID {
			continue
		}
		t := r.Timestamp.Seconds()
		if first {
			t0, first = t, false
		}
		t1 = t
		if d, ok := df.Ingest(r); ok {
			samples = append(samples, d.Sample)
		}
	}
	if len(samples) < 8 {
		return nil, 0, fmt.Errorf("baseline: too few displacement samples (%d)", len(samples))
	}
	binSec := 0.0625
	bins := core.FuseBins(samples, binSec, t0, t1)
	if len(bins) < 8 {
		return nil, 0, fmt.Errorf("baseline: window too short")
	}
	return bins, binSec, nil
}

// Interface compliance checks.
var (
	_ Estimator = (*RSSIEstimator)(nil)
	_ Estimator = (*DopplerEstimator)(nil)
	_ Estimator = (*FFTPeakEstimator)(nil)
	_ Estimator = (*SingleTagEstimator)(nil)
	_ Estimator = (*TagBreatheEstimator)(nil)
)
