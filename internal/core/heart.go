package core

import (
	"fmt"
	"math"
	"sort"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// HeartEstimate is the cardiac extension's output for one user.
type HeartEstimate struct {
	UserID uint64
	// RateBPM is the estimated heart rate in beats per minute.
	RateBPM float64
	// PeakProminence is the ratio of the cardiac spectral peak to the
	// median in-band magnitude — a confidence indicator. Values near 1
	// mean the "peak" is noise; reject estimates below ~2.
	PeakProminence float64
	// Samples is how many displacement samples contributed.
	Samples int
}

// Cardiac band bounds in Hz: 48–150 bpm covers resting adults.
const (
	heartLowHz  = 0.8
	heartHighHz = 2.5
)

// EstimateHeartRate is the experimental cardiac extension: the same
// phase-derived displacement fusion, band-passed to the cardiac band
// and read off the spectral peak. The apex beat moves the chest wall
// ~0.35 mm — near the commodity reader's phase-noise floor — so this
// works at short range with a strong link and degrades quickly with
// distance; PeakProminence tells the caller whether to trust the
// number. (The paper's related work reaches heart rate only with
// purpose-built radios; this extension shows how far a commodity
// reader gets.)
func EstimateHeartRate(reports []reader.TagReport, userID uint64) (*HeartEstimate, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: no reports")
	}
	t0 := reports[0].Timestamp.Seconds()
	t1 := reports[len(reports)-1].Timestamp.Seconds()
	if t1-t0 < 10 {
		return nil, fmt.Errorf("core: window too short for cardiac estimation (%.1f s)", t1-t0)
	}

	// Only short-span displacement samples carry cardiac content: a
	// diff spanning a large fraction of a cardiac period aliases the
	// beat away (per-channel streams revisit every ~2 s, far below
	// the cardiac Nyquist). Half a period at the band's top is the
	// natural cutoff.
	maxSpan := 0.5 / heartHighHz

	df := NewDifferencer()
	var samples []DisplacementSample
	for _, r := range reports {
		if r.EPC.UserID() != userID {
			continue
		}
		if d, ok := df.Ingest(r); ok && d.Sample.T-d.Sample.TPrev <= maxSpan {
			samples = append(samples, d.Sample)
		}
	}
	if len(samples) < 64 {
		return nil, fmt.Errorf("core: only %d displacement samples for user %x", len(samples), userID)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].T < samples[j].T })

	bins := FuseBins(samples, binInterval, t0, t1)
	rate := 1 / binInterval

	// Work in the velocity domain (the fused bins themselves, not
	// their cumulative sum): differencing whitens the phase noise
	// whose integrated 1/f² spectrum would otherwise swamp the cardiac
	// band, and chest-wall velocity scales with ω, favoring the ~1.2
	// Hz beat over residual breathing harmonics. Welch averaging with
	// ~20 s segments keeps the HRV-broadened cardiac line inside one
	// bin while shrinking the noise floor's variance.
	segment := int(20 * rate)
	if segment > len(bins) {
		segment = len(bins) &^ 1
	}
	freqs, psd, err := sigproc.WelchPSD(sigproc.Detrend(bins), rate, segment)
	if err != nil {
		return nil, err
	}
	best, bestP := -1, 0.0
	var inBand []float64
	for i, f := range freqs {
		if f < heartLowHz || f > heartHighHz {
			continue
		}
		inBand = append(inBand, psd[i])
		if psd[i] > bestP {
			best, bestP = i, psd[i]
		}
	}
	if best < 0 || len(inBand) < 4 {
		return nil, fmt.Errorf("core: no cardiac-band content")
	}
	f := freqs[best]
	// Quadratic interpolation on log power refines within the bin.
	if best > 0 && best < len(psd)-1 && psd[best-1] > 0 && psd[best+1] > 0 {
		m1 := math.Log(psd[best-1])
		m2 := math.Log(psd[best])
		m3 := math.Log(psd[best+1])
		if den := m1 - 2*m2 + m3; fmath.NonZero(den) {
			if delta := 0.5 * (m1 - m3) / den; delta > -1 && delta < 1 {
				f += delta * (freqs[1] - freqs[0])
			}
		}
	}

	med := sigproc.Percentile(inBand, 50)
	prominence := 0.0
	if med > 0 {
		prominence = bestP / med
	}
	return &HeartEstimate{
		UserID:         userID,
		RateBPM:        f * 60,
		PeakProminence: prominence,
		Samples:        len(samples),
	}, nil
}
