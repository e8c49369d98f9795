package experiments

import (
	"fmt"
	"time"

	"tagbreathe/internal/body"
	"tagbreathe/internal/core"
	"tagbreathe/internal/sigproc"
	"tagbreathe/internal/sim"
)

// Trace is one time series for the characterization figures.
type Trace struct {
	Name string
	T    []float64 // seconds
	V    []float64
}

// Characterization reproduces the §IV-A measurement study (Figs. 2–8):
// one user with a single tag, naturally breathing 2 m from the
// antenna, observed for 25 seconds at ≈64 Hz.
type Characterization struct {
	// RSSI is Fig. 2: raw received signal strength (dBm).
	RSSI Trace
	// Doppler is Fig. 3: raw Doppler frequency shift (Hz).
	Doppler Trace
	// Phase is Fig. 4: raw phase values (radians), discontinuous at
	// channel hops.
	Phase Trace
	// Channel is Fig. 5: channel index over time.
	Channel Trace
	// Displacement is Fig. 6: normalized accumulated displacement.
	Displacement Trace
	// SpectrumFreqs/SpectrumMags are Fig. 7: FFT of the displacement
	// values; the peak sits at the breathing rate.
	SpectrumFreqs []float64
	SpectrumMags  []float64
	// Breath is Fig. 8: the extracted breathing signal after the low
	// pass filter, with zero crossings in Crossings.
	Breath    Trace
	Crossings []sigproc.ZeroCrossing
	// ReadRateHz is the observed low-level data rate (the paper saw
	// ≈64 Hz).
	ReadRateHz float64
	// TrueRateBPM is the subject's ground-truth breathing rate.
	TrueRateBPM float64
	// EstimatedRateBPM is the pipeline's estimate over the window.
	EstimatedRateBPM float64
	// RealtimeBPM is the Eq. 5 realtime series (M = 7 crossings per
	// estimate) the batch pipeline reports over the same window.
	RealtimeBPM []float64
}

// RunCharacterization executes the §IV-A initial experiment.
func RunCharacterization(seed int64) (*Characterization, error) {
	sc := sim.DefaultScenario()
	sc.Seed = seed
	sc.Duration = 25 * time.Second
	sc.DefaultDistance = 2
	sc.Users[0].RateBPM = 15
	sc.Users[0].Pattern = sim.PatternNatural
	// Single tag: the characterization predates the fusion design.
	sc.Users[0].Sites = []body.TagSite{body.SiteChest}

	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	if len(res.Reports) < 32 {
		return nil, fmt.Errorf("experiments: characterization produced only %d reads", len(res.Reports))
	}

	ch := &Characterization{
		RSSI:        Trace{Name: "rssi-dbm"},
		Doppler:     Trace{Name: "doppler-hz"},
		Phase:       Trace{Name: "phase-rad"},
		Channel:     Trace{Name: "channel-index"},
		TrueRateBPM: res.TrueRateBPM[res.UserIDs[0]],
	}
	for _, r := range res.Reports {
		t := r.Timestamp.Seconds()
		ch.RSSI.T = append(ch.RSSI.T, t)
		ch.RSSI.V = append(ch.RSSI.V, float64(r.RSSI))
		ch.Doppler.T = append(ch.Doppler.T, t)
		ch.Doppler.V = append(ch.Doppler.V, r.DopplerHz)
		ch.Phase.T = append(ch.Phase.T, t)
		ch.Phase.V = append(ch.Phase.V, float64(r.Phase))
		ch.Channel.T = append(ch.Channel.T, t)
		ch.Channel.V = append(ch.Channel.V, float64(r.ChannelIndex))
	}
	span := ch.RSSI.T[len(ch.RSSI.T)-1] - ch.RSSI.T[0]
	if span > 0 {
		ch.ReadRateHz = float64(len(res.Reports)) / span
	}

	// Fig. 6: displacement via the pipeline front end.
	df := core.NewDifferencer()
	var samples []core.DisplacementSample
	for _, r := range res.Reports {
		if d, ok := df.Ingest(r); ok {
			samples = append(samples, d.Sample)
		}
	}
	if len(samples) < 16 {
		return nil, fmt.Errorf("experiments: only %d displacement samples", len(samples))
	}
	acc := core.AccumulateDisplacement(samples)
	ch.Displacement = Trace{Name: "displacement-normalized"}
	vals := make([]float64, len(acc))
	for i, s := range acc {
		ch.Displacement.T = append(ch.Displacement.T, s.T)
		vals[i] = s.V
	}
	ch.Displacement.V = sigproc.Normalize(vals)

	// Figs. 7 and 8 via the fusion/extraction back end.
	t0 := res.Reports[0].Timestamp.Seconds()
	t1 := res.Reports[len(res.Reports)-1].Timestamp.Seconds()
	binSec := 1.0 / 16
	bins := core.FuseBins(samples, binSec, t0, t1)
	ch.SpectrumFreqs, ch.SpectrumMags = core.Spectrum(bins, binSec)
	sig, err := core.ExtractBreath(bins, binSec, t0, core.Config{})
	if err != nil {
		return nil, err
	}
	ch.Breath = Trace{Name: "breath-signal"}
	for i, v := range sig.Samples {
		ch.Breath.T = append(ch.Breath.T, sig.T0+float64(i)/sig.SampleRate)
		ch.Breath.V = append(ch.Breath.V, v)
	}
	ch.Crossings = sig.Crossings
	ch.EstimatedRateBPM = sig.OverallRateBPM()
	if est, err := core.EstimateUser(res.Reports, res.UserIDs[0], core.Config{}); err == nil {
		for _, s := range est.RateSeries {
			ch.RealtimeBPM = append(ch.RealtimeBPM, s.V)
		}
	}
	return ch, nil
}
