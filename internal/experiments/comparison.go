package experiments

import (
	"math/rand"

	"tagbreathe/internal/baseline"
	"tagbreathe/internal/body"
	"tagbreathe/internal/core"
	"tagbreathe/internal/multimodal"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// ComparisonPoint is one row of the multi-user comparison between
// TagBreathe and a CW Doppler radar (the paper's §I/§II motivation:
// radar reflections from multiple users mix in the air; Gen2
// arbitration keeps tag streams separate).
type ComparisonPoint struct {
	Users              int
	TagBreatheAccuracy float64
	RadarAccuracy      float64
}

// RadarComparison measures per-user accuracy for 1–4 users under both
// systems over the same breathing ground truth statistics.
func RadarComparison(o Options) ([]ComparisonPoint, error) {
	o = o.withDefaults()
	out := make([]ComparisonPoint, 0, 4)
	for n := 1; n <= 4; n++ {
		var tbSum, radarSum float64
		var tbN, radarN int
		for k := 0; k < o.Trials; k++ {
			seed := o.Seed + int64(n*1000+k)

			// TagBreathe arm: the standard multi-user scenario.
			pool := o.ratesOr([]float64{10, 13, 8, 16})
			rates := make([]float64, n)
			for i := range rates {
				rates[i] = pool[(k+i)%len(pool)]
			}
			sc := sim.DefaultScenario()
			sc.Duration = o.Duration
			sc.Seed = seed
			sc.Users = sim.SideBySide(n, 4, rates...)
			res, err := sc.Run()
			if err != nil {
				return nil, err
			}
			ests, err := core.Estimate(res.Reports, core.Config{Users: res.UserIDs})
			if err != nil {
				return nil, err
			}
			for _, uid := range res.UserIDs {
				tbN++
				if est, ok := ests[uid]; ok {
					tbSum += core.Accuracy(est.RateBPM, res.TrueRateBPM[uid])
				}
			}

			// Radar arm: the same subjects' breathing observed by a CW
			// radar whose reflections superpose.
			rng := rand.New(rand.NewSource(seed))
			breathers := make([]body.Breather, n)
			distances := make([]float64, n)
			truths := make([]float64, n)
			horizon := o.Duration.Seconds()
			for i := range breathers {
				br, err := body.NewMetronome(rates[i], 0.005, 0.03, horizon, rng)
				if err != nil {
					return nil, err
				}
				breathers[i] = br
				distances[i] = 4
				truths[i] = br.AverageRateBPM(0, horizon)
			}
			radar := baseline.RadarScenario{
				Breathers: breathers,
				Distances: distances,
				Duration:  horizon,
				Seed:      seed,
			}
			estimates, err := radar.Run()
			if err != nil {
				return nil, err
			}
			for i, bpm := range estimates {
				radarN++
				radarSum += core.Accuracy(bpm, truths[i])
			}
		}
		p := ComparisonPoint{Users: n}
		if tbN > 0 {
			p.TagBreatheAccuracy = tbSum / float64(tbN)
		}
		if radarN > 0 {
			p.RadarAccuracy = radarSum / float64(radarN)
		}
		out = append(out, p)
	}
	return out, nil
}

// AblationPoint compares estimator variants on the same scenarios.
type AblationPoint struct {
	Estimator string
	// Accuracy is the mean Eq. 8 score; Detected the fraction of
	// trials that produced any estimate.
	Accuracy float64
	Detected float64
	// MeanAbsErrBPM is the mean absolute rate error.
	MeanAbsErrBPM float64
}

// FusionAblation exercises the §IV-C design claim: low-level fusion of
// multiple tags versus a single tag, and the full pipeline versus the
// RSSI, Doppler, and FFT-peak alternatives of §IV-A/§IV-B. The
// scenario is deliberately hard — maximum default distance with
// contention — where the paper says fusion matters most ("especially
// in the extraction of weak breathing signals").
func FusionAblation(o Options) ([]AblationPoint, error) {
	o = o.withDefaults()
	estimators := []baseline.Estimator{
		&baseline.TagBreatheEstimator{},
		&multimodal.Estimator{}, // §IV-D.2 enhancement: phase+RSSI+Doppler
		&baseline.SingleTagEstimator{},
		&baseline.FFTPeakEstimator{},
		&baseline.RSSIEstimator{},
		&baseline.DopplerEstimator{},
	}
	sums := make([]float64, len(estimators))
	errs := make([]float64, len(estimators))
	hits := make([]int, len(estimators))
	trials := 0
	for k := 0; k < o.Trials; k++ {
		sc := sim.DefaultScenario()
		sc.Duration = o.Duration
		sc.Seed = o.Seed + int64(k)
		sc.DefaultDistance = 5
		sc.ContendingTags = 10
		sc.Users[0].RateBPM = o.ratesOr(fullRateSweep)[k%len(o.ratesOr(fullRateSweep))]
		res, err := sc.Run()
		if err != nil {
			return nil, err
		}
		trials++
		uid := res.UserIDs[0]
		truth := res.TrueRateBPM[uid]
		for i, est := range estimators {
			bpm, err := est.EstimateBPM(res.Reports, uid)
			if err != nil || bpm <= 0 {
				continue
			}
			hits[i]++
			sums[i] += core.Accuracy(bpm, truth)
			d := bpm - truth
			if d < 0 {
				d = -d
			}
			errs[i] += d
		}
	}
	out := make([]AblationPoint, len(estimators))
	for i, est := range estimators {
		out[i] = AblationPoint{Estimator: est.Name()}
		if hits[i] > 0 {
			out[i].Accuracy = sums[i] / float64(hits[i])
			out[i].MeanAbsErrBPM = errs[i] / float64(hits[i])
		}
		if trials > 0 {
			out[i].Detected = float64(hits[i]) / float64(trials)
		}
	}
	return out, nil
}

// FilterAblation compares the FFT band-pass extraction against the
// FIR alternative §IV-B mentions, on default scenarios, and adds the
// streaming monitor's causal FIR chain: its estimate is the last rate
// update a streaming Monitor emits over the scenario.
func FilterAblation(o Options) ([]AblationPoint, error) {
	o = o.withDefaults()
	variants := []struct {
		name   string
		cfg    core.Config
		stream bool
	}{
		{name: "fft-filter", cfg: core.Config{}},
		{name: "fir-filter", cfg: core.Config{Filter: core.FilterFIRBatch}},
		{name: "stream-filter", cfg: core.Config{Filter: core.FilterFIRStreaming}, stream: true},
	}
	out := make([]AblationPoint, len(variants))
	for i, v := range variants {
		var sum, errSum float64
		var hit, trials int
		for k := 0; k < o.Trials; k++ {
			sc := sim.DefaultScenario()
			sc.Duration = o.Duration
			sc.Seed = o.Seed + int64(k)
			sc.Users[0].RateBPM = o.ratesOr(fullRateSweep)[k%len(o.ratesOr(fullRateSweep))]
			res, err := sc.Run()
			if err != nil {
				return nil, err
			}
			trials++
			uid := res.UserIDs[0]
			bpm, ok := 0.0, false
			if v.stream {
				bpm, ok = lastStreamingRate(res.Reports, uid, v.cfg)
			} else if est, err := core.EstimateUser(res.Reports, uid, v.cfg); err == nil {
				bpm, ok = est.RateBPM, true
			}
			if !ok {
				continue
			}
			hit++
			truth := res.TrueRateBPM[uid]
			sum += core.Accuracy(bpm, truth)
			d := bpm - truth
			if d < 0 {
				d = -d
			}
			errSum += d
		}
		out[i] = AblationPoint{Estimator: v.name}
		if hit > 0 {
			out[i].Accuracy = sum / float64(hit)
			out[i].MeanAbsErrBPM = errSum / float64(hit)
		}
		if trials > 0 {
			out[i].Detected = float64(hit) / float64(trials)
		}
	}
	return out, nil
}

// lastStreamingRate replays a scenario through a streaming Monitor and
// returns the last rate it emitted for uid, or false when it emitted
// none.
func lastStreamingRate(reports []reader.TagReport, uid uint64, cfg core.Config) (float64, bool) {
	cfg.Users = []uint64{uid}
	ups, err := core.MonitorStream(reports, core.MonitorConfig{Pipeline: cfg})
	if err != nil || len(ups) == 0 {
		return 0, false
	}
	return ups[len(ups)-1].RateBPM, true
}
