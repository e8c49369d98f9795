package experiments

import (
	"math"

	"tagbreathe/internal/core"
	"tagbreathe/internal/rf"
	"tagbreathe/internal/sim"
)

// HeartPoint is one row of the cardiac-extension study.
type HeartPoint struct {
	// PhaseFloorRad is the reader's phase-noise floor.
	PhaseFloorRad float64
	// MeanAbsErrBPM is the mean |error| of the heart-rate estimates.
	MeanAbsErrBPM float64
	// MeanProminence is the mean spectral peak prominence (≈2 is the
	// noise-only level; confident detection sits above 3).
	MeanProminence float64
	// Detected is the fraction of trials yielding any estimate.
	Detected float64
}

// HeartStudy evaluates the experimental cardiac extension across
// reader front-end quality: the ~0.35 mm apex beat is below the
// commodity 0.03 rad phase-noise floor (the estimator's prominence
// gate correctly reports no detection) and becomes cleanly measurable
// once the floor reaches research-grade levels — quantifying how far a
// commodity deployment is from heart-rate sensing, a question the
// paper's related work (which uses purpose-built radios) leaves open.
func HeartStudy(o Options) ([]HeartPoint, error) {
	o = o.withDefaults()
	floors := []float64{0.03, 0.02, 0.01, 0.005}
	out := make([]HeartPoint, 0, len(floors))
	for fi, floor := range floors {
		var errSum, promSum float64
		var n, trials int
		for k := 0; k < o.Trials; k++ {
			sc := sim.DefaultScenario()
			sc.Duration = o.Duration
			sc.Seed = o.Seed + int64(fi*1000+k)
			sc.DefaultDistance = 1
			b := rf.DefaultLinkBudget()
			b.PhaseNoiseFloorRad = floor
			sc.Budget = b
			sc.Users[0].HeartRateBPM = 60 + float64(k%5)*6
			res, err := sc.Run()
			if err != nil {
				return nil, err
			}
			trials++
			uid := res.UserIDs[0]
			est, err := core.EstimateHeartRate(res.Reports, uid)
			if err != nil {
				continue
			}
			n++
			errSum += math.Abs(est.RateBPM - res.TrueHeartBPM[uid])
			promSum += est.PeakProminence
		}
		p := HeartPoint{PhaseFloorRad: floor}
		if n > 0 {
			p.MeanAbsErrBPM = errSum / float64(n)
			p.MeanProminence = promSum / float64(n)
		}
		if trials > 0 {
			p.Detected = float64(n) / float64(trials)
		}
		out = append(out, p)
	}
	return out, nil
}
