package core_test

import (
	"math"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/rf"
	"tagbreathe/internal/sim"
)

// heartScenario builds a 1 m cardiac-monitoring run with the given
// phase-noise floor.
func heartScenario(seed int64, heartBPM, phaseFloor float64) *sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Duration = 2 * time.Minute
	sc.Seed = seed
	sc.DefaultDistance = 1
	b := rf.DefaultLinkBudget()
	b.PhaseNoiseFloorRad = phaseFloor
	sc.Budget = b
	sc.Users[0].HeartRateBPM = heartBPM
	return sc
}

func TestHeartRateWithResearchGradeFrontEnd(t *testing.T) {
	// With a coherent research-grade front end (0.01 rad phase floor)
	// the ~0.35 mm apex beat is recoverable at 1 m.
	var errSum, promSum float64
	n := 0
	for s := int64(0); s < 5; s++ {
		sc := heartScenario(50+s, 66+float64(s)*4, 0.01)
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		uid := res.UserIDs[0]
		est, err := core.EstimateHeartRate(res.Reports, uid)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		errSum += math.Abs(est.RateBPM - res.TrueHeartBPM[uid])
		promSum += est.PeakProminence
		n++
	}
	if mean := errSum / float64(n); mean > 3 {
		t.Errorf("mean heart-rate error %v bpm with research-grade floor, want ≤ 3", mean)
	}
	if mean := promSum / float64(n); mean < 3 {
		t.Errorf("mean prominence %v, want ≥ 3 (confident detection)", mean)
	}
}

func TestHeartRateCommodityFloorIsGated(t *testing.T) {
	// The honest negative result: at the commodity 0.03 rad floor the
	// cardiac line drowns, and PeakProminence must say so — estimates
	// hover near the noise-only prominence (≈2) rather than faking
	// confidence.
	var promSum float64
	n := 0
	for s := int64(0); s < 5; s++ {
		sc := heartScenario(70+s, 72, 0.03)
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		est, err := core.EstimateHeartRate(res.Reports, res.UserIDs[0])
		if err != nil {
			continue // no cardiac content at all is also an honest answer
		}
		promSum += est.PeakProminence
		n++
	}
	if n > 0 {
		if mean := promSum / float64(n); mean > 3 {
			t.Errorf("commodity-floor prominence %v suggests false confidence", mean)
		}
	}
}

func TestHeartRateNoCardiacComponent(t *testing.T) {
	// A subject with no simulated heartbeat: the estimator must not
	// report a confident rate.
	sc := heartScenario(90, 0, 0.01)
	sc.Users[0].HeartRateBPM = 0
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateHeartRate(res.Reports, res.UserIDs[0])
	if err != nil {
		return // acceptable: nothing to estimate
	}
	if est.PeakProminence > 3.5 {
		t.Errorf("prominence %v with no cardiac component", est.PeakProminence)
	}
}

func TestHeartRateValidation(t *testing.T) {
	if _, err := core.EstimateHeartRate(nil, 1); err == nil {
		t.Error("expected error for empty reports")
	}
	sc := heartScenario(91, 72, 0.01)
	sc.Duration = 5 * time.Second
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EstimateHeartRate(res.Reports, res.UserIDs[0]); err == nil {
		t.Error("expected error for a 5 s window")
	}
	longer := heartScenario(92, 72, 0.01)
	longerRes, err := longer.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.EstimateHeartRate(longerRes.Reports, 0xBAD); err == nil {
		t.Error("expected error for unknown user")
	}
}
