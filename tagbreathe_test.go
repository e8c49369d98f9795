package tagbreathe_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"tagbreathe"
)

// TestPublicAPIQuickstart exercises the documented quickstart path end
// to end through the public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = time.Minute
	sc.Seed = 99
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	ests, err := tagbreathe.Estimate(res.Reports, tagbreathe.Config{Users: res.UserIDs})
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]
	est, ok := ests[uid]
	if !ok {
		t.Fatal("no estimate for the default user")
	}
	truth := res.TrueRateBPM[uid]
	if acc := tagbreathe.Accuracy(est.RateBPM, truth); acc < 0.9 {
		t.Errorf("quickstart accuracy %v", acc)
	}
}

func TestPublicAPIMonitorStream(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = time.Minute
	sc.Seed = 100
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	updates, err := tagbreathe.MonitorStream(res.Reports, tagbreathe.MonitorConfig{
		Pipeline:    tagbreathe.Config{Users: res.UserIDs},
		UpdateEvery: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no streaming updates via the public API")
	}
}

func TestPublicAPIEPCPacking(t *testing.T) {
	e := tagbreathe.NewUserTagEPC(0xCAFE, 3)
	if e.UserID() != 0xCAFE || e.TagID() != 3 {
		t.Errorf("EPC round trip failed: %v", e)
	}
}

func TestPublicAPISideBySide(t *testing.T) {
	specs := tagbreathe.SideBySide(4, 4, 8, 12)
	if len(specs) != 4 {
		t.Fatalf("specs = %d", len(specs))
	}
	sc := tagbreathe.DefaultScenario()
	sc.Users = specs
	sc.Duration = 45 * time.Second
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UserIDs) != 4 {
		t.Errorf("user IDs = %d", len(res.UserIDs))
	}
}

func TestPublicAPIPosturesAndPatterns(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = 45 * time.Second
	sc.Users[0].Posture = tagbreathe.Lying
	sc.Users[0].Pattern = tagbreathe.PatternNatural
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("no reads for a lying natural breather")
	}
	truth := res.TrueRateBPM[res.UserIDs[0]]
	if truth <= 0 || math.IsNaN(truth) {
		t.Errorf("ground truth %v", truth)
	}
}

func TestPublicAPIVitals(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = 90 * time.Second
	sc.Seed = 101
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	est, err := tagbreathe.EstimateUser(res.Reports, res.UserIDs[0], tagbreathe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	breaths := tagbreathe.SegmentBreaths(est.Signal)
	if len(breaths) < 8 {
		t.Errorf("segmented %d breaths over 90 s at 10 bpm", len(breaths))
	}
	if apneas := tagbreathe.DetectApneas(est.Signal, 8); len(apneas) != 0 {
		t.Errorf("false apneas: %+v", apneas)
	}
	s := tagbreathe.SummarizeVitals(est.Signal, 0)
	if math.Abs(s.MeanRateBPM-res.TrueRateBPM[res.UserIDs[0]]) > 1.5 {
		t.Errorf("vitals rate %v vs truth %v", s.MeanRateBPM, res.TrueRateBPM[res.UserIDs[0]])
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = 15 * time.Second
	sc.Seed = 102
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tagbreathe.WriteTrace(&buf, res.Reports); err != nil {
		t.Fatal(err)
	}
	back, err := tagbreathe.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Reports) {
		t.Errorf("trace round trip: %d vs %d", len(back), len(res.Reports))
	}
}

func TestPublicAPITagRegistry(t *testing.T) {
	reg := tagbreathe.NewTagRegistry()
	reg.RegisterUser(7)
	e := tagbreathe.NewUserTagEPC(7, 2)
	id, ok := reg.Resolve(e)
	if !ok || id.UserID != 7 || id.TagID != 2 {
		t.Errorf("resolve = %+v, %v", id, ok)
	}
}

func TestPublicAPIMotionAndHeart(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = 90 * time.Second
	sc.Seed = 103
	sc.Users[0].FidgetEverySec = 25
	sc.Users[0].HeartRateBPM = 70
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	est, err := tagbreathe.EstimateUser(res.Reports, res.UserIDs[0],
		tagbreathe.Config{MotionRejection: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.RateBPM <= 0 {
		t.Error("no breathing rate with motion rejection on")
	}
	// The cardiac path runs (result quality depends on the noise
	// floor; only the API contract is asserted here).
	if _, err := tagbreathe.EstimateHeartRate(res.Reports, res.UserIDs[0]); err != nil {
		t.Logf("heart estimate unavailable: %v (acceptable at commodity floor)", err)
	}
}
