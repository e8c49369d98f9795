package experiments

import (
	"testing"
	"time"
)

// fastOptions keeps experiment tests CI-sized: shorter runs, fewer
// trials. The shape assertions below are correspondingly loose; the
// cmd/experiments binary reproduces the paper-grade numbers.
func fastOptions() Options {
	return Options{Trials: 4, Duration: 75 * time.Second, Seed: 9}
}

func TestTableI(t *testing.T) {
	rows := TableI()
	if len(rows) != 9 {
		t.Fatalf("Table I rows = %d, want 9", len(rows))
	}
	want := map[string]string{
		"Tx power":       "30 dBm",
		"Distance":       "4m",
		"Breathing rate": "10 bpm",
		"Tags per user":  "3 tags",
		"Posture":        "Sitting",
	}
	for _, r := range rows {
		if d, ok := want[r.Parameter]; ok && r.Default != d {
			t.Errorf("%s default = %q, want %q", r.Parameter, r.Default, d)
		}
	}
}

func TestRunCharacterization(t *testing.T) {
	ch, err := RunCharacterization(3)
	if err != nil {
		t.Fatal(err)
	}
	// ≈64 Hz single-tag read rate (§IV-A).
	if ch.ReadRateHz < 50 || ch.ReadRateHz > 80 {
		t.Errorf("read rate %v Hz, want ≈64", ch.ReadRateHz)
	}
	// All traces populated and aligned.
	for _, tr := range []Trace{ch.RSSI, ch.Doppler, ch.Phase, ch.Channel} {
		if len(tr.T) == 0 || len(tr.T) != len(tr.V) {
			t.Fatalf("trace %s malformed: %d/%d points", tr.Name, len(tr.T), len(tr.V))
		}
	}
	if len(ch.Displacement.V) == 0 || len(ch.Breath.V) == 0 {
		t.Fatal("derived traces empty")
	}
	// Normalized displacement is bounded.
	for _, v := range ch.Displacement.V {
		if v > 1.0001 || v < -1.0001 {
			t.Fatalf("normalized displacement %v outside [-1, 1]", v)
		}
	}
	// The Fig. 7 spectral peak sits at the breathing rate.
	peakF, peakM := 0.0, 0.0
	for i, f := range ch.SpectrumFreqs {
		if f >= 0.05 && f <= 0.67 && ch.SpectrumMags[i] > peakM {
			peakF, peakM = f, ch.SpectrumMags[i]
		}
	}
	trueHz := ch.TrueRateBPM / 60
	if peakF < trueHz-0.06 || peakF > trueHz+0.06 {
		t.Errorf("spectral peak %v Hz, truth %v Hz", peakF, trueHz)
	}
	// Extraction agrees with the truth within ~1.5 bpm on a 25 s window.
	if d := ch.EstimatedRateBPM - ch.TrueRateBPM; d > 1.5 || d < -1.5 {
		t.Errorf("characterization estimate %v vs truth %v", ch.EstimatedRateBPM, ch.TrueRateBPM)
	}
	// Channel trace uses the 10-channel paper plan.
	seen := map[float64]bool{}
	for _, v := range ch.Channel.V {
		seen[v] = true
	}
	if len(seen) < 9 {
		t.Errorf("only %d channels in the Fig. 5 trace", len(seen))
	}
}

func TestFig12DistanceShape(t *testing.T) {
	points, err := Fig12Distance(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	// Paper shape: high at 1 m, still usable at 6 m, roughly
	// non-increasing overall.
	if points[0].Accuracy < 0.93 {
		t.Errorf("accuracy at 1 m = %v, want ≥ 0.93", points[0].Accuracy)
	}
	if points[5].Accuracy < 0.80 {
		t.Errorf("accuracy at 6 m = %v, want ≥ 0.80", points[5].Accuracy)
	}
	if points[5].Accuracy > points[0].Accuracy+0.02 {
		t.Errorf("accuracy grew with distance: %v -> %v", points[0].Accuracy, points[5].Accuracy)
	}
	for _, p := range points {
		if p.DetectionRate() < 0.99 {
			t.Errorf("detection at %v m = %v", p.X, p.DetectionRate())
		}
	}
}

func TestFig13UsersShape(t *testing.T) {
	points, err := Fig13Users(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: accuracy stays high (≈95%) regardless of user count —
	// the Gen2 MAC keeps streams separate.
	for _, p := range points {
		if p.Accuracy < 0.90 {
			t.Errorf("accuracy with %v users = %v, want ≥ 0.90", p.X, p.Accuracy)
		}
	}
}

func TestFig14ContentionShape(t *testing.T) {
	o := fastOptions()
	points, err := Fig14Contention(o)
	if err != nil {
		t.Fatal(err)
	}
	first, last := points[0], points[len(points)-1]
	if first.Accuracy < 0.93 {
		t.Errorf("accuracy with no contention = %v", first.Accuracy)
	}
	// Decline to a still-usable level (paper: 91%). At CI-sized trial
	// counts the decline can vanish inside run-to-run noise, so allow
	// a small epsilon rather than strict monotonicity.
	if last.Accuracy > first.Accuracy+0.02 {
		t.Errorf("accuracy rose under contention: %v -> %v", first.Accuracy, last.Accuracy)
	}
	if last.Accuracy < 0.75 {
		t.Errorf("accuracy at 30 contenders = %v, want ≥ 0.75", last.Accuracy)
	}
}

func TestFig15OrientationShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 2
	points, err := Fig15Orientation(o)
	if err != nil {
		t.Fatal(err)
	}
	byDeg := map[float64]OrientationPoint{}
	for _, p := range points {
		byDeg[p.OrientationDeg] = p
	}
	// Read rate collapses toward 90° and vanishes beyond (Fig. 15).
	if byDeg[0].ReadRateHz < 4*byDeg[90].ReadRateHz {
		t.Errorf("0° rate %v not ≫ 90° rate %v", byDeg[0].ReadRateHz, byDeg[90].ReadRateHz)
	}
	for _, deg := range []float64{120, 150, 180} {
		if byDeg[deg].ReadRateHz != 0 {
			t.Errorf("reads at %v° = %v Hz, want 0 (LOS blocked)", deg, byDeg[deg].ReadRateHz)
		}
	}
	// RSSI of successful reads stays within a few dB while LOS holds.
	if d := byDeg[0].MeanRSSI - byDeg[90].MeanRSSI; d > 5 {
		t.Errorf("RSSI fell %v dB by 90°, paper says roughly flat", d)
	}
}

func TestFig16OrientationAccuracyShape(t *testing.T) {
	points, err := Fig16OrientationAccuracy(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Accuracy < 0.90 {
		t.Errorf("accuracy facing antenna = %v", points[0].Accuracy)
	}
	last := points[len(points)-1]
	if last.X != 90 {
		t.Fatalf("last point at %v°, want 90", last.X)
	}
	if last.Accuracy > points[0].Accuracy {
		t.Errorf("accuracy rose with rotation: %v -> %v", points[0].Accuracy, last.Accuracy)
	}
	if last.Accuracy < 0.6 {
		t.Errorf("accuracy at 90° = %v, want ≥ 0.6", last.Accuracy)
	}
}

func TestFig17PostureShape(t *testing.T) {
	points, err := Fig17Posture(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	// Paper: all postures above 90%.
	for _, p := range points {
		if p.Accuracy < 0.88 {
			t.Errorf("%s accuracy = %v, want ≥ 0.88", p.Label, p.Accuracy)
		}
	}
}

func TestRadarComparisonShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := RadarComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	single, multi := points[0], points[3]
	// Radar matches TagBreathe with one user but collapses with four;
	// TagBreathe stays high — the paper's central claim.
	if single.RadarAccuracy < 0.9 {
		t.Errorf("radar single-user accuracy = %v", single.RadarAccuracy)
	}
	if multi.TagBreatheAccuracy < 0.90 {
		t.Errorf("tagbreathe 4-user accuracy = %v", multi.TagBreatheAccuracy)
	}
	if multi.RadarAccuracy > multi.TagBreatheAccuracy-0.1 {
		t.Errorf("radar (%v) did not collapse relative to tagbreathe (%v) with 4 users",
			multi.RadarAccuracy, multi.TagBreatheAccuracy)
	}
}

func TestFusionAblationShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 5
	points, err := FusionAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		byName[p.Estimator] = p
	}
	tb := byName["tagbreathe"]
	if tb.Accuracy < 0.80 || tb.Detected < 0.99 {
		t.Errorf("tagbreathe on weak signals: acc %v det %v", tb.Accuracy, tb.Detected)
	}
	// RSSI is the paper's fragile baseline: clearly worse.
	if rssi := byName["rssi"]; rssi.Accuracy > tb.Accuracy-0.2 {
		t.Errorf("rssi baseline (%v) implausibly close to tagbreathe (%v)", rssi.Accuracy, tb.Accuracy)
	}
}

func TestWindowStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 5
	points, err := WindowStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	byWin := map[float64]WindowPoint{}
	for _, p := range points {
		byWin[p.WindowSec] = p
	}
	// §IV-B pitfall: at the 25 s realtime window, the FFT peak's
	// 2.4 bpm resolution costs accuracy; zero crossings do not.
	p25 := byWin[25]
	if p25.FFTResolutionBPM != 60.0/25 {
		t.Errorf("resolution bookkeeping wrong: %v", p25.FFTResolutionBPM)
	}
	if p25.ZeroCrossingAccuracy < p25.FFTPeakAccuracy {
		t.Errorf("zero-crossing (%v) not better than fft-peak (%v) at 25 s",
			p25.ZeroCrossingAccuracy, p25.FFTPeakAccuracy)
	}
	// With long windows both are accurate.
	p120 := byWin[120]
	if p120.FFTPeakAccuracy < 0.9 || p120.ZeroCrossingAccuracy < 0.9 {
		t.Errorf("long-window accuracies: zc %v, fft %v", p120.ZeroCrossingAccuracy, p120.FFTPeakAccuracy)
	}
}

func TestFilterAblation(t *testing.T) {
	o := fastOptions()
	points, err := FilterAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || points[2].Estimator != "stream-filter" {
		t.Fatalf("points = %+v, want the FFT, batch FIR and streaming rows", points)
	}
	for _, p := range points {
		if p.Accuracy < 0.9 || p.Detected < 0.99 {
			t.Errorf("%s: acc %v det %v — every filter should work (§IV-B)", p.Estimator, p.Accuracy, p.Detected)
		}
	}
}

func TestTagsPerUserSweep(t *testing.T) {
	o := fastOptions()
	points, err := TagsPerUserSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Accuracy < 0.85 {
			t.Errorf("%v tags: accuracy %v", p.X, p.Accuracy)
		}
	}
}

func TestTxPowerSweepShape(t *testing.T) {
	o := fastOptions()
	points, err := TxPowerSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	// 30 dBm (the paper's setting) must beat 15 dBm, where the link
	// margin at 4 m is marginal.
	if points[3].Accuracy <= points[0].Accuracy {
		t.Errorf("30 dBm (%v) not better than 15 dBm (%v)", points[3].Accuracy, points[0].Accuracy)
	}
}

func TestChannelStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 5
	points, err := ChannelStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 plans", len(points))
	}
	for _, p := range points {
		switch p.Plan {
		case "paper-10ch", "etsi-4ch":
			// Eq. 3's per-channel grouping must beat naive cross-hop
			// differencing decisively on these plans.
			if p.Grouped <= p.Naive {
				t.Errorf("%s: grouped %v not above naive %v", p.Plan, p.Grouped, p.Naive)
			}
			if p.Grouped < 0.85 {
				t.Errorf("%s: grouped accuracy %v", p.Plan, p.Grouped)
			}
		case "fcc-50ch":
			// The wide plan's ~10 s channel revisit starves per-channel
			// streams; grouped and naive trade places depending on the
			// breathing rate. Assert both stay usable rather than a
			// winner (see the ChannelStudy doc comment).
			if p.Grouped < 0.75 || p.Naive < 0.75 {
				t.Errorf("fcc-50ch: grouped %v naive %v, want both ≥ 0.75", p.Grouped, p.Naive)
			}
		}
	}
}

func TestSelectStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := SelectStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if last.ContendingTags != 30 {
		t.Fatalf("last point at %d contenders", last.ContendingTags)
	}
	// The Select filter must restore the monitoring read rate to near
	// the contention-free level and keep accuracy at least as good as
	// the plain run.
	if last.SelectedRate < 3*last.PlainRate {
		t.Errorf("selected rate %v not ≫ plain %v under contention", last.SelectedRate, last.PlainRate)
	}
	if last.Selected < last.Plain-0.02 {
		t.Errorf("selected accuracy %v below plain %v", last.Selected, last.Plain)
	}
	if last.Selected < 0.9 {
		t.Errorf("selected accuracy %v at 30 contenders", last.Selected)
	}
}

func TestHeartStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := HeartStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	first := points[0]            // commodity 0.03 rad
	last := points[len(points)-1] // research-grade 0.005 rad
	if first.PhaseFloorRad != 0.03 || last.PhaseFloorRad != 0.005 {
		t.Fatalf("unexpected floor sweep: %+v", points)
	}
	// The crossover: a quiet front end measures heart rate well and
	// confidently; the commodity floor does not.
	if last.MeanAbsErrBPM > 4 {
		t.Errorf("research-grade error %v bpm, want ≤ 4", last.MeanAbsErrBPM)
	}
	if last.MeanProminence < 3 {
		t.Errorf("research-grade prominence %v, want ≥ 3", last.MeanProminence)
	}
	if first.MeanProminence > last.MeanProminence {
		t.Errorf("prominence did not improve with a quieter floor: %v -> %v",
			first.MeanProminence, last.MeanProminence)
	}
}

func TestMotionStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	o.Duration = 2 * time.Minute // shifts need time to accumulate
	points, err := MotionStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	still := points[0]
	frequent := points[len(points)-1]
	// Still subject: both modes equivalent and accurate.
	if still.Plain < 0.9 || still.Rejected < 0.9 {
		t.Errorf("still accuracies plain %v rejected %v", still.Plain, still.Rejected)
	}
	// Frequent fidgeting wrecks the plain pipeline; rejection recovers
	// a substantial fraction.
	if frequent.Plain > still.Plain-0.1 {
		t.Errorf("fidgeting barely hurt the plain pipeline: %v vs %v", frequent.Plain, still.Plain)
	}
	if frequent.Rejected < frequent.Plain+0.1 {
		t.Errorf("rejection gain too small: plain %v rejected %v", frequent.Plain, frequent.Rejected)
	}
}

func TestTagModelStudyComparable(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := TagModelStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want the paper's 3 tag products", len(points))
	}
	// §V: "performance with different tags was comparable" — all
	// above 90% and within a few points of each other.
	lo, hi := 1.0, 0.0
	for _, p := range points {
		if p.Accuracy < 0.9 {
			t.Errorf("%s accuracy %v", p.Model, p.Accuracy)
		}
		if p.Accuracy < lo {
			lo = p.Accuracy
		}
		if p.Accuracy > hi {
			hi = p.Accuracy
		}
	}
	if hi-lo > 0.08 {
		t.Errorf("tag products not comparable: spread %v", hi-lo)
	}
}

func TestLOSStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := LOSStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	with, without := points[0], points[1]
	if with.Accuracy < 0.93 {
		t.Errorf("with-LOS accuracy %v", with.Accuracy)
	}
	// Obstruction costs read rate and accuracy but monitoring
	// survives.
	if without.ReadRateHz > with.ReadRateHz/2 {
		t.Errorf("obstruction barely cost read rate: %v vs %v", without.ReadRateHz, with.ReadRateHz)
	}
	if without.Accuracy < 0.6 {
		t.Errorf("without-LOS accuracy %v collapsed entirely", without.Accuracy)
	}
	if without.Accuracy >= with.Accuracy {
		t.Errorf("obstruction did not cost accuracy: %v vs %v", without.Accuracy, with.Accuracy)
	}
}

func TestSessionStudyShape(t *testing.T) {
	o := fastOptions()
	o.Trials = 3
	points, err := SessionStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SessionPoint{}
	for _, p := range points {
		byName[p.Config] = p
	}
	// S0 and dual-target modes monitor at full quality.
	for _, name := range []string{"S0 single", "S1 dual", "S2 dual"} {
		if p := byName[name]; p.Accuracy < 0.95 || p.Detected < 0.99 {
			t.Errorf("%s: acc %v det %v", name, p.Accuracy, p.Detected)
		}
	}
	// S1 single-target throttles to ~one read per persistence window.
	if p := byName["S1 single"]; p.ReadRateHz > 5 {
		t.Errorf("S1 single rate %v Hz, want persistence-throttled", p.ReadRateHz)
	}
	// S2 single-target reads each tag once, then monitoring dies.
	if p := byName["S2 single"]; p.Detected > 0 || p.ReadRateHz > 1 {
		t.Errorf("S2 single should kill monitoring: %+v", p)
	}
}
