package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// syntheticReports generates a noise-free report stream for a tag whose
// radial distance follows dist(t), sampled at sampleRate across
// nChannels hopped every dwell seconds, per Eq. 1 physics.
func syntheticReports(userID uint64, tagID uint32, antenna int,
	dist func(t float64) float64, duration, sampleRate float64,
	nChannels int, dwell float64) []reader.TagReport {

	var out []reader.TagReport
	freq := func(ch int) units.Hertz {
		return units.Hertz(920.25e6 + float64(ch)*500e3)
	}
	// Fixed per-channel circuit offsets, unknown to the pipeline.
	offsets := make([]float64, nChannels)
	for i := range offsets {
		offsets[i] = float64(i) * 1.3
	}
	n := int(duration * sampleRate)
	for i := 0; i < n; i++ {
		t := float64(i) / sampleRate
		ch := int(t/dwell) % nChannels
		lambda := float64(freq(ch).Wavelength())
		phase := units.WrapPhase(units.Radians(2*math.Pi/lambda*2*dist(t) + offsets[ch]))
		out = append(out, reader.TagReport{
			EPC:          epc.NewUserTagEPC(userID, tagID),
			AntennaPort:  antenna,
			ChannelIndex: ch,
			Frequency:    freq(ch),
			Timestamp:    time.Duration(t * float64(time.Second)),
			Phase:        phase,
			RSSI:         -50,
		})
	}
	return out
}

func TestDifferencerReconstructsMotionSingleChannel(t *testing.T) {
	// On a single channel (no hopping) the Eq. 3/4 accumulation must
	// reconstruct the trajectory exactly (noise-free input).
	amp := 0.005
	f0 := 0.2
	dist := func(t float64) float64 { return 4 + amp*math.Sin(2*math.Pi*f0*t) }
	reports := syntheticReports(1, 1, 1, dist, 30, 64, 1, 0.2)

	df := NewDifferencer()
	var samples []DisplacementSample
	for _, r := range reports {
		if d, ok := df.Ingest(r); ok {
			samples = append(samples, d.Sample)
		}
	}
	if len(samples) < 1000 {
		t.Fatalf("only %d displacement samples", len(samples))
	}
	traj := AccumulateDisplacement(samples)
	base := dist(traj[0].T)
	var worst float64
	for _, s := range traj {
		want := dist(s.T) - base
		if e := math.Abs(s.V - want); e > worst {
			worst = e
		}
	}
	if worst > 5e-4 {
		t.Errorf("max reconstruction error %v m, want < 0.5 mm (noise-free)", worst)
	}
}

func TestDifferencerHopImmunity(t *testing.T) {
	// With 10 hopped channels, each (tag, channel) stream telescopes
	// the same motion, so the accumulated sum is a ~10×-amplified,
	// slightly staleness-lagged copy of the trajectory — periodic and
	// strongly correlated with truth, with no hop discontinuities
	// (Fig. 6 versus Fig. 4).
	amp := 0.005
	f0 := 0.2
	dist := func(t float64) float64 { return 4 + amp*math.Sin(2*math.Pi*f0*t) }
	reports := syntheticReports(1, 1, 1, dist, 30, 64, 10, 0.2)

	df := NewDifferencer()
	var samples []DisplacementSample
	for _, r := range reports {
		if d, ok := df.Ingest(r); ok {
			samples = append(samples, d.Sample)
		}
	}
	traj := AccumulateDisplacement(samples)
	// Each stream updates only when its channel recurs (every 2 s), so
	// the reconstruction is a staleness-lagged copy of the motion.
	// Assert strong correlation at the best lag within ≤ 1.5 s, rather
	// than at zero lag where the staircase delay shows up.
	var xs []float64
	best := 0.0
	bestLag := 0.0
	for lag := 0.0; lag <= 1.5; lag += 0.1 {
		var ys []float64
		xs = xs[:0]
		for _, s := range traj {
			xs = append(xs, s.V)
			ys = append(ys, dist(s.T-lag))
		}
		if r := pearson(xs, ys); r > best {
			best, bestLag = r, lag
		}
	}
	if best < 0.90 {
		t.Errorf("hopped reconstruction peak correlation %v (lag %v), want ≥ 0.90 (staircase sampling caps shape fidelity)", best, bestLag)
	}
	// Amplification is bounded by the stream count.
	peak := 0.0
	for _, v := range xs {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak > 10*2*amp*1.2 {
		t.Errorf("amplified trajectory peak %v m implausibly large", peak)
	}
}

// pearson returns the correlation coefficient of two equal-length
// series.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 || len(x) != len(y) {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return (sxy - sx*sy/n) / den
}

func TestDifferencerSeparatesChannels(t *testing.T) {
	// First reading on each channel only primes; with 10 channels the
	// first ~10 reports yield no samples.
	dist := func(t float64) float64 { return 4 }
	reports := syntheticReports(1, 1, 1, dist, 4.0, 10, 10, 0.2)
	df := NewDifferencer()
	var got int
	primed := map[int]bool{}
	for _, r := range reports {
		_, ok := df.Ingest(r)
		if !primed[r.ChannelIndex] {
			if ok {
				t.Fatalf("first reading on channel %d produced a sample", r.ChannelIndex)
			}
			primed[r.ChannelIndex] = true
			continue
		}
		if ok {
			got++
		}
	}
	if got == 0 {
		t.Fatal("no samples after priming")
	}
}

func TestDifferencerMaxGap(t *testing.T) {
	df := NewDifferencer()
	mk := func(ts float64) reader.TagReport {
		return reader.TagReport{
			EPC:          epc.NewUserTagEPC(1, 1),
			AntennaPort:  1,
			ChannelIndex: 0,
			Frequency:    920e6,
			Timestamp:    time.Duration(ts * float64(time.Second)),
			Phase:        1,
		}
	}
	df.Ingest(mk(0))
	t1 := maxPhaseGap - 0.5
	if _, ok := df.Ingest(mk(t1)); !ok {
		t.Errorf("%v s gap within the %v s limit rejected", t1, maxPhaseGap)
	}
	t2 := t1 + maxPhaseGap + 0.5
	if _, ok := df.Ingest(mk(t2)); ok {
		t.Errorf("%v s gap beyond the %v s limit accepted", t2-t1, maxPhaseGap)
	}
	// The rejected reading still primes for the next one.
	if _, ok := df.Ingest(mk(t2 + 0.5)); !ok {
		t.Error("reading after re-prime rejected")
	}
	// Non-advancing timestamps never difference.
	if _, ok := df.Ingest(mk(t2 + 0.5)); ok {
		t.Error("duplicate timestamp accepted")
	}
}

func TestDifferencerReset(t *testing.T) {
	df := NewDifferencer()
	r := reader.TagReport{
		EPC: epc.NewUserTagEPC(1, 1), AntennaPort: 1,
		Frequency: 920e6, Timestamp: time.Second, Phase: 1,
	}
	df.Ingest(r)
	df.Reset()
	r.Timestamp = 2 * time.Second
	if _, ok := df.Ingest(r); ok {
		t.Error("sample produced immediately after Reset")
	}
}

// fuseBinsVerbatim is the paper's Eq. 6 word for word, the oracle the
// fusion tests hold FuseBins against: each sample of [t0, t1) lands
// wholly in the bin of its later reading, and one in the window's
// fractional tail lands in the last bin.
func fuseBinsVerbatim(samples []DisplacementSample, binInterval, t0, t1 float64) []float64 {
	n := int((t1 - t0) / binInterval)
	if n <= 0 {
		return nil
	}
	bins := make([]float64, n)
	for _, s := range samples {
		if s.T >= t0 && s.T < t1 {
			bins[min(int((s.T-t0)/binInterval), n-1)] += s.D
		}
	}
	return bins
}

func TestFuseBinsConservation(t *testing.T) {
	// Property: total displacement is conserved by binning, both by
	// FuseBins and by the verbatim Eq. 6, for samples inside the window.
	f := func(raw []float64) bool {
		var samples []DisplacementSample
		tt := 0.1
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			span := 0.01 + math.Mod(math.Abs(v), 1.5)
			samples = append(samples, DisplacementSample{T: tt, TPrev: tt - span, D: v / 1e3})
			tt += 0.11
		}
		if tt >= 100 {
			return true
		}
		var want float64
		for _, s := range samples {
			want += s.D
		}
		for _, bins := range [][]float64{
			FuseBins(samples, 0.0625, 0, 100),
			fuseBinsVerbatim(samples, 0.0625, 0, 100),
		} {
			var got float64
			for _, b := range bins {
				got += b
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuseBinsSpreading(t *testing.T) {
	// One sample spanning 4 bins spreads evenly.
	s := []DisplacementSample{{T: 0.4, TPrev: 0, D: 0.008}}
	bins := FuseBins(s, 0.1, 0, 0.5)
	if len(bins) != 5 {
		t.Fatalf("bins = %d, want 5", len(bins))
	}
	for i := 0; i < 4; i++ {
		if math.Abs(bins[i]-0.002) > 1e-12 {
			t.Errorf("bin %d = %v, want 0.002", i, bins[i])
		}
	}
	if bins[4] != 0 {
		t.Errorf("bin 4 = %v, want 0", bins[4])
	}
	// The verbatim Eq. 6 puts everything in the ending bin.
	lit := fuseBinsVerbatim(s, 0.1, 0, 0.5)
	if lit[4] != 0.008 || lit[0] != 0 {
		t.Errorf("verbatim Eq. 6 bins = %v", lit)
	}
}

// TestFuseBinsMatchesEq6OnDenseReads pins where spreading and the
// paper's Eq. 6 agree: when every sample accrues within one bin, as
// dense reads do, each lands wholly in the bin of its later reading
// either way.
func TestFuseBinsMatchesEq6OnDenseReads(t *testing.T) {
	const binSec = 0.0625
	var samples []DisplacementSample
	for i := 0; i < 1600; i++ {
		// Four reads per bin, each accruing from the previous read of
		// its bin (or the bin's left edge), never across an edge.
		bin, k := i/4, i%4
		edge := float64(bin) * binSec
		tprev := edge + float64(k)*binSec/5
		samples = append(samples, DisplacementSample{
			T: tprev + binSec/5, TPrev: tprev + 1e-9, D: 1e-3 * math.Sin(float64(i)*0.37),
		})
	}
	got := FuseBins(samples, binSec, 0, 400*binSec)
	want := fuseBinsVerbatim(samples, binSec, 0, 400*binSec)
	if len(got) != len(want) {
		t.Fatalf("%d bins, verbatim Eq. 6 %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Fatalf("bin %d: %.17g, verbatim Eq. 6 %.17g", i, got[i], want[i])
		}
	}
}

func TestFuseBinsEdgeCases(t *testing.T) {
	if FuseBins(nil, 0.1, 0, 1) == nil {
		t.Error("empty samples should still produce zero bins")
	}
	if FuseBins(nil, 0, 0, 1) != nil {
		t.Error("zero bin interval should return nil")
	}
	if FuseBins(nil, 0.1, 5, 5) != nil {
		t.Error("empty window should return nil")
	}
	// Samples outside the window are ignored.
	s := []DisplacementSample{{T: 10, TPrev: 9.9, D: 1}}
	for _, b := range FuseBins(s, 0.1, 0, 1) {
		if b != 0 {
			t.Error("out-of-window sample leaked into bins")
		}
	}
}

func TestExtractBreathSyntheticSinusoid(t *testing.T) {
	// Fused bins of a 0.25 Hz sinusoidal displacement rate: extraction
	// recovers 15 bpm.
	const binSec = 0.0625
	n := int(60 / binSec)
	bins := make([]float64, n)
	for i := range bins {
		t0 := float64(i) * binSec
		t1 := t0 + binSec
		// Displacement per bin = x(t1) - x(t0) for x = 5mm sine.
		x := func(tt float64) float64 { return 0.005 * math.Sin(2*math.Pi*0.25*tt) }
		bins[i] = x(t1) - x(t0)
	}
	sig, err := ExtractBreath(bins, binSec, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rate := sig.OverallRateBPM()
	if math.Abs(rate-15) > 0.5 {
		t.Errorf("extracted %v bpm, want 15", rate)
	}
	if len(sig.Crossings) < 25 {
		t.Errorf("crossings = %d, want ≈29", len(sig.Crossings))
	}
	if d := sig.Duration(); math.Abs(d-60) > 1 {
		t.Errorf("signal duration %v, want 60 s", d)
	}
}

func TestExtractBreathFIRVariant(t *testing.T) {
	const binSec = 0.0625
	n := int(60 / binSec)
	bins := make([]float64, n)
	x := func(tt float64) float64 { return 0.005 * math.Sin(2*math.Pi*0.2*tt) }
	for i := range bins {
		bins[i] = x(float64(i+1)*binSec) - x(float64(i)*binSec)
	}
	sig, err := ExtractBreath(bins, binSec, 0, Config{Filter: FilterFIRBatch})
	if err != nil {
		t.Fatal(err)
	}
	if rate := sig.OverallRateBPM(); math.Abs(rate-12) > 0.8 {
		t.Errorf("FIR-extracted %v bpm, want 12", rate)
	}
}

func TestExtractBreathErrors(t *testing.T) {
	if _, err := ExtractBreath(make([]float64, 4), 0.0625, 0, Config{}); err == nil {
		t.Error("expected error for too few bins")
	}
	if _, err := ExtractBreath(make([]float64, 64), 0, 0, Config{}); err == nil {
		t.Error("expected error for zero bin interval")
	}
}

func TestSpectrumPeak(t *testing.T) {
	const binSec = 0.0625
	n := int(50 / binSec)
	bins := make([]float64, n)
	x := func(tt float64) float64 { return 0.005 * math.Sin(2*math.Pi*0.3*tt) }
	for i := range bins {
		bins[i] = x(float64(i+1)*binSec) - x(float64(i)*binSec)
	}
	freqs, mags := Spectrum(bins, binSec)
	best := 0
	for i := range mags {
		if mags[i] > mags[best] {
			best = i
		}
	}
	if math.Abs(freqs[best]-0.3) > 0.05 {
		t.Errorf("spectral peak at %v Hz, want 0.3 (Fig. 7)", freqs[best])
	}
	if f, m := Spectrum(nil, binSec); f != nil || m != nil {
		t.Error("empty spectrum should be nil")
	}
}

func TestAccuracyEq8(t *testing.T) {
	tests := []struct {
		measured, truth, want float64
	}{
		{10, 10, 1},
		{9, 10, 0.9},
		{11, 10, 0.9},
		{0, 10, 0},
		{25, 10, 0}, // clamped at zero
		{10, 0, 0},  // undefined truth
	}
	for _, tt := range tests {
		if got := Accuracy(tt.measured, tt.truth); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Accuracy(%v, %v) = %v, want %v", tt.measured, tt.truth, got, tt.want)
		}
	}
}

func TestRankAndSelectAntennas(t *testing.T) {
	mk := func(uid uint64, port int, rssi units.DBm, n int) []reader.TagReport {
		var out []reader.TagReport
		for i := 0; i < n; i++ {
			out = append(out, reader.TagReport{
				EPC:         epc.NewUserTagEPC(uid, 1),
				AntennaPort: port,
				RSSI:        rssi,
				Timestamp:   time.Duration(i) * 50 * time.Millisecond,
			})
		}
		return out
	}
	var reports []reader.TagReport
	reports = append(reports, mk(1, 1, -50, 100)...) // strong, fast
	reports = append(reports, mk(1, 2, -70, 10)...)  // weak, slow
	reports = append(reports, mk(2, 2, -55, 80)...)  // user 2 only on port 2

	ranked := RankAntennas(reports, Config{}, 5)
	sel := SelectAntenna(ranked)
	if sel[epc.NewUserTagEPC(1, 1).UserID()] != 1 {
		t.Errorf("user 1 selected port %d, want 1", sel[epc.NewUserTagEPC(1, 1).UserID()])
	}
	if sel[epc.NewUserTagEPC(2, 1).UserID()] != 2 {
		t.Errorf("user 2 selected port %d, want 2", sel[epc.NewUserTagEPC(2, 1).UserID()])
	}
	// Quality rows carry sensible rates.
	q := ranked[epc.NewUserTagEPC(1, 1).UserID()][0]
	if q.ReadRate != 20 {
		t.Errorf("read rate %v, want 20/s over the scored window", q.ReadRate)
	}
}

func TestWindowReportsAndSplitByUser(t *testing.T) {
	mk := func(uid uint64, ts time.Duration) reader.TagReport {
		return reader.TagReport{EPC: epc.NewUserTagEPC(uid, 1), Timestamp: ts}
	}
	reports := []reader.TagReport{
		mk(1, 0), mk(2, time.Second), mk(1, 2*time.Second), mk(2, 3*time.Second),
	}
	w := WindowReports(reports, time.Second, 3*time.Second)
	if len(w) != 2 {
		t.Fatalf("windowed = %d, want 2", len(w))
	}
	split := SplitByUser(reports)
	if len(split) != 2 {
		t.Fatalf("users = %d, want 2", len(split))
	}
	for uid, rs := range split {
		for _, r := range rs {
			if r.EPC.UserID() != uid {
				t.Fatal("report grouped under wrong user")
			}
		}
	}
}

func TestEstimateEmptyAndDegenerate(t *testing.T) {
	ests, err := Estimate(nil, Config{})
	if err != nil || len(ests) != 0 {
		t.Errorf("empty input: %v, %v", ests, err)
	}
	// All reports at the same timestamp: zero span.
	r := reader.TagReport{EPC: epc.NewUserTagEPC(1, 1), AntennaPort: 1, Timestamp: time.Second}
	ests, err = Estimate([]reader.TagReport{r, r}, Config{})
	if err != nil || len(ests) != 0 {
		t.Errorf("degenerate input: %v, %v", ests, err)
	}
	// EstimateUser on a user with no reports.
	if _, err := EstimateUser([]reader.TagReport{r}, 999, Config{}); err == nil {
		t.Error("expected ErrNoSignal for unknown user")
	}
}

func TestConfigUserFilter(t *testing.T) {
	cfg := Config{Users: []uint64{5}}
	if !cfg.allowsUser(5) || cfg.allowsUser(6) {
		t.Error("user filter misbehaving")
	}
	open := Config{}
	if !open.allowsUser(123) {
		t.Error("empty filter should allow everyone")
	}
}
