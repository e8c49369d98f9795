package rf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tagbreathe/internal/units"
)

func TestChannelPlans(t *testing.T) {
	tests := []struct {
		name     string
		plan     *ChannelPlan
		channels int
	}{
		{name: "paper", plan: PaperPlan(), channels: 10},
		{name: "fcc", plan: FCCPlan(), channels: 50},
		{name: "etsi", plan: ETSIPlan(), channels: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.plan.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(tt.plan.Centers) != tt.channels {
				t.Errorf("channels = %d, want %d", len(tt.plan.Centers), tt.channels)
			}
			for _, f := range tt.plan.Centers {
				if f < 860*units.MHz || f > 930*units.MHz {
					t.Errorf("center %v outside the UHF RFID band", f)
				}
			}
		})
	}
	if PaperPlan().Dwell != 0.2 {
		t.Errorf("paper plan dwell %v, want 0.2 s (Fig. 5)", PaperPlan().Dwell)
	}
}

func TestChannelPlanValidation(t *testing.T) {
	bad := &ChannelPlan{Name: "empty"}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty plan")
	}
	bad = &ChannelPlan{Name: "neg", Centers: []units.Hertz{900e6}, Dwell: -1}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative dwell")
	}
	bad = &ChannelPlan{Name: "zero-freq", Centers: []units.Hertz{0}, Dwell: 0.2}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero frequency")
	}
}

func TestHopperDwellAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, err := NewHopper(PaperPlan(), 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Residence: the channel is constant within one dwell.
	i0, f0 := h.ChannelAt(0.35)
	i1, f1 := h.ChannelAt(0.39)
	if i0 != i1 || f0 != f1 {
		t.Error("channel changed within a dwell period")
	}
	// Coverage: over one epoch (10 hops) every channel appears once —
	// the FCC-style hopping the paper's Fig. 5 shows.
	seen := map[int]int{}
	for hop := 0; hop < 10; hop++ {
		idx, _ := h.ChannelAt(float64(hop)*0.2 + 0.01)
		seen[idx]++
	}
	if len(seen) != 10 {
		t.Errorf("first epoch used %d distinct channels, want 10", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("channel %d visited %d times in one epoch", idx, n)
		}
	}
}

func TestHopperNoImmediateRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h, err := NewHopper(PaperPlan(), 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for hop := 0; hop < 3000; hop++ {
		idx, _ := h.ChannelAt(float64(hop)*0.2 + 0.05) // mid-dwell: avoids float rounding at boundaries
		if idx == prev {
			t.Fatalf("channel %d repeated back-to-back at hop %d", idx, hop)
		}
		prev = idx
	}
}

func TestHopperNextHop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h, err := NewHopper(PaperPlan(), 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.NextHop(0.05); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("NextHop(0.05) = %v, want 0.2", got)
	}
	if got := h.NextHop(0.2); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("NextHop(0.2) = %v, want 0.4", got)
	}
	if got := h.NextHop(-1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("NextHop(-1) = %v, want 0.2", got)
	}
}

func TestHopperValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := NewHopper(&ChannelPlan{}, 10, rng); err == nil {
		t.Error("expected error for invalid plan")
	}
	if _, err := NewHopper(PaperPlan(), 0, rng); err == nil {
		t.Error("expected error for zero horizon")
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	f := units.Hertz(915 * units.MHz)
	// Doubling distance adds 6.02 dB.
	l2 := FreeSpacePathLoss(2, f)
	l4 := FreeSpacePathLoss(4, f)
	if math.Abs(float64(l4-l2)-6.0206) > 0.01 {
		t.Errorf("doubling distance added %v dB, want 6.02", l4-l2)
	}
	// Known value: FSPL at 1 m, 915 MHz ≈ 31.7 dB.
	if l1 := FreeSpacePathLoss(1, f); math.Abs(float64(l1)-31.66) > 0.15 {
		t.Errorf("FSPL(1 m) = %v dB, want ≈31.7", l1)
	}
	// Near-field clamp.
	if FreeSpacePathLoss(0.01, f) != FreeSpacePathLoss(0.1, f) {
		t.Error("sub-10 cm distances should clamp")
	}
}

func TestLinkBudgetMonotonicInDistance(t *testing.T) {
	lb := DefaultLinkBudget()
	f := PaperPlan().Centers[0]
	prev := lb.Compute(0.5, f, 0, 0)
	for d := 1.0; d <= 10; d += 0.5 {
		l := lb.Compute(d, f, 0, 0)
		if l.ForwardPower >= prev.ForwardPower || l.BackscatterPower >= prev.BackscatterPower {
			t.Fatalf("link power not decreasing at %v m", d)
		}
		if l.SNR >= prev.SNR {
			t.Fatalf("SNR not decreasing at %v m", d)
		}
		prev = l
	}
}

func TestLinkBudgetForwardLossKillsReads(t *testing.T) {
	lb := DefaultLinkBudget()
	f := PaperPlan().Centers[0]
	clear := lb.Compute(4, f, 0, 0)
	blocked := lb.Compute(4, f, 45, 45)
	if lb.ReadSuccessProbability(clear) < 0.9 {
		t.Errorf("clear 4 m link success %v, want ≥ 0.9", lb.ReadSuccessProbability(clear))
	}
	if p := lb.ReadSuccessProbability(blocked); p > 0.01 {
		t.Errorf("blocked link success %v, want ≈0", p)
	}
}

func TestLinkBudgetFig15RSSIBehaviour(t *testing.T) {
	// The Fig. 15 split: forward-only loss collapses read probability
	// while the backscatter power (reported RSSI) barely moves.
	lb := DefaultLinkBudget()
	f := PaperPlan().Centers[0]
	facing := lb.Compute(4, f, 0, 0)
	sideways := lb.Compute(4, f, 9, 2.7) // TagPatternLoss(90°) split
	dropP := lb.ReadSuccessProbability(facing) - lb.ReadSuccessProbability(sideways)
	if dropP < 0.5 {
		t.Errorf("read probability only dropped %v turning sideways, want > 0.5", dropP)
	}
	dRSSI := float64(facing.BackscatterPower - sideways.BackscatterPower)
	if dRSSI > 4 {
		t.Errorf("RSSI dropped %v dB turning sideways, want ≤ 4 (paper: roughly flat)", dRSSI)
	}
}

func TestReadSuccessProbabilityBounds(t *testing.T) {
	lb := DefaultLinkBudget()
	f := PaperPlan().Centers[0]
	p := func(d float64, extra units.DB) float64 {
		return lb.ReadSuccessProbability(lb.Compute(d, f, extra, extra))
	}
	quickOK := func(dRaw, lossRaw uint16) bool {
		d := 0.2 + float64(dRaw%120)/10 // 0.2..12.2 m
		loss := units.DB(lossRaw % 60)
		v := p(d, loss)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(quickOK, nil); err != nil {
		t.Error(err)
	}
	// Below reader sensitivity: zero, not merely small.
	if v := p(12, 40); v != 0 {
		t.Errorf("deep fade success = %v, want 0", v)
	}
}

func TestPhaseNoiseGrowsAsSNRFalls(t *testing.T) {
	lb := DefaultLinkBudget()
	f := PaperPlan().Centers[0]
	near := lb.PhaseNoiseStdDev(lb.Compute(1, f, 0, 0))
	far := lb.PhaseNoiseStdDev(lb.Compute(6, f, 0, 0))
	if far <= near {
		t.Errorf("phase noise at 6 m (%v) not above 1 m (%v)", far, near)
	}
	// Floor: even a perfect link keeps nonzero noise.
	if near < 0.01 {
		t.Errorf("near-field phase noise %v below the commodity floor", near)
	}
	// Unusable link saturates at π.
	dead := Link{SNR: -200}
	if got := lb.PhaseNoiseStdDev(dead); got != math.Pi {
		t.Errorf("dead link noise %v, want π", got)
	}
}

func TestObserverPhaseEquation(t *testing.T) {
	// With noise disabled, moving a tag by λ/4 changes the reported
	// phase by π (Eq. 1: round trip doubles the path change).
	lb := DefaultLinkBudget()
	lb.NoiseFloor = -200 // drive SNR-dependent noise to the floor
	cfg := DefaultObserverConfig()
	cfg.RSSINoiseStdDev = 0
	cfg.MultipathPhaseRippleRad = 0
	cfg.MultipathRippleDB = 0
	cfg.PhaseQuantizationSteps = 1 << 20 // fine grid
	obs := NewObserver(lb, cfg, rand.New(rand.NewSource(5)))

	f := units.Hertz(920 * units.MHz)
	lambda := float64(f.Wavelength())
	req := ReadRequest{TagID: 1, Antenna: 1, Channel: 0, Frequency: f, Distance: 3}
	o1 := obs.Observe(req)
	req.Distance = 3 + lambda/4
	o2 := obs.Observe(req)
	dphi := float64(units.WrapPhaseDiff(o2.Phase - o1.Phase))
	// Noise floor is still 0.03 rad; allow a few sigma.
	if math.Abs(math.Abs(dphi)-math.Pi) > 0.25 {
		t.Errorf("λ/4 displacement produced Δθ = %v, want ±π", dphi)
	}
}

func TestObserverStaticTagStablePhase(t *testing.T) {
	obs := NewObserver(DefaultLinkBudget(), DefaultObserverConfig(), rand.New(rand.NewSource(6)))
	f := units.Hertz(920 * units.MHz)
	req := ReadRequest{TagID: 9, Antenna: 1, Channel: 3, Frequency: f, Distance: 4}
	var phases []float64
	for i := 0; i < 200; i++ {
		phases = append(phases, float64(obs.Observe(req).Phase))
	}
	// Static tag on a fixed channel: phase varies only by noise (a
	// fraction of a radian), never by wraps.
	for i := 1; i < len(phases); i++ {
		d := math.Abs(float64(units.WrapPhaseDiff(units.Radians(phases[i] - phases[0]))))
		if d > 0.5 {
			t.Fatalf("static phase moved %v rad between reads", d)
		}
	}
}

func TestObserverChannelOffsetsDiffer(t *testing.T) {
	// Hidden per-channel constants make raw phase discontinuous at
	// hops (Fig. 4) even for a static tag.
	obs := NewObserver(DefaultLinkBudget(), DefaultObserverConfig(), rand.New(rand.NewSource(7)))
	f := units.Hertz(920 * units.MHz)
	base := ReadRequest{TagID: 1, Antenna: 1, Frequency: f, Distance: 4}
	distinct := 0
	ref := obs.Observe(base)
	for ch := 1; ch < 10; ch++ {
		req := base
		req.Channel = ch
		o := obs.Observe(req)
		if math.Abs(float64(units.WrapPhaseDiff(o.Phase-ref.Phase))) > 0.3 {
			distinct++
		}
	}
	if distinct < 6 {
		t.Errorf("only %d/9 channels show distinct phase offsets", distinct)
	}
}

func TestObserverRSSIQuantization(t *testing.T) {
	obs := NewObserver(DefaultLinkBudget(), DefaultObserverConfig(), rand.New(rand.NewSource(8)))
	f := units.Hertz(920 * units.MHz)
	req := ReadRequest{TagID: 2, Antenna: 1, Channel: 0, Frequency: f, Distance: 2}
	for i := 0; i < 50; i++ {
		rssi := float64(obs.Observe(req).RSSI)
		if r := math.Mod(math.Abs(rssi), 0.5); r > 1e-9 && r < 0.5-1e-9 {
			t.Fatalf("RSSI %v not on the 0.5 dBm grid", rssi)
		}
	}
}

func TestObserverPhaseQuantization(t *testing.T) {
	obs := NewObserver(DefaultLinkBudget(), DefaultObserverConfig(), rand.New(rand.NewSource(9)))
	f := units.Hertz(920 * units.MHz)
	req := ReadRequest{TagID: 3, Antenna: 1, Channel: 1, Frequency: f, Distance: 3}
	step := 2 * math.Pi / 4096
	for i := 0; i < 50; i++ {
		p := float64(obs.Observe(req).Phase)
		k := p / step
		if math.Abs(k-math.Round(k)) > 1e-6 {
			t.Fatalf("phase %v not on the 4096-step grid", p)
		}
	}
}

func TestObserverDopplerTracksVelocity(t *testing.T) {
	lb := DefaultLinkBudget()
	cfg := DefaultObserverConfig()
	cfg.DopplerNoiseStdDev = 0
	obs := NewObserver(lb, cfg, rand.New(rand.NewSource(10)))
	f := units.Hertz(920 * units.MHz)
	lambda := float64(f.Wavelength())
	v := 0.01 // 1 cm/s receding
	o := obs.Observe(ReadRequest{TagID: 4, Antenna: 1, Channel: 0, Frequency: f, Distance: 4, RadialVelocity: v})
	want := -2 * v / lambda
	if math.Abs(o.DopplerHz-want) > 1e-9 {
		t.Errorf("Doppler = %v Hz, want %v (Eq. 2 sign convention)", o.DopplerHz, want)
	}
}

func TestObserverDeterminism(t *testing.T) {
	mk := func() []Observation {
		obs := NewObserver(DefaultLinkBudget(), DefaultObserverConfig(), rand.New(rand.NewSource(11)))
		f := units.Hertz(921 * units.MHz)
		var out []Observation
		for i := 0; i < 20; i++ {
			out = append(out, obs.Observe(ReadRequest{
				TagID: uint64(i % 3), Antenna: 1 + i%2, Channel: i % 5,
				Frequency: f, Distance: 2 + float64(i)*0.1,
			}))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at observation %d", i)
		}
	}
}
