package rf

import (
	"math"
	"math/rand"

	"tagbreathe/internal/units"
)

// Observation is the low-level data a commodity reader reports for one
// successful tag singulation (§IV-A of the paper): phase, RSSI, and
// Doppler shift, plus the underlying link state for diagnostics.
type Observation struct {
	// Phase is the backscatter phase in [0, 2π), per Eq. 1, after
	// noise and the reader's 4096-step quantization.
	Phase units.Radians
	// RSSI is the reverse-link received signal strength after the
	// reader's 0.5 dBm quantization.
	RSSI units.DBm
	// DopplerHz is the reader's Doppler estimate per Eq. 2, derived
	// from phase rotation across one packet — low resolution and noisy
	// at breathing speeds, as Fig. 3 shows.
	DopplerHz float64
	// Link is the noiseless link state that produced the observation.
	Link Link
}

// ObserverConfig tunes the observation model.
type ObserverConfig struct {
	// PhaseQuantizationSteps is the number of reported phase levels
	// over [0, 2π); the Impinj R420 reports 4096.
	PhaseQuantizationSteps int
	// RSSIQuantization is the RSSI reporting resolution in dB (0.5 for
	// the R420 — the "low resolution" limit §IV-A.1 calls out).
	RSSIQuantization float64
	// RSSINoiseStdDev is the per-read RSSI measurement noise in dB
	// before quantization.
	RSSINoiseStdDev float64
	// DopplerNoiseStdDev is the per-read Doppler noise in Hz. Eq. 2
	// divides a small phase rotation by a short packet duration, so
	// the estimate is inherently noisy.
	DopplerNoiseStdDev float64
	// MultipathRippleDB is the peak amplitude in dB of the standing-
	// wave RSSI ripple caused by indoor multipath. This ripple, not
	// free-space path-loss change, is what makes breathing visible in
	// RSSI at all (Fig. 2): a millimeter-scale range change moves the
	// tag through the standing-wave pattern.
	MultipathRippleDB float64
	// MultipathPhaseRippleRad couples the same standing wave into the
	// phase measurement, weakly.
	MultipathPhaseRippleRad float64
}

// DefaultObserverConfig returns Impinj R420-like reporting behaviour.
func DefaultObserverConfig() ObserverConfig {
	return ObserverConfig{
		PhaseQuantizationSteps:  4096,
		RSSIQuantization:        0.5,
		RSSINoiseStdDev:         0.4,
		DopplerNoiseStdDev:      0.15,
		MultipathRippleDB:       1.8,
		MultipathPhaseRippleRad: 0.05,
	}
}

// Observer turns geometric truth (tag distance and radial velocity)
// into the noisy, quantized low-level data stream a commodity reader
// reports. It owns the hidden constants of Eq. 1: a phase offset per
// (antenna, channel) for reader circuits and cables, a per-tag offset
// for tag circuits, and per-(antenna, tag) multipath ripple geometry.
// All constants are drawn lazily from the seeded RNG and cached, so a
// static tag on a static channel always yields a consistent phase.
type Observer struct {
	budget *LinkBudget
	cfg    ObserverConfig
	rng    *rand.Rand

	channelOffsets map[antennaChannelKey]float64
	tagOffsets     map[uint64]float64
	ripples        map[antennaTagKey]rippleParams
}

type antennaChannelKey struct {
	antenna int
	channel int
}

type antennaTagKey struct {
	antenna int
	tag     uint64
}

// rippleParams describes one standing-wave pattern: spatial period in
// meters and phase offset at distance zero.
type rippleParams struct {
	period float64
	phase  float64
}

// NewObserver builds an observation model with the given link budget
// and reporting configuration. rng must not be nil; it seeds the hidden
// constants and drives per-read noise.
func NewObserver(budget *LinkBudget, cfg ObserverConfig, rng *rand.Rand) *Observer {
	if cfg.PhaseQuantizationSteps <= 0 {
		cfg.PhaseQuantizationSteps = 4096
	}
	return &Observer{
		budget:         budget,
		cfg:            cfg,
		rng:            rng,
		channelOffsets: make(map[antennaChannelKey]float64),
		tagOffsets:     make(map[uint64]float64),
		ripples:        make(map[antennaTagKey]rippleParams),
	}
}

// Budget returns the observer's link budget.
func (o *Observer) Budget() *LinkBudget {
	return o.budget
}

// channelOffset returns the constant c of Eq. 1 contributed by reader
// circuits for an (antenna, channel) pair, drawn once per pair.
func (o *Observer) channelOffset(antenna, channel int) float64 {
	k := antennaChannelKey{antenna, channel}
	if v, ok := o.channelOffsets[k]; ok {
		return v
	}
	v := o.rng.Float64() * 2 * math.Pi
	o.channelOffsets[k] = v
	return v
}

// tagOffset returns the per-tag circuit phase constant.
func (o *Observer) tagOffset(tag uint64) float64 {
	if v, ok := o.tagOffsets[tag]; ok {
		return v
	}
	v := o.rng.Float64() * 2 * math.Pi
	o.tagOffsets[tag] = v
	return v
}

// ripple returns the multipath standing-wave geometry for an
// (antenna, tag) pair. The spatial period is on the order of λ/2 — the
// scale of two-ray interference fringes indoors.
func (o *Observer) ripple(antenna int, tag uint64, f units.Hertz) rippleParams {
	k := antennaTagKey{antenna, tag}
	if v, ok := o.ripples[k]; ok {
		return v
	}
	lambda := float64(f.Wavelength())
	v := rippleParams{
		period: lambda * (0.35 + 0.3*o.rng.Float64()), // ~λ/3 .. λ/1.5
		phase:  o.rng.Float64() * 2 * math.Pi,
	}
	o.ripples[k] = v
	return v
}

// ReadRequest describes one singulation whose low-level data should be
// synthesized.
type ReadRequest struct {
	// TagID is a stable 64-bit identity for the physical tag (distinct
	// from its rewritable EPC), keying its hidden circuit constants.
	TagID uint64
	// Antenna is the reader antenna port performing the read (1-based,
	// as LLRP reports it).
	Antenna int
	// Channel is the channel index in the active plan.
	Channel int
	// Frequency is the channel center frequency.
	Frequency units.Hertz
	// Distance is the true antenna-to-tag range in meters.
	Distance float64
	// RadialVelocity is the rate of change of Distance in m/s
	// (positive = receding), used for the Doppler report.
	RadialVelocity float64
	// ForwardLoss is excess loss on the reader-to-tag power-up path
	// (tag detuning against the body, blockage).
	ForwardLoss units.DB
	// ReverseLoss is excess loss on the backscatter return path.
	ReverseLoss units.DB
}

// Observe synthesizes the reader's report for one read. It does not
// decide whether the read succeeds — the MAC layer does that using
// Link and ReadSuccessProbability — it only models measurement.
func (o *Observer) Observe(req ReadRequest) Observation {
	link := o.budget.Compute(req.Distance, req.Frequency, req.ForwardLoss, req.ReverseLoss)
	lambda := float64(req.Frequency.Wavelength())

	// Phase per Eq. 1: round-trip distance 2d plus circuit constants.
	truePhase := 2*math.Pi/lambda*2*req.Distance +
		o.channelOffset(req.Antenna, req.Channel) +
		o.tagOffset(req.TagID)

	rip := o.ripple(req.Antenna, req.TagID, req.Frequency)
	standingWave := math.Cos(2*math.Pi*req.Distance/rip.period + rip.phase)

	noisy := truePhase +
		o.budget.PhaseNoiseStdDev(link)*o.rng.NormFloat64() +
		o.cfg.MultipathPhaseRippleRad*standingWave
	phase := quantizePhase(units.WrapPhase(units.Radians(noisy)), o.cfg.PhaseQuantizationSteps)

	// RSSI: link power plus multipath ripple and measurement noise,
	// then the reader's coarse quantization.
	rssi := float64(link.BackscatterPower) +
		o.cfg.MultipathRippleDB*standingWave +
		o.cfg.RSSINoiseStdDev*o.rng.NormFloat64()
	if q := o.cfg.RSSIQuantization; q > 0 {
		rssi = math.Round(rssi/q) * q
	}

	// Doppler per Eq. 2: the phase rotation across one packet measures
	// radial velocity as f = 2v/λ, buried in estimation noise.
	doppler := -2*req.RadialVelocity/lambda +
		o.cfg.DopplerNoiseStdDev*o.rng.NormFloat64()

	return Observation{
		Phase:     phase,
		RSSI:      units.DBm(rssi),
		DopplerHz: doppler,
		Link:      link,
	}
}

// quantizePhase rounds a wrapped phase to the reader's reporting grid.
func quantizePhase(theta units.Radians, steps int) units.Radians {
	step := 2 * math.Pi / float64(steps)
	q := math.Round(float64(theta)/step) * step
	return units.WrapPhase(units.Radians(q))
}
