package sim

import (
	"fmt"
	"math"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// Cheap user synthesis for capacity runs. The full scenario substrate
// (body models, link budget, Gen2 MAC) costs kilobytes and milliseconds
// per user — perfect for fidelity studies, hopeless for driving 10⁵–10⁶
// users through the monitor. Synth is the scale-out face of the
// simulator: per-user state is a 16-byte phase accumulator (breathing
// rate + phase offset), every report is computed closed-form in O(1)
// with no allocations, and the stream is globally timestamp-ordered the
// way a fleet of readers would deliver it. With the zero-value knobs it
// reproduces, bit for bit, the reference generator the scaling
// benchmarks have always used, so their history stays comparable; the
// ledger benchmark and TestMonitorScale drive the same generator.

// SynthConfig parameterizes a synthetic multi-user report stream. The
// zero value of every field but Users selects the reference defaults
// (3 tags/user at 8 Hz each, 10-channel hopping, Eq. 1 phase physics at
// 4 m with 5 mm breathing excursion, rates 6–30 bpm across users).
type SynthConfig struct {
	// Users is the number of synthesized subjects (required, ≥ 1).
	Users int
	// TagsPerUser is the tag count per subject (default 3).
	TagsPerUser int
	// PerTagHz is each tag's read rate in stream time (default 8).
	PerTagHz float64
	// Channels is the hopping plan size (default 10).
	Channels int
	// DwellSec is the per-channel dwell (default 0.2 s).
	DwellSec float64
	// BaseFreqHz and ChannelStepHz lay out the channel grid
	// (defaults 920.25 MHz + 500 kHz per channel).
	BaseFreqHz    float64
	ChannelStepHz float64
	// DistanceM is the nominal tag range (default 4 m).
	DistanceM float64
	// AmplitudeM is the breathing excursion (default 5 mm).
	AmplitudeM float64
	// BaseRateBPM and RateSpreadBPM spread breathing rates across
	// users: user u breathes at BaseRateBPM + (u mod RateSpreadBPM)
	// bpm (defaults 6 and 25, i.e. 6–30 bpm).
	BaseRateBPM   float64
	RateSpreadBPM int
	// RSSIdBm is the constant reported signal strength (default −50).
	RSSIdBm float64
	// AntennaPort stamps every report (default 1).
	AntennaPort int
	// JitterFrac adds deterministic read-timing jitter: each read moves
	// by up to ±JitterFrac/2 of one stagger slot. Must be in [0, 1);
	// below 1 the global stream stays timestamp-ordered and every
	// (user, antenna) stream stays strictly monotone. Default 0.
	JitterFrac float64
	// Seed keys the jitter hash; streams with equal seeds are equal.
	Seed int64
	// FirstUserID is the first assigned user identity (default 1).
	FirstUserID uint64
}

func (c *SynthConfig) fillDefaults() {
	if c.TagsPerUser <= 0 {
		c.TagsPerUser = 3
	}
	if c.PerTagHz <= 0 {
		c.PerTagHz = 8
	}
	if c.Channels <= 0 {
		c.Channels = 10
	}
	if c.DwellSec <= 0 {
		c.DwellSec = 0.2
	}
	if c.BaseFreqHz <= 0 {
		c.BaseFreqHz = 920.25e6
	}
	if c.ChannelStepHz <= 0 {
		c.ChannelStepHz = 500e3
	}
	if c.DistanceM <= 0 {
		c.DistanceM = 4
	}
	if c.AmplitudeM <= 0 {
		c.AmplitudeM = 0.005
	}
	if c.BaseRateBPM <= 0 {
		c.BaseRateBPM = 6
	}
	if c.RateSpreadBPM <= 0 {
		c.RateSpreadBPM = 25
	}
	if c.RSSIdBm == 0 { //tagbreathe:allow floatcmp zero value means unset; exact sentinel
		c.RSSIdBm = -50
	}
	if c.AntennaPort <= 0 {
		c.AntennaPort = 1
	}
	if c.FirstUserID == 0 {
		c.FirstUserID = 1
	}
}

// synthUser is the entire per-user state: the breathing oscillator's
// rate and phase offset. 16 bytes — the property that lets one process
// hold hundreds of thousands of users and a memory measurement charge
// the pipeline rather than the generator.
type synthUser struct {
	rateHz float64
	phase0 float64
}

// Synth generates the multi-user report stream. Reports come out in
// global timestamp order, round-robin across users within each read
// step, exactly as a reader fleet aggregating many rooms would deliver
// them. Not safe for concurrent use; one Synth per producer goroutine.
type Synth struct {
	cfg   SynthConfig
	users []synthUser

	dt      float64 // per-tag read period
	stagger float64 // slot spacing inside one step
	jitterA float64 // jitter amplitude in seconds (≤ stagger/2)
	step    int
}

// NewSynth validates cfg and builds a generator.
func NewSynth(cfg SynthConfig) (*Synth, error) {
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("sim: synth needs at least one user, got %d", cfg.Users)
	}
	if cfg.JitterFrac < 0 || cfg.JitterFrac >= 1 {
		return nil, fmt.Errorf("sim: synth jitter fraction %v outside [0, 1)", cfg.JitterFrac)
	}
	cfg.fillDefaults()
	s := &Synth{
		cfg:   cfg,
		users: make([]synthUser, cfg.Users),
	}
	s.dt = 1 / cfg.PerTagHz
	s.stagger = s.dt / float64(cfg.Users*cfg.TagsPerUser)
	s.jitterA = cfg.JitterFrac * s.stagger / 2
	for u := range s.users {
		s.users[u] = synthUser{
			rateHz: (cfg.BaseRateBPM + float64(u%cfg.RateSpreadBPM)) / 60,
			phase0: float64(u),
		}
	}
	return s, nil
}

// Step returns the next read-step index Next will generate.
func (s *Synth) Step() int { return s.step }

// Steps returns how many read steps cover a stream duration.
func (s *Synth) Steps(d time.Duration) int {
	return int(d.Seconds() * s.cfg.PerTagHz)
}

// ReportsPerStep returns the stream fan-out of one read step.
func (s *Synth) ReportsPerStep() int { return s.cfg.Users * s.cfg.TagsPerUser }

// Reports returns the total report count for a stream duration.
func (s *Synth) Reports(d time.Duration) int {
	return s.Steps(d) * s.ReportsPerStep()
}

// Reset rewinds the generator to step 0; the regenerated stream is
// identical to the first.
func (s *Synth) Reset() { s.step = 0 }

// splitmix64 is the jitter hash: a full-avalanche mix of the slot
// coordinates, so jitter is deterministic per (seed, step, user, tag)
// without any per-user generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slotJitter returns this slot's timing jitter in seconds, uniform in
// [0, 2·jitterA): a non-negative delay (reads report late, never before
// they happened) so slot 0's timestamp can never go negative, bounded
// below one stagger slot so ordering holds.
func (s *Synth) slotJitter(step, slot int) float64 {
	if s.jitterA == 0 { //tagbreathe:allow floatcmp jitterA is exactly 0 when JitterFrac is 0; exact sentinel
		return 0
	}
	h := splitmix64(uint64(s.cfg.Seed)<<32 ^ uint64(step)<<20 ^ uint64(slot))
	// Map the top 53 bits onto [0, 1).
	u := float64(h>>11) / (1 << 53)
	return 2 * u * s.jitterA
}

// ReportAt computes slot (step, user, tag) closed-form: the Eq. 1
// phase of a tag at DistanceM + AmplitudeM·sin(2π·f·t + φ₀) under the
// hopping plan, with no state beyond the 16-byte per-user oscillator.
//
//tagbreathe:hotpath runs once per generated report on the load-generator goroutine
func (s *Synth) ReportAt(step, user, tag int) reader.TagReport {
	su := &s.users[user]
	slot := user*s.cfg.TagsPerUser + tag
	t := float64(step)*s.dt + float64(slot)*s.stagger
	t += s.slotJitter(step, slot)
	ch := int(t/s.cfg.DwellSec) % s.cfg.Channels
	freq := s.cfg.BaseFreqHz + float64(ch)*s.cfg.ChannelStepHz
	lambda := 299792458.0 / freq
	d := s.cfg.DistanceM + s.cfg.AmplitudeM*math.Sin(2*math.Pi*su.rateHz*t+su.phase0)
	phase := math.Mod(2*math.Pi/lambda*2*d+1.3*float64(ch), 2*math.Pi)
	return reader.TagReport{
		EPC:          epc.NewUserTagEPC(s.cfg.FirstUserID+uint64(user), uint32(tag)+1),
		AntennaPort:  s.cfg.AntennaPort,
		ChannelIndex: ch,
		Frequency:    units.Hertz(freq),
		Timestamp:    time.Duration(t * float64(time.Second)),
		Phase:        units.Radians(phase),
		RSSI:         units.DBm(s.cfg.RSSIdBm),
	}
}

// Next appends one read step — every user's every tag, in timestamp
// order — to dst and returns it. Passing dst[:0] back in makes
// steady-state generation allocation-free.
func (s *Synth) Next(dst []reader.TagReport) []reader.TagReport {
	for u := 0; u < s.cfg.Users; u++ {
		for tag := 0; tag < s.cfg.TagsPerUser; tag++ {
			dst = append(dst, s.ReportAt(s.step, u, tag))
		}
	}
	s.step++
	return dst
}

// Generate materializes the whole stream for a duration — the batch
// benchmarks' entry point. Prefer Next for capacity runs; a
// materialized million-user stream defeats the O(bytes)-per-user point.
func (s *Synth) Generate(d time.Duration) []reader.TagReport {
	steps := s.Steps(d)
	out := make([]reader.TagReport, 0, steps*s.ReportsPerStep())
	for k := 0; k < steps; k++ {
		out = s.Next(out)
	}
	return out
}
