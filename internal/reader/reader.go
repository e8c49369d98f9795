// Package reader emulates a commodity UHF RFID reader (the paper's
// Impinj Speedway R420): it schedules up to four antennas round-robin,
// hops frequency channels per the regulatory plan, runs Gen2 inventory
// rounds against the tags in the field, and emits the timestamped
// low-level tag reports (EPC, antenna, channel, phase, RSSI, Doppler)
// that the TagBreathe host-side pipeline consumes.
//
// The emulator is driven entirely by simulation time — no wall clock —
// so two minutes of monitoring simulate in milliseconds and runs are
// reproducible from a seed.
package reader

import (
	"fmt"
	"math/rand"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/fmath"
	"tagbreathe/internal/geom"
	"tagbreathe/internal/rf"
	"tagbreathe/internal/units"
)

// Target is a physical tag in the reader's field, as the emulator sees
// it: a stable physical identity, its (rewritable) EPC, and its
// geometry relative to a given antenna at a given time.
type Target interface {
	// Key is a stable 64-bit identity of the physical tag, independent
	// of EPC rewrites; it keys the hidden RF constants.
	Key() uint64
	// EPC returns the tag's current EPC-96.
	EPC() epc.EPC96
	// RangeTo reports the tag's distance (m) and radial velocity (m/s,
	// positive receding) relative to the antenna position, plus the
	// excess losses at time t: forward covers power-up impairments
	// (body blockage, garment-tag detuning), reverse covers the
	// backscatter return path.
	RangeTo(antenna geom.Vec3, t float64) (distance, radialVelocity float64, forward, reverse units.DB)
}

// Antenna is one reader antenna port.
type Antenna struct {
	// Port is the 1-based antenna port number as reported in LLRP.
	Port int
	// Position is the antenna location in room coordinates, meters.
	Position geom.Vec3
}

// TagReport is one low-level read, mirroring the fields the paper lists
// in §IV-A (Fig. 10's data-collection records).
type TagReport struct {
	EPC          epc.EPC96
	AntennaPort  int
	ChannelIndex int
	Frequency    units.Hertz
	// Timestamp is simulation time since run start.
	Timestamp time.Duration
	// Phase is the reported backscatter phase in [0, 2π) radians.
	Phase units.Radians
	// RSSI is the reported received signal strength.
	RSSI units.DBm
	// DopplerHz is the reported Doppler frequency shift.
	DopplerHz float64
	// TraceID links the report to a sampled end-to-end pipeline trace
	// (internal/obs.Tracer); 0 — the overwhelmingly common case — means
	// untraced. The ID travels with the report so queue wait at every
	// stage is attributed to the stage that queued it, not the one that
	// dequeued it.
	TraceID uint64
	// ReaderID names the reader that produced the report — the fleet
	// provenance tag. Sessions stamp it from SessionConfig.ReaderID and
	// the fleet stamps each reader's name, so downstream stages
	// (differencing, antenna selection, tracing) can keep per-reader
	// streams apart. Empty means an unnamed single reader: the legacy
	// path, bit-identical to pre-fleet behaviour.
	ReaderID string
}

// Config assembles a reader emulator.
type Config struct {
	// Antennas are the connected antenna ports; at least one.
	Antennas []Antenna
	// AntennaDwell is how long the reader stays on one antenna before
	// round-robin switching (§IV-D.3). Ignored with one antenna.
	AntennaDwell time.Duration
	// Plan is the regulatory channel plan; nil selects PaperPlan.
	Plan *rf.ChannelPlan
	// Budget is the link budget; nil selects DefaultLinkBudget.
	Budget *rf.LinkBudget
	// Observer tunes low-level data reporting; zero-value fields take
	// defaults via DefaultObserverConfig when Observe is unset below.
	Observer *rf.ObserverConfig
	// Link sets Gen2 air parameters; zero value selects defaults.
	Link epc.LinkParams
	// InitialQ seeds the Q-adaptation; 4 suits typical populations.
	InitialQ float64
	// Session selects the Gen2 session semantics (flag persistence and
	// dual-target operation). The zero value — S0, single target — is
	// the continuous-monitoring default.
	Session epc.SessionConfig
	// Select restricts inventory to tags matching the filter, the
	// Gen2 Select command a reader issues before Query. In dense
	// environments (Fig. 14's contending item tags) selecting only
	// the monitoring tags recovers their full read rate: non-matching
	// tags never participate in the rounds at all. nil inventories
	// everything.
	Select func(epc.EPC96) bool
	// Seed drives all stochastic behaviour of this reader instance.
	Seed int64
}

// Reader is the emulator instance.
type Reader struct {
	cfg      Config
	rng      *rand.Rand
	hopper   *rf.Hopper
	observer *rf.Observer
	inv      *epc.Inventory
}

// RunStats aggregates a completed run.
type RunStats struct {
	Duration      time.Duration
	Rounds        int
	TotalReads    int
	Empties       int
	Collisions    int
	Failures      int
	ReadsByTag    map[uint64]int
	ReadsByPort   map[int]int
	MeanRSSIByTag map[uint64]float64
}

// AggregateReadRate returns total successful reads per second.
func (s RunStats) AggregateReadRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.TotalReads) / s.Duration.Seconds()
}

// TagReadRate returns the read rate of one physical tag.
func (s RunStats) TagReadRate(key uint64) float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.ReadsByTag[key]) / s.Duration.Seconds()
}

// New builds a reader emulator, filling defaults for unset config.
func New(cfg Config, horizon time.Duration) (*Reader, error) {
	if len(cfg.Antennas) == 0 {
		return nil, fmt.Errorf("reader: at least one antenna required")
	}
	seen := make(map[int]bool, len(cfg.Antennas))
	for _, a := range cfg.Antennas {
		if a.Port < 1 {
			return nil, fmt.Errorf("reader: antenna port %d must be ≥ 1", a.Port)
		}
		if seen[a.Port] {
			return nil, fmt.Errorf("reader: duplicate antenna port %d", a.Port)
		}
		seen[a.Port] = true
	}
	if cfg.Plan == nil {
		cfg.Plan = rf.PaperPlan()
	}
	if cfg.Budget == nil {
		cfg.Budget = rf.DefaultLinkBudget()
	}
	if err := cfg.Budget.Validate(); err != nil {
		return nil, err
	}
	obsCfg := rf.DefaultObserverConfig()
	if cfg.Observer != nil {
		obsCfg = *cfg.Observer
	}
	if cfg.Link == (epc.LinkParams{}) {
		cfg.Link = epc.DefaultLinkParams()
	}
	if cfg.AntennaDwell <= 0 {
		cfg.AntennaDwell = 500 * time.Millisecond
	}
	if fmath.ExactZero(cfg.InitialQ) {
		cfg.InitialQ = 4
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("reader: non-positive horizon %v", horizon)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	hopper, err := rf.NewHopper(cfg.Plan, horizon.Seconds(), rng)
	if err != nil {
		return nil, err
	}
	inv, err := epc.NewInventoryWithSession(cfg.Link, cfg.InitialQ, cfg.Session)
	if err != nil {
		return nil, err
	}
	return &Reader{
		cfg:      cfg,
		rng:      rng,
		hopper:   hopper,
		observer: rf.NewObserver(cfg.Budget, obsCfg, rng),
		inv:      inv,
	}, nil
}

// Hopper exposes the channel hopping sequence (the experiments plot it
// directly for Fig. 5).
func (r *Reader) Hopper() *rf.Hopper {
	return r.hopper
}

// Run simulates inventory for the given duration over the targets,
// invoking emit for every successful read in timestamp order. emit may
// be nil when only statistics are wanted.
func (r *Reader) Run(duration time.Duration, targets []Target, emit func(TagReport)) (RunStats, error) {
	if duration <= 0 {
		return RunStats{}, fmt.Errorf("reader: non-positive run duration %v", duration)
	}
	stats := RunStats{
		Duration:      duration,
		ReadsByTag:    make(map[uint64]int),
		ReadsByPort:   make(map[int]int),
		MeanRSSIByTag: make(map[uint64]float64),
	}
	rssiSums := make(map[uint64]float64)

	end := duration.Seconds()
	t := 0.0
	antennaIdx := 0
	antennaSwitch := r.cfg.AntennaDwell.Seconds()

	// Reused across rounds to avoid per-round allocation.
	parts := make([]epc.Participant, 0, len(targets))

	for t < end {
		// Round-robin antenna schedule: advance to the antenna slot
		// that covers the current time.
		if len(r.cfg.Antennas) > 1 {
			antennaIdx = int(t/antennaSwitch) % len(r.cfg.Antennas)
		}
		ant := r.cfg.Antennas[antennaIdx]
		chIdx, freq := r.hopper.ChannelAt(t)

		// Assemble this round's contenders: tags with any chance of
		// powering and replying on this antenna/channel.
		parts = parts[:0]
		for i, tgt := range targets {
			if r.cfg.Select != nil && !r.cfg.Select(tgt.EPC()) {
				continue // deselected by the Gen2 Select filter
			}
			d, _, fwd, rev := tgt.RangeTo(ant.Position, t)
			link := r.cfg.Budget.Compute(d, freq, fwd, rev)
			p := r.cfg.Budget.ReadSuccessProbability(link)
			if p < 1e-3 {
				continue
			}
			parts = append(parts, epc.Participant{Index: i, SuccessProb: p})
		}

		events, round, next := r.inv.RunRound(t, parts, r.rng)
		stats.Rounds++
		stats.Empties += round.Empties
		stats.Collisions += round.Collisions
		stats.Failures += round.Failures

		for _, ev := range events {
			if ev.Time > end {
				break
			}
			tgt := targets[ev.Index]
			d, v, fwd, rev := tgt.RangeTo(ant.Position, ev.Time)
			obs := r.observer.Observe(rf.ReadRequest{
				TagID:          tgt.Key(),
				Antenna:        ant.Port,
				Channel:        chIdx,
				Frequency:      freq,
				Distance:       d,
				RadialVelocity: v,
				ForwardLoss:    fwd,
				ReverseLoss:    rev,
			})
			stats.TotalReads++
			stats.ReadsByTag[tgt.Key()]++
			stats.ReadsByPort[ant.Port]++
			rssiSums[tgt.Key()] += float64(obs.RSSI)
			if emit != nil {
				emit(TagReport{
					EPC:          tgt.EPC(),
					AntennaPort:  ant.Port,
					ChannelIndex: chIdx,
					Frequency:    freq,
					Timestamp:    time.Duration(ev.Time * float64(time.Second)),
					Phase:        obs.Phase,
					RSSI:         obs.RSSI,
					DopplerHz:    obs.DopplerHz,
				})
			}
		}

		if next <= t {
			// Defensive: a round must consume time or the loop never
			// terminates. Inventory timings guarantee this; guard it.
			return stats, fmt.Errorf("reader: inventory round consumed no time at t=%v", t)
		}
		t = next
	}
	for key, sum := range rssiSums {
		if n := stats.ReadsByTag[key]; n > 0 {
			stats.MeanRSSIByTag[key] = sum / float64(n)
		}
	}
	return stats, nil
}
