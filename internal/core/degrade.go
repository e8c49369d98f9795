package core

// Graceful degradation under overload: the tick governor.
//
// The monitor's overload story used to end at the shard queue — when a
// worker fell behind, its queue grew until the Overload policy either
// backpressured the reader (OverloadBlock) or shed reports
// (OverloadDropNewest). Both sacrifice the wrong thing first: reports
// are the signal, and the analysis tick is the knob. Breathing is
// heavily oversampled relative to the 0.67 Hz band, and a streaming
// tick's cost is per-tick, not per-report, so an overloaded worker can
// halve its analysis cadence and keep every report, losing only
// update freshness — which the RateUpdate.TickStretch field then
// declares to every consumer. That deliberate ladder (1×→2×→4×…, shed
// redundant vantages, then shed primary data) is DESIGN.md §13.
//
// tickGovernor is the per-worker closed loop: each worker owns one,
// and only that worker's goroutine ever touches it (the single-writer
// discipline the whole monitor is built on). It watches two signals —
// the worker's queue occupancy observed at every tick delivery, and
// the engines' post-analysis fused-bin backlog from Engine.Lag — and
// under sustained pressure stretches the worker's effective tick
// interval by skipping analysis on stretch-1 of every stretch tick
// deliveries. The queue signal is sampled by the router at tick
// broadcast (the backlog queued ahead of the tick), not at dequeue —
// the worker drains the queue ahead of a tick before it could
// observe it, so a dequeue-side sample structurally under-reads. Recovery is hysteretic: the ladder steps down one rung
// only after releaseAfter consecutive analyzed ticks with a calm
// queue and a drained engine, so a load that oscillates around the
// threshold cannot flap the cadence.

// DegradeConfig tunes the per-worker adaptive tick-rate controller —
// the graceful-degradation ladder. The zero value disables the
// controller entirely (full-cadence ticks, bit-identical to the
// pre-ladder monitor); set MaxStretch > 1 to enable it. The ladder's
// thresholds are unexported: their defaults are the ladder callers
// get, and only the package's tests set them.
type DegradeConfig struct {
	// MaxStretch caps the tick-stretch ladder: under sustained queue
	// pressure a worker doubles its effective tick interval per rung
	// (1×→2×→4×…) up to this factor. <= 1 disables the controller.
	// Powers of two keep the ladder's rungs exact.
	MaxStretch int
	// engageFraction is the queue-occupancy fraction (of ShardQueue,
	// sampled by the router at tick broadcast — the backlog queued
	// ahead of the tick) at or above which the worker escalates one
	// rung. Default 0.5.
	engageFraction float64
	// releaseFraction is the occupancy fraction at or below which an
	// analyzed tick counts toward recovery. Default engageFraction/4.
	// The gap between engage and release is the hysteresis band.
	releaseFraction float64
	// releaseAfter is how many consecutive calm analyzed ticks step
	// the ladder down one rung. Default 3.
	releaseAfter int
	// lagBinsEngage is the Engine.Lag input: when the post-analysis
	// fused-bin backlog per user (PendingBins summed over the worker's
	// engines, divided by its user count) reaches this many bins, the
	// worker escalates even with a calm queue — the engine itself is
	// behind, not just the queue. The same threshold gates recovery.
	// Default 1024: a healthy streaming engine holds a structural
	// residue of held-for-finality bins (~100/user at the default bin
	// and finality settings), so the threshold must sit far above that
	// or the ladder pins at MaxStretch on residue alone. Negative
	// disables the lag input.
	lagBinsEngage int
}

func (c *DegradeConfig) fillDefaults() {
	if c.engageFraction <= 0 || c.engageFraction > 1 {
		c.engageFraction = 0.5
	}
	if c.releaseFraction <= 0 || c.releaseFraction >= c.engageFraction {
		c.releaseFraction = c.engageFraction / 4
	}
	if c.releaseAfter <= 0 {
		c.releaseAfter = 3
	}
	if c.lagBinsEngage == 0 {
		c.lagBinsEngage = 1024
	}
}

func (c DegradeConfig) enabled() bool { return c.MaxStretch > 1 }

// tickGovernor is one shard worker's degradation controller. It is
// owned and driven exclusively by that worker's event loop; no locks,
// no allocations past construction.
type tickGovernor struct {
	cfg     DegradeConfig
	engage  int // occupancy >= engage escalates
	release int // occupancy <= release counts toward recovery

	//tagbreathe:owner workerLoop
	stretch int // current rung: analyze every stretch-th tick delivery
	//tagbreathe:owner workerLoop
	skip int // tick deliveries to skip before the next analysis
	//tagbreathe:owner workerLoop
	calm   int  // consecutive calm analyzed ticks (recovery progress)
	forced bool // tests only: the rung is pinned, the loop is open
}

func newTickGovernor(cfg DegradeConfig, queueCap int) *tickGovernor {
	cfg.fillDefaults()
	g := &tickGovernor{
		cfg:     cfg,
		engage:  int(float64(queueCap) * cfg.engageFraction),
		release: int(float64(queueCap) * cfg.releaseFraction),
		stretch: 1,
	}
	if g.engage < 1 {
		g.engage = 1
	}
	return g
}

// newForcedGovernor pins the ladder at a fixed rung with the closed
// loop open — the fixed cadence the stretch-equivalence tests compare
// against full rate. Tests only.
func newForcedGovernor(stretch int) *tickGovernor {
	return &tickGovernor{stretch: stretch, forced: true}
}

// tick is called at every tick delivery with the queue occupancy the
// router sampled at broadcast. It escalates (at most one rung per
// delivery) under pressure and reports whether this tick should be
// analyzed or skipped. Skipped ticks still reply to the collector —
// the reply is just empty — so the tick barrier never stalls.
func (g *tickGovernor) tick(occ int) (analyze bool) {
	if !g.forced && occ >= g.engage {
		g.calm = 0
		g.escalate()
	}
	if g.skip > 0 {
		g.skip--
		return false
	}
	g.skip = g.stretch - 1
	return true
}

// settle runs after an analyzed tick with the occupancy captured at
// its delivery and the per-user fused-bin backlog from Engine.Lag. A
// drained engine and a calm queue count toward recovery; a lagging
// engine escalates even when the queue looks healthy.
func (g *tickGovernor) settle(occ int, pendingPerUser float64) {
	if g.forced {
		return
	}
	if g.cfg.lagBinsEngage >= 0 && pendingPerUser >= float64(g.cfg.lagBinsEngage) {
		g.calm = 0
		g.escalate()
		return
	}
	if g.stretch == 1 {
		return
	}
	if occ > g.release {
		g.calm = 0
		return
	}
	g.calm++
	if g.calm >= g.cfg.releaseAfter {
		g.calm = 0
		g.stretch /= 2
		if g.stretch < 1 {
			g.stretch = 1
		}
		if g.skip >= g.stretch {
			g.skip = g.stretch - 1
		}
	}
}

func (g *tickGovernor) escalate() {
	if g.stretch >= g.cfg.MaxStretch {
		return
	}
	g.stretch *= 2
	if g.stretch > g.cfg.MaxStretch {
		g.stretch = g.cfg.MaxStretch
	}
}

// ShedClass classifies a report by how much the pipeline would miss
// it: the §IV-D.3 selection names exactly one (reader, antenna)
// vantage per user as the source of that user's estimate, so reports
// from any other vantage are redundant oversampling and are shed
// first when shedding is unavoidable.
type ShedClass uint8

const (
	// ShedUnknown: no selection has been made for the user yet (cold
	// start, or the user has never emitted an update).
	ShedUnknown ShedClass = iota
	// ShedPrimary: the report is from the user's selected vantage —
	// the data the estimate is actually computed from.
	ShedPrimary
	// ShedRedundant: the report is from a non-selected vantage;
	// losing it costs cross-vantage warmth, not estimate signal.
	ShedRedundant
)

// String returns the metric label value for the class.
//
//tagbreathe:labelvalue three fixed classes (unknown, primary, redundant)
func (c ShedClass) String() string {
	switch c {
	case ShedPrimary:
		return "primary"
	case ShedRedundant:
		return "redundant"
	default:
		return "unknown"
	}
}
