package load

import (
	"fmt"
	"runtime"
	"time"

	"tagbreathe/internal/core"
)

// Environment records where a capacity model was measured; comparisons
// across machines are apples-to-oranges and the model says so.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
}

// SweepPoint is one sweep row: the OverloadBlock capacity measurement
// plus the OverloadDropNewest shed probe at the same user count.
type SweepPoint struct {
	Point
	// ProbeDropFrac is the drop fraction of the paced
	// OverloadDropNewest pass — the shed-probe column. The first user
	// count with a non-zero value is the model's drop onset.
	ProbeDropFrac float64 `json:"probe_drop_frac"`
	// ProbePeakStretch and ProbeDegradedTickFrac are the probe pass's
	// degradation figures when base.Degrade arms the ladder: the
	// highest stretch rung reached and the fraction of tick deliveries
	// skipped. Stretch engaging before drops (onset at a lower user
	// count) is the graceful-degradation contract in model form.
	ProbePeakStretch      int     `json:"probe_peak_stretch,omitempty"`
	ProbeDegradedTickFrac float64 `json:"probe_degraded_tick_frac,omitempty"`
}

// Model is the BENCH_capacity.json document.
type Model struct {
	Benchmark   string      `json:"benchmark"`
	Description string      `json:"description"`
	Environment Environment `json:"environment"`
	// DropOnsetUsers is the smallest swept user count whose
	// OverloadDropNewest probe shed reports; 0 means no onset within
	// the sweep.
	DropOnsetUsers int `json:"drop_onset_users"`
	// DegradeOnsetUsers is the smallest swept user count whose probe
	// engaged the tick-stretch ladder (peak stretch > 1); 0 means the
	// ladder never engaged (or base.Degrade left it disabled). It can
	// sit above DropOnsetUsers: small-K probe drops are transient
	// bursts overflowing a queue between tick broadcasts, which the
	// broadcast-time governor rightly ignores — degrade onset marks
	// where overload becomes *sustained*, the regime the ladder
	// answers with cadence instead of data.
	DegradeOnsetUsers int          `json:"degrade_onset_users"`
	Points            []SweepPoint `json:"points"`
}

// CurrentEnvironment describes this process's machine.
func CurrentEnvironment() Environment {
	return Environment{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Sweep measures a user-count ladder: for each count, an OverloadBlock
// capacity point (closed loop, unpaced, zero drops enforced) and an
// OverloadDropNewest shed probe paced at probePace (1 = real-time
// load; 0 = unpaced, which on a small machine sheds at every count and
// says nothing — use it only for quick harness tests). base supplies
// everything but Users. progress, when non-nil, receives a line per
// completed count.
func Sweep(counts []int, base Options, probePace float64, progress func(string)) (*Model, error) {
	model := &Model{
		Benchmark: "capacity_sweep",
		Description: "Closed-loop capacity model: synthetic users through the monitor " +
			"router/worker-pool/collector in-process. Block points measure sustained " +
			"capacity (backpressured, unpaced, lossless); probe points offer the same " +
			"stream paced at real time under OverloadDropNewest, so drop onset marks " +
			"the user count where real-time load no longer fits. Probes arm the " +
			"tick-stretch ladder when configured, so degrade onset marks where the " +
			"monitor first trades update cadence for report coverage.",
		Environment: CurrentEnvironment(),
	}
	for _, users := range counts {
		opts := base
		opts.Users = users
		opts.Overload = core.OverloadBlock
		// The block pass is the pure capacity measurement: a stretched
		// cadence under the backpressured flood would understate tick
		// cost, so the ladder stays off regardless of base.Degrade.
		opts.Degrade = core.DegradeConfig{}
		start := time.Now()
		p, err := RunPoint(opts)
		if err != nil {
			return nil, fmt.Errorf("load: block point at %d users: %w", users, err)
		}
		probe := base
		probe.Users = users
		probe.Overload = core.OverloadDropNewest
		probe.Pace = probePace
		pp, err := RunPoint(probe)
		if err != nil {
			return nil, fmt.Errorf("load: drop probe at %d users: %w", users, err)
		}
		sp := SweepPoint{
			Point:                 p,
			ProbeDropFrac:         pp.DropFrac,
			ProbePeakStretch:      pp.PeakStretch,
			ProbeDegradedTickFrac: pp.DegradedTickFrac,
		}
		model.Points = append(model.Points, sp)
		if pp.Dropped > 0 && model.DropOnsetUsers == 0 {
			model.DropOnsetUsers = users
		}
		if pp.PeakStretch > 1 && model.DegradeOnsetUsers == 0 {
			model.DegradeOnsetUsers = users
		}
		if progress != nil {
			progress(fmt.Sprintf(
				"users=%-7d %9.0f reports/s  %6.0f B/user  tick p99 %6.1f µs  goroutines %-4d probe drops %.3f%% stretch %d× degraded %.1f%%  (%.1fs)",
				users, p.ReportsPerSec, p.BytesPerUser, p.TickP99Micros,
				p.Goroutines, 100*pp.DropFrac, pp.PeakStretch,
				100*pp.DegradedTickFrac, time.Since(start).Seconds()))
		}
	}
	return model, nil
}

// Check compares a freshly measured model against a checked-in
// baseline: tick-latency p99 and bytes/user may not regress by more
// than factor at any user count both models cover (nearest baseline
// point by user count). It returns the violations, empty when the run
// is within budget.
func Check(current, baseline *Model, factor float64) []string {
	var bad []string
	if factor <= 0 {
		factor = 3
	}
	for _, p := range current.Points {
		b, ok := nearestPoint(baseline, p.Users)
		if !ok {
			continue
		}
		if b.TickP99Micros > 0 && p.TickP99Micros > b.TickP99Micros*factor {
			bad = append(bad, fmt.Sprintf(
				"users=%d: tick p99 %.1f µs exceeds %.0f× baseline %.1f µs (at %d users)",
				p.Users, p.TickP99Micros, factor, b.TickP99Micros, b.Users))
		}
		if b.BytesPerUser > 0 && p.BytesPerUser > b.BytesPerUser*factor {
			bad = append(bad, fmt.Sprintf(
				"users=%d: %.0f bytes/user exceeds %.0f× baseline %.0f (at %d users)",
				p.Users, p.BytesPerUser, factor, b.BytesPerUser, b.Users))
		}
	}
	return bad
}

// nearestPoint finds the baseline point closest in user count.
func nearestPoint(m *Model, users int) (SweepPoint, bool) {
	if m == nil || len(m.Points) == 0 {
		return SweepPoint{}, false
	}
	best := m.Points[0]
	for _, p := range m.Points[1:] {
		if abs(p.Users-users) < abs(best.Users-users) {
			best = p
		}
	}
	return best, true
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
