// Package soak drives long-horizon end-to-end runs of the full
// pipeline — simulated ward → paced LLRP servers → fault proxies →
// reader fleet → monitor — and reports whether the system degraded
// gracefully. A soak loops a jittered chaos schedule (latency spikes,
// silent stalls, disconnects, corrupt frames) against a multi-user,
// multi-reader fleet for the bulk of the run, then ends with a
// fault-free calm tail. The interesting assertions are the ones a
// single scripted pass cannot make: memory and goroutines stay
// bounded, per-user estimates never diverge from ground truth, and
// the degradation ladder both engages under the injected bursts and
// fully clears once they stop (DESIGN.md §13).
//
// Profiles pace the same scenario at different stream-to-wall ratios:
// Compressed is the CI smoke profile (~a minute of wall clock for
// tens of minutes of stream), Realtime the manual/nightly profile.
// Run returns a Result; Result.Verify yields the violated invariants,
// so tests and the experiments CLI share one set of pass criteria.
package soak

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/chaos"
	"tagbreathe/internal/core"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// Profile shapes one soak run. Durations denominated in stream time
// scale with Speed, so the same schedule stresses the same pipeline
// mechanics whether compressed or realtime.
type Profile struct {
	// Name labels the profile in results and logs.
	Name string
	// StreamDuration is the stream time the run covers end to end.
	StreamDuration time.Duration
	// Speed is the stream-to-wall ratio (1 = realtime).
	Speed float64
	// Users is how many monitored users breathe in the ward.
	Users int
	// Readers is how many readers cover the ward, each behind its own
	// fault proxy.
	Readers int
	// Seed derives the scenario and the per-proxy jitter streams.
	Seed int64
	// Jitter randomizes the chaos schedules pass to pass (see
	// chaos.Loop.Jitter).
	Jitter float64
	// StallStream is how much stream time the big per-pass stall
	// withholds — from every reader at once, so stream time itself
	// pauses. The release replays the retained backlog as a flood
	// whose timestamps drive the analysis ticks, which is what makes
	// the queue deep at tick broadcast and pushes the monitor onto
	// the degradation ladder. (A single reader's stall cannot: the
	// surviving readers keep stream time current, so the stale burst
	// drains invisibly between ticks.)
	StallStream time.Duration
	// CalmTail is the fault-free stream time at the end of the run;
	// by its close the ladder must have fully cleared.
	CalmTail time.Duration
	// MaxStretch configures the monitor under test's degradation
	// ladder.
	MaxStretch int
}

// Compressed is the CI smoke profile: ~25 minutes of stream in under
// a minute of wall clock, four-plus chaos passes, then a calm tail.
func Compressed() Profile {
	return Profile{
		Name:           "compressed",
		StreamDuration: 25 * time.Minute,
		Speed:          30,
		Users:          2,
		Readers:        2,
		Seed:           1,
		Jitter:         0.2,
		StallStream:    18 * time.Second,
		CalmTail:       150 * time.Second,
		MaxStretch:     8,
	}
}

// Realtime is the manual/nightly profile: the same schedule shape at
// 1× pacing for an hour. Not part of the CI tier — see the Makefile's
// soak targets.
func Realtime() Profile {
	return Profile{
		Name:           "realtime",
		StreamDuration: time.Hour,
		Speed:          1,
		Users:          2,
		Readers:        2,
		Seed:           1,
		Jitter:         0.3,
		StallStream:    18 * time.Second,
		CalmTail:       5 * time.Minute,
		MaxStretch:     8,
	}
}

// wall converts a stream duration to wall clock under the profile.
func (p Profile) wall(stream time.Duration) time.Duration {
	return time.Duration(float64(stream) / p.Speed)
}

// UserOutcome is one user's soak verdict.
type UserOutcome struct {
	UserID   uint64
	TruthBPM float64
	// FinalBPM is the last estimate of the run — delivered during the
	// calm tail, so it must be back on truth.
	FinalBPM float64
	// Updates counts post-warmup estimate deliveries.
	Updates int
	// MaxGapS is the longest stream-time silence between consecutive
	// post-warmup updates — the blackout a ward display would show.
	// Judged against Result.GapLimitS.
	MaxGapS float64
	// OutOfBand counts post-warmup updates outside the plausible
	// breathing band (4–40 bpm). A handful of transition-window blips
	// (fault onset, vantage failover) are tolerated; anything more is
	// estimate divergence.
	OutOfBand int
	// FinalStretch and FinalDegraded are the last update's degradation
	// stamp; a cleared ladder reports 1 and false.
	FinalStretch  int
	FinalDegraded bool
}

// Result is everything a soak run measured.
type Result struct {
	Profile       string
	WallSeconds   float64
	StreamSeconds float64
	Users         []UserOutcome
	// GapLimitS is the profile's update-blackout budget: a 30 s base
	// (window + finality horizon) plus the all-reader stall, during
	// which no estimate can possibly be produced.
	GapLimitS float64
	// PeakStretch is the highest ladder rung any worker reached; a
	// soak whose bursts never engage the ladder proves nothing.
	PeakStretch  int
	SkippedTicks uint64
	// DegradedAtEnd is MonitorStats.DegradedWorkers at the end of the
	// calm tail.
	DegradedAtEnd int
	// MonitorShed and FleetShed are the per-class shed totals at the
	// monitor's router and the fleet merge respectively.
	MonitorShed map[string]uint64
	FleetShed   map[string]uint64
	// Conns and Reconnects total across all proxies/readers.
	Conns      uint64
	Reconnects uint64
	// GoroutineBaseline and GoroutineEnd bracket the run; End above
	// Baseline after teardown is a leak.
	GoroutineBaseline int
	GoroutineEnd      int
	// HeapEarlyBytes and HeapLateBytes are post-GC heap sizes just
	// after warmup and at the end of the run.
	HeapEarlyBytes uint64
	HeapLateBytes  uint64
}

// heapSlackBytes is the allowed post-GC heap growth across the run.
const heapSlackBytes = 64 << 20

// Verify returns the soak invariants the result violates; empty means
// the run degraded gracefully end to end.
func (r Result) Verify() []string {
	var v []string
	for _, u := range r.Users {
		if u.Updates == 0 {
			v = append(v, fmt.Sprintf("user %d: no post-warmup updates", u.UserID))
			continue
		}
		if u.FinalBPM < u.TruthBPM-2.5 || u.FinalBPM > u.TruthBPM+2.5 {
			v = append(v, fmt.Sprintf("user %d: final estimate %.2f bpm diverged from truth %.2f ± 2.5", u.UserID, u.FinalBPM, u.TruthBPM))
		}
		if blips := 2 + u.Updates/200; u.OutOfBand > blips {
			v = append(v, fmt.Sprintf("user %d: %d/%d updates left the plausible breathing band (tolerance %d)", u.UserID, u.OutOfBand, u.Updates, blips))
		}
		if u.MaxGapS > r.GapLimitS {
			v = append(v, fmt.Sprintf("user %d: %.1f s stream-time update blackout (limit %.0f s)", u.UserID, u.MaxGapS, r.GapLimitS))
		}
		if u.FinalStretch != 1 || u.FinalDegraded {
			v = append(v, fmt.Sprintf("user %d: final update still degraded (stretch %d)", u.UserID, u.FinalStretch))
		}
	}
	if r.PeakStretch < 2 {
		v = append(v, "degradation ladder never engaged (peak stretch 1) — the soak exercised nothing")
	}
	if r.DegradedAtEnd != 0 {
		v = append(v, fmt.Sprintf("%d workers still degraded after the calm tail", r.DegradedAtEnd))
	}
	if r.HeapLateBytes > r.HeapEarlyBytes+heapSlackBytes {
		v = append(v, fmt.Sprintf("heap grew %d → %d bytes (slack %d)", r.HeapEarlyBytes, r.HeapLateBytes, uint64(heapSlackBytes)))
	}
	if r.GoroutineEnd > r.GoroutineBaseline {
		v = append(v, fmt.Sprintf("goroutines leaked: %d after teardown, baseline %d", r.GoroutineEnd, r.GoroutineBaseline))
	}
	return v
}

// Run executes one soak profile end to end and measures it. Setup and
// infrastructure failures return an error; invariant violations are
// the caller's to judge via Result.Verify.
func Run(ctx context.Context, p Profile) (Result, error) {
	// Ward scenario: Users breathers side by side at distinct rates, a
	// minute of trace slack past the run's end so the replay never
	// exhausts mid-run.
	rates := make([]float64, p.Users)
	pool := []float64{10, 16, 13, 19, 22, 8}
	for i := range rates {
		rates[i] = pool[i%len(pool)]
	}
	sc := sim.DefaultScenario()
	sc.Duration = p.StreamDuration + time.Minute
	sc.Seed = p.Seed
	sc.Users = sim.SideBySide(p.Users, 4, rates...)
	res, err := sc.Run()
	if err != nil {
		return Result{}, fmt.Errorf("soak: scenario: %w", err)
	}

	// One independent replay per reader, each behind its own fault
	// proxy. The replay retains StallStream of backlog across stalls
	// and outages, so fault recovery arrives as a burst — the way a
	// buffering reader replays reports after a link wedge.
	stallWall := p.wall(p.StallStream)
	sources := make([]*pacedSource, p.Readers)
	proxies := make([]*chaos.Proxy, p.Readers)
	readers := make([]fleet.ReaderConfig, p.Readers)
	for i := range sources {
		src := &pacedSource{reports: res.Reports, speed: p.Speed, slack: 2 * stallWall}
		srv, err := llrp.NewServer(llrp.ServerConfig{
			NewSource:      func() llrp.ReportSource { return llrp.ReportSourceFunc(src.stream) },
			KeepaliveEvery: 50 * time.Millisecond,
		})
		if err != nil {
			return Result{}, fmt.Errorf("soak: server %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Result{}, fmt.Errorf("soak: listen %d: %w", i, err)
		}
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			_ = srv.Serve(ln)
		}()
		defer func() {
			srv.Close()
			<-serveDone
		}()
		proxy, err := chaos.NewProxy(ln.Addr().String())
		if err != nil {
			return Result{}, fmt.Errorf("soak: proxy %d: %w", i, err)
		}
		defer proxy.Close()
		sources[i] = src
		proxies[i] = proxy
		readers[i] = fleet.ReaderConfig{Name: fmt.Sprintf("r%d", i), Addr: proxy.Addr()}
	}

	time.Sleep(50 * time.Millisecond) // let startup goroutines settle
	baseline := runtime.NumGoroutine()

	mon := core.NewMonitor(core.MonitorConfig{
		Pipeline:     core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
		Window:       25 * time.Second,
		UpdateEvery:  time.Second,
		ShardWorkers: 2,
		Overload:     core.OverloadDropNewest,
		Degrade:      core.DegradeConfig{MaxStretch: p.MaxStretch},
	})
	start := time.Now()
	for _, src := range sources {
		src.start = start
	}
	f, err := fleet.Start(ctx, fleet.Config{
		Readers: readers,
		Session: llrp.SessionConfig{
			ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 8},
			DialTimeout: 2 * time.Second,
			BackoffMin:  5 * time.Millisecond,
			BackoffMax:  50 * time.Millisecond,
			Watchdog:    3 * stallWall,
		},
		ShedClass: func(r reader.TagReport) core.ShedClass {
			return mon.VantageClass(r.EPC.UserID(), r.ReaderID, r.AntennaPort)
		},
	})
	if err != nil {
		mon.Stop()
		return Result{}, fmt.Errorf("soak: fleet: %w", err)
	}
	defer f.Close()

	var pumps sync.WaitGroup
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for r := range f.Reports() {
			mon.Ingest(r)
		}
		mon.CloseInput()
	}()

	// The update consumer tracks each user's warmup, cadence gaps,
	// band violations, and final stamp.
	type track struct {
		truth   float64
		warm    bool
		updates int
		lastT   time.Duration
		maxGap  time.Duration
		outBand int
		last    core.RateUpdate
	}
	var mu sync.Mutex
	tracks := make(map[uint64]*track, len(res.UserIDs))
	for _, uid := range res.UserIDs {
		tracks[uid] = &track{truth: res.TrueRateBPM[uid]}
	}
	pumps.Add(1)
	go func() {
		defer pumps.Done()
		for u := range mon.Updates() {
			mu.Lock()
			tr := tracks[u.UserID]
			if tr == nil {
				mu.Unlock()
				continue
			}
			if !tr.warm {
				// Warm once the estimate first locks onto truth; the
				// continuous checks only judge the run from there.
				if u.Reads > 0 && u.RateBPM > tr.truth-2.5 && u.RateBPM < tr.truth+2.5 {
					tr.warm = true
					tr.lastT = u.Time
				}
				mu.Unlock()
				continue
			}
			tr.updates++
			if u.RateBPM < 4 || u.RateBPM > 40 {
				tr.outBand++
			}
			if gap := u.Time - tr.lastT; gap > tr.maxGap {
				tr.maxGap = gap
			}
			tr.lastT = u.Time
			tr.last = u
			mu.Unlock()
		}
	}()

	// Phase 1 — warmup: every user locked on before the faults start.
	allWarm := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, tr := range tracks {
			if !tr.warm {
				return false
			}
		}
		return true
	}
	warmDeadline := start.Add(p.wall(2*time.Minute) + 10*time.Second)
	for !allWarm() {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if time.Now().After(warmDeadline) {
			return Result{}, fmt.Errorf("soak: warmup incomplete after %v (fleet %+v)", time.Since(start), f.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	heapEarly := heapInUse()

	// Phase 2 — chaos: loop a jittered schedule per proxy until the
	// calm tail begins. Reader 0 takes the full fault menu; the others
	// a lighter, phase-shifted one, so outages overlap but never
	// silence the whole fleet by construction.
	wallEnd := start.Add(p.wall(p.StreamDuration))
	calmStart := wallEnd.Add(-p.wall(p.CalmTail))
	scriptCtx, cancelScripts := context.WithDeadline(ctx, calmStart)
	defer cancelScripts()
	var scripts sync.WaitGroup
	for i, proxy := range proxies {
		steps := lightSchedule(p, stallWall)
		if i == 0 {
			steps = fullSchedule(p, stallWall, proxies)
		}
		scripts.Add(1)
		go func(i int, proxy *chaos.Proxy, steps []chaos.Step) {
			defer scripts.Done()
			_ = proxy.RunScriptLoop(scriptCtx, steps, chaos.Loop{
				Jitter: p.Jitter,
				Seed:   p.Seed + int64(i) + 1,
			})
		}(i, proxy, steps)
	}
	scripts.Wait()
	// A cancelled script can leave a latency spike armed; the calm
	// tail must be genuinely fault-free.
	for _, proxy := range proxies {
		proxy.SetLatency(0)
	}

	// Phase 3 — calm tail, then measure before teardown.
	sleepUntil(ctx, wallEnd)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	for _, src := range sources {
		if src.exhausted() {
			return Result{}, fmt.Errorf("soak: trace exhausted before the run ended — lengthen StreamDuration slack")
		}
	}

	st := mon.Stats()
	r := Result{
		Profile:           p.Name,
		WallSeconds:       time.Since(start).Seconds(),
		StreamSeconds:     (time.Duration(float64(time.Since(start)) * p.Speed)).Seconds(),
		GapLimitS:         30 + p.StallStream.Seconds(),
		PeakStretch:       st.PeakStretch,
		SkippedTicks:      st.SkippedTicks,
		DegradedAtEnd:     st.DegradedWorkers,
		MonitorShed:       st.ShedByClass,
		FleetShed:         map[string]uint64{},
		GoroutineBaseline: baseline,
		HeapEarlyBytes:    heapEarly,
		HeapLateBytes:     heapInUse(),
	}
	for _, proxy := range proxies {
		r.Conns += proxy.TotalConns()
	}
	for _, s := range f.Status() {
		r.Reconnects += s.Reconnects
		for cls, n := range s.ShedByClass {
			r.FleetShed[cls] += n
		}
	}
	mu.Lock()
	for _, uid := range res.UserIDs {
		tr := tracks[uid]
		r.Users = append(r.Users, UserOutcome{
			UserID:        uid,
			TruthBPM:      tr.truth,
			FinalBPM:      tr.last.RateBPM,
			Updates:       tr.updates,
			MaxGapS:       tr.maxGap.Seconds(),
			OutOfBand:     tr.outBand,
			FinalStretch:  tr.last.TickStretch,
			FinalDegraded: tr.last.Degraded,
		})
	}
	mu.Unlock()

	// Teardown must cascade — fleet, pumps, monitor — and return the
	// goroutine count to the pre-fleet baseline.
	f.Close()
	pumps.Wait()
	mon.Stop()
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	r.GoroutineEnd = runtime.NumGoroutine()
	return r, nil
}

// fullSchedule is one chaos pass for the coordinating script (run on
// reader 0's proxy): a latency spike, the all-reader stall — stream
// time pauses, and the synchronized release flood is the overload
// impulse that engages the ladder — a disconnect, corrupt frames, and
// a calm pad. Pauses are stream-denominated so the pass covers the
// same stream ground at any speed.
func fullSchedule(p Profile, stallWall time.Duration, proxies []*chaos.Proxy) []chaos.Step {
	return []chaos.Step{
		{After: p.wall(60 * time.Second), Act: func(px *chaos.Proxy) { px.SetLatency(p.wall(500 * time.Millisecond)) }},
		{After: p.wall(30 * time.Second), Act: func(px *chaos.Proxy) { px.SetLatency(0) }},
		{After: p.wall(30 * time.Second), Act: func(*chaos.Proxy) {
			for _, px := range proxies {
				px.StallFor(stallWall)
			}
		}},
		{After: p.wall(60 * time.Second), Act: func(px *chaos.Proxy) { px.Disconnect() }},
		{After: p.wall(30 * time.Second), Act: func(px *chaos.Proxy) { px.CorruptNext(256) }},
		{After: p.wall(60 * time.Second)},
	}
}

// lightSchedule is the phase-shifted pass for the remaining readers:
// a disconnect and a half-size stall per pass.
func lightSchedule(p Profile, stallWall time.Duration) []chaos.Step {
	return []chaos.Step{
		{After: p.wall(150 * time.Second), Act: func(px *chaos.Proxy) { px.Disconnect() }},
		{After: p.wall(90 * time.Second), Act: func(px *chaos.Proxy) { px.StallFor(stallWall / 2) }},
		{After: p.wall(120 * time.Second)},
	}
}

// heapInUse returns the post-GC live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// sleepUntil sleeps to the deadline unless ctx ends first.
func sleepUntil(ctx context.Context, deadline time.Time) {
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// pacedSource replays a recorded trace against a shared wall-clock
// origin at speed× realtime. The emit cursor is shared across
// (re)connections, so a reconnecting session resumes where the stream
// left off; reports up to slack late are still emitted — the retained
// backlog a buffering reader replays after a stall, and the burst the
// soak's overload assertions rely on — while anything older is lost,
// as a live reader's reads would be.
type pacedSource struct {
	reports []reader.TagReport
	speed   float64
	start   time.Time
	slack   time.Duration
	next    atomic.Int64
}

func (p *pacedSource) exhausted() bool {
	return p.next.Load() >= int64(len(p.reports))
}

func (p *pacedSource) stream(ctx context.Context, emit func(reader.TagReport) error) error {
	for {
		i := p.next.Add(1) - 1
		if i >= int64(len(p.reports)) {
			return nil
		}
		r := p.reports[i]
		due := p.start.Add(time.Duration(float64(r.Timestamp) / p.speed))
		d := time.Until(due)
		if d < -p.slack {
			continue // fell due during an outage longer than the retention buffer; lost
		}
		if d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		if err := emit(r); err != nil {
			return err
		}
	}
}
