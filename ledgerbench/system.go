package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/fleet"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// traceSample is the obs.Tracer stride of a traced run.
const traceSample = 1023

// ingress is the system's report source: one supervised LLRP session,
// or a fleet of them merged, wired as cmd/tagbreathe -connect wires it.
type ingress struct {
	reports <-chan reader.TagReport
	sess    *llrp.Session
	smet    *llrp.SessionMetrics
	fl      *fleet.Fleet
	fmet    *fleet.Metrics
}

func startIngress(w workload, addrs []string, mon *core.Monitor, tr *obs.Tracer) (*ingress, error) {
	scfg := llrp.SessionConfig{
		ROSpec: llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: batch},
		Tracer: tr,
	}
	if len(w.readers) == 1 && w.readers[0].name == "" {
		scfg.Addr = addrs[0]
		scfg.Metrics = llrp.NewSessionMetrics(nil)
		//tagbreathe:allow ctxflow the benchmark owns the session; Close ends it
		s, err := llrp.StartSession(context.Background(), scfg)
		if err != nil {
			return nil, err
		}
		return &ingress{reports: s.Reports(), sess: s, smet: scfg.Metrics}, nil
	}
	fcfg := fleet.Config{
		Session: scfg,
		Metrics: fleet.NewMetrics(nil),
		// Quality-aware shedding at the merge, as cmd/tagbreathe wires it.
		ShedClass: func(r reader.TagReport) core.ShedClass {
			return mon.VantageClass(r.EPC.UserID(), r.ReaderID, r.AntennaPort)
		},
	}
	for i, r := range w.readers {
		fcfg.Readers = append(fcfg.Readers, fleet.ReaderConfig{Name: r.name, Addr: addrs[i]})
	}
	//tagbreathe:allow ctxflow the benchmark owns the fleet; Close ends it
	f, err := fleet.Start(context.Background(), fcfg)
	if err != nil {
		return nil, err
	}
	return &ingress{reports: f.Reports(), fl: f, fmet: fcfg.Metrics}, nil
}

func (in *ingress) close() error {
	if in.sess != nil {
		return in.sess.Close()
	}
	return in.fl.Close()
}

// shed counts reports the ingress dropped before the monitor.
func (in *ingress) shed() int64 {
	if in.sess != nil {
		return int64(in.smet.ReportsShed.Value())
	}
	var n uint64
	for _, s := range in.fl.Status() {
		n += s.Shed
	}
	return int64(n)
}

func (in *ingress) reconnects() uint64 {
	if in.sess != nil {
		return in.sess.Reconnects()
	}
	var n uint64
	for _, s := range in.fl.Status() {
		n += s.Reconnects
	}
	return n
}

// monitorConfig is the monitor as cmd/tagbreathe builds it for
// -connect, at the benchmark's 1 s update stride; the closed-loop
// workloads leave the degradation ladder off so that every tick runs.
func monitorConfig(w workload, mm *core.MonitorMetrics, tr *obs.Tracer) core.MonitorConfig {
	return core.MonitorConfig{
		Pipeline:    core.Config{Filter: w.filter},
		Window:      window,
		UpdateEvery: updateEvery,
		Metrics:     mm,
		Tracer:      tr,
		Degrade:     core.DegradeConfig{MaxStretch: w.maxStretch},
	}
}

// setupProbe times one set-up: from starting the monitor and the
// ingress until the first report is ingested.
func setupProbe(w workload, gp *genProc) (time.Duration, error) {
	start := time.Now()
	mon := core.NewMonitor(monitorConfig(w, nil, nil))
	defer mon.Stop()
	conns := gp.openConns()
	in, err := startIngress(w, gp.addrs, mon, nil)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	select {
	case r := <-in.reports:
		mon.Ingest(r)
		d = time.Since(start)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("ledgerbench: no report within 30 s of set-up")
	}
	// Every reader must have connected before the teardown: the
	// generator numbers connections per reader, and a reader whose dial
	// the close cancelled would leave its numbering one behind.
	for ri, n := range conns {
		if _, werr := gp.await("start", ri, n, 30*time.Second); err == nil {
			err = werr
		}
	}
	if cerr := in.close(); err == nil {
		err = cerr
	}
	// Wait until the generator has let go of every probe connection,
	// so the next set-up does not queue behind this teardown.
	for ri, n := range conns {
		if _, werr := gp.await("done", ri, n, 30*time.Second); err == nil {
			err = werr
		}
	}
	return d, err
}

// tickRec is one analysis tick as the consumer saw it.
type tickRec struct {
	asOf time.Duration
	// last is when the tick's last update was received.
	last time.Time
	// flush marks the final tick CloseInput forces; it closes on no
	// report, so it has no due time.
	flush bool
}

// consumer is the benchmark's own client of the system: it feeds the
// ingress's reports to Monitor.Ingest and drains Monitor.Updates, and
// in a traced run spans both, as cmd/tagbreathe's feed loop would be.
type consumer struct {
	traced bool
	// mirror marks, on a closed loop, the report that closes each tick
	// (the demux's rule) with its receive time.
	mirror bool

	firstAt   time.Time
	firstOnce chan struct{}

	// Report side (owned by the feed goroutine until it exits).
	recvWait, ingestTime time.Duration
	received             int64

	closeMu   sync.Mutex
	closeRecv map[time.Duration]time.Time

	// Update side (owned by the drain goroutine until it exits).
	closing    atomic.Bool
	last       map[uint64]core.RateUpdate
	first      map[uint64]time.Duration
	ticks      []tickRec
	updates    atomic.Int64
	updateWait time.Duration
}

func newConsumer(traced, mirror bool) *consumer {
	return &consumer{
		traced:    traced,
		mirror:    mirror,
		firstOnce: make(chan struct{}),
		closeRecv: make(map[time.Duration]time.Time),
		last:      make(map[uint64]core.RateUpdate),
		first:     make(map[uint64]time.Duration),
	}
}

func (c *consumer) feed(src <-chan reader.TagReport, mon *core.Monitor) {
	var next time.Duration
	for {
		var r reader.TagReport
		var ok bool
		if c.traced {
			select {
			case r, ok = <-src:
			default:
				t := time.Now()
				r, ok = <-src
				c.recvWait += time.Since(t)
			}
		} else {
			r, ok = <-src
		}
		if !ok {
			return
		}
		if c.received == 0 {
			next = r.Timestamp + window
		}
		if c.mirror && r.Timestamp >= next {
			c.closeMu.Lock()
			c.closeRecv[r.Timestamp] = time.Now()
			c.closeMu.Unlock()
			next += updateEvery
			if next <= r.Timestamp {
				next = r.Timestamp + updateEvery
			}
		}
		if c.traced {
			t := time.Now()
			mon.Ingest(r)
			c.ingestTime += time.Since(t)
		} else {
			mon.Ingest(r)
		}
		if c.received == 0 {
			c.firstAt = time.Now()
			close(c.firstOnce)
		}
		c.received++
	}
}

func (c *consumer) drain(ups <-chan core.RateUpdate) {
	var cur tickRec
	have := false
	for {
		var u core.RateUpdate
		var ok bool
		if c.traced {
			select {
			case u, ok = <-ups:
			default:
				t := time.Now()
				u, ok = <-ups
				c.updateWait += time.Since(t)
			}
		} else {
			u, ok = <-ups
		}
		if !ok {
			break
		}
		now := time.Now()
		if !have || u.Time != cur.asOf {
			if have {
				c.ticks = append(c.ticks, cur)
			}
			cur = tickRec{asOf: u.Time, flush: c.closing.Load()}
			have = true
		}
		cur.last = now
		c.updates.Add(1)
		c.last[u.UserID] = u
		if _, ok := c.first[u.UserID]; !ok {
			c.first[u.UserID] = u.Time
		}
	}
	if have {
		c.ticks = append(c.ticks, cur)
	}
}

// sampleEvery is the window length of the in-run throughput and CPU
// samples.
const sampleEvery = 500 * time.Millisecond

// sample is one reading of the system's progress.
type sample struct {
	at   time.Time
	done uint64 // reports processed or dropped by the monitor
	cpu  time.Duration
}

// loadResult is what one load phase measured.
type loadResult struct {
	offered, processed, dropped, shed int64
	// cpu is the process's user+system CPU from set-up until every
	// offered report is processed or counted dropped.
	cpu time.Duration
	// windowRate and windowCPU are, per sampleEvery window of the load
	// phase, reports processed per second and CPU µs per report.
	windowRate, windowCPU []float64
	heapDelta             int64
	// userTicks counts (user, tick) analyses.
	userTicks  uint64
	cons       *consumer
	wall0      []time.Time
	scheds     []schedule
	genLateP99 time.Duration
	genCPU     time.Duration
	mm         *core.MonitorMetrics
	tracer     *obs.Tracer
	fleetHW    float64
	reconnects uint64
}

// runLoad runs one load phase: set up the system, drive it from the
// generator for seconds (closed loop) or the paced schedule, and wait
// until every offered report is accounted for.
func runLoad(w workload, gp *genProc, traced bool, seconds float64) (*loadResult, error) {
	res := &loadResult{mm: core.NewMonitorMetrics(nil)}
	if traced {
		res.tracer = obs.NewTracer(nil, obs.TracerConfig{SampleEvery: traceSample, RingSize: 4096})
	}
	runtime.GC()
	heap0 := liveHeap()
	cpu0 := processCPU()
	mon := core.NewMonitor(monitorConfig(w, res.mm, res.tracer))
	defer mon.Stop()
	conns := gp.openConns()
	in, err := startIngress(w, gp.addrs, mon, res.tracer)
	if err != nil {
		return nil, err
	}
	cons := newConsumer(traced, !w.paced)
	res.cons = cons
	feedDone, drainDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(feedDone)
		cons.feed(in.reports, mon)
	}()
	go func() {
		defer close(drainDone)
		cons.drain(mon.Updates())
	}()
	fail := func(err error) (*loadResult, error) {
		in.close()
		<-feedDone
		mon.Stop()
		<-drainDone
		return nil, err
	}
	select {
	case <-cons.firstOnce:
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("ledgerbench: no report within 30 s of set-up"))
	}

	var genCPU0, genCPU1 int64
	res.scheds = gp.scheds
	res.wall0 = make([]time.Time, len(conns))
	for ri, n := range conns {
		ev, err := gp.await("start", ri, n, 30*time.Second)
		if err != nil {
			return fail(err)
		}
		res.wall0[ri] = time.Unix(0, ev.Wall0)
		if genCPU0 == 0 || ev.CPUNs < genCPU0 {
			genCPU0 = ev.CPUNs
		}
	}
	// Sample throughput and CPU in windows across the load phase; the
	// window medians are the run's figures, so a transient stall of
	// the machine moves one window, not the run.
	end := cons.firstAt.Add(time.Duration(seconds * float64(time.Second)))
	prev := sample{at: time.Now(), done: res.mm.Processed.Value() + res.mm.Dropped.Value(), cpu: processCPU()}
	for time.Now().Before(end) {
		time.Sleep(min(sampleEvery, time.Until(end)))
		cur := sample{at: time.Now(), done: res.mm.Processed.Value() + res.mm.Dropped.Value(), cpu: processCPU()}
		if n := cur.done - prev.done; n > 0 {
			res.windowRate = append(res.windowRate, float64(n)/cur.at.Sub(prev.at).Seconds())
			res.windowCPU = append(res.windowCPU, (cur.cpu-prev.cpu).Seconds()*1e6/float64(n))
		}
		prev = cur
	}
	if !w.paced {
		if err := gp.stop(); err != nil {
			return fail(err)
		}
	}
	for ri, n := range conns {
		ev, err := gp.await("done", ri, n, time.Duration(seconds*float64(time.Second))+60*time.Second)
		if err != nil {
			return fail(err)
		}
		if ev.Err != "" {
			return fail(fmt.Errorf("ledgerbench: generator stream %d ended early: %s", ri, ev.Err))
		}
		res.offered += ev.Sent
		res.genLateP99 = max(res.genLateP99, time.Duration(ev.LateP99Ns))
		genCPU1 = max(genCPU1, ev.CPUNs)
	}
	res.genCPU = time.Duration(genCPU1 - genCPU0)

	// Settle: every offered report processed or counted dropped, every
	// broadcast tick emitted, and every emitted update drained.
	deadline := time.Now().Add(120 * time.Second)
	for {
		res.processed = int64(res.mm.Processed.Value())
		res.dropped = int64(res.mm.Dropped.Value())
		res.shed = in.shed()
		if res.processed+res.dropped+res.shed >= res.offered &&
			res.mm.TickLatency.Count() == res.mm.Ticks.Value() &&
			uint64(cons.updates.Load()) == res.mm.Updates.Value() {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("ledgerbench: %d reports offered, only %d processed + %d dropped + %d shed after 120 s",
				res.offered, res.processed, res.dropped, res.shed))
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.cpu = processCPU() - cpu0
	runtime.GC()
	res.heapDelta = liveHeap() - heap0
	res.userTicks = res.mm.ShardTickSeconds.Count()
	res.reconnects = in.reconnects()
	if in.fmet != nil {
		res.fleetHW = in.fmet.MergedQueueHighWater.Value()
	}

	cerr := in.close()
	<-feedDone
	// Everything from here on belongs to the tick CloseInput forces.
	cons.closing.Store(true)
	mon.CloseInput()
	<-drainDone
	return res, cerr
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
