package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tagbreathe/internal/llrp"
)

// The load generator runs as its own process (the benchmark binary
// re-executed with "gen" as its first argument), so its encode CPU and
// heap are never charged to the system under test. It builds each
// reader's corpus from the seed during set-up, then serves one LLRP
// listener per reader: it answers the ROSpec provisioning a session
// sends and streams the pre-encoded frames over loopback TCP.
//
// Protocol with the parent, one JSON object per line on stdout:
//
//	{"ev":"ready","addrs":[...],"scheds":[...]}   once, after set-up
//	{"ev":"start","reader":i,"conn":n,"wall0":ns} a stream began
//	{"ev":"done","reader":i,"conn":n,...}         a stream ended
//
// and one command per line on stdin: "stop" ends every running
// closed-loop stream at the next write boundary; end of input exits.

// genEvent is one generator → parent message.
type genEvent struct {
	Ev    string   `json:"ev"`
	Addrs []string `json:"addrs,omitempty"`
	// Scheds is each reader's frame schedule (paced workloads only).
	Scheds []schedule `json:"scheds,omitempty"`
	Reader int        `json:"reader"`
	Conn   int        `json:"conn"`
	// Wall0 is the stream's schedule epoch (UnixNano): flush t of a
	// paced stream is due at Wall0 + t·flushEvery.
	Wall0 int64 `json:"wall0,omitempty"`
	// Sent counts the tag reports the stream wrote.
	Sent int64 `json:"sent"`
	// LateP99Ns is the 99th percentile of how far past its due time
	// each paced flush began.
	LateP99Ns int64 `json:"late_p99_ns"`
	// CPUNs is the generator process's user+system CPU at the event.
	CPUNs int64 `json:"cpu_ns"`
	// Err is why a stream ended early, if it did.
	Err string `json:"err,omitempty"`
}

// chunkBytes bounds one closed-loop write: whole frames up to this
// size go out in one syscall.
const chunkBytes = 64 << 10

func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "corpus seed")
	users := fs.Int("users", 0, "override the workload's user count")
	speed := fs.Float64("speed", 0, "override the workload's paced speed")
	seconds := fs.Float64("seconds", 0, "paced schedule length in wall seconds")
	probes := fs.Int("probes", 0, "how many connections per reader, counted from the first, are set-up probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *users > 0 {
		w.users = *users
	}
	if *speed > 0 {
		w.speed = *speed
	}
	g := &generator{
		w:       w,
		out:     json.NewEncoder(os.Stdout),
		schedUs: int64(*seconds * w.speed * 1e6),
		probes:  *probes,
		epochs:  make(map[int]time.Time),
	}
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for ri := range w.readers {
		c, err := buildCorpus(w.synthConfig(ri, *seed), loopSec)
		if err != nil {
			return err
		}
		g.corpora = append(g.corpora, c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("ledgerbench gen: listen: %w", err)
		}
		lns = append(lns, ln)
	}
	addrs := make([]string, len(lns))
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	ready := genEvent{Ev: "ready", Addrs: addrs}
	if w.paced {
		for _, c := range g.corpora {
			ready.Scheds = append(ready.Scheds, c.schedule)
		}
	}
	g.emit(ready)

	var wg sync.WaitGroup
	for ri, ln := range lns {
		wg.Add(1)
		go func(ri int, ln net.Listener) {
			defer wg.Done()
			g.acceptLoop(ri, ln)
		}(ri, ln)
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() == "stop" {
			g.stop.Store(true)
		}
	}
	// End of input: the parent is finished with us.
	g.stop.Store(true)
	for _, ln := range lns {
		ln.Close()
	}
	wg.Wait()
	return nil
}

type generator struct {
	w       workload
	corpora []*corpus
	// schedUs is the paced schedule length in stream µs.
	schedUs int64
	// probes is how many connections per reader, from the first, are
	// set-up probes.
	probes int
	// stop ends closed-loop streams; set by the parent's "stop" and
	// cleared when a new stream starts.
	stop atomic.Bool

	epochMu sync.Mutex
	epochs  map[int]time.Time

	outMu sync.Mutex
	out   *json.Encoder
}

func (g *generator) emit(ev genEvent) {
	ev.CPUNs = processCPU().Nanoseconds()
	g.outMu.Lock()
	defer g.outMu.Unlock()
	_ = g.out.Encode(ev) // the parent reading stdout is gone only when it is done with us
}

// acceptLoop serves one reader's connections one at a time: a
// listener's corpus is rewritten in place as passes advance, so two
// streams must never share it.
func (g *generator) acceptLoop(ri int, ln net.Listener) {
	for n := 0; ; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		g.serve(ri, n, conn)
	}
}

// serve answers one connection's LLRP exchange and, once its ROSpec
// starts, streams the corpus until the schedule ends, "stop" arrives
// or the peer goes away.
func (g *generator) serve(ri, n int, conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex
	write := func(m llrp.Message) error {
		wmu.Lock()
		defer wmu.Unlock()
		return llrp.WriteMessage(conn, m)
	}
	respond := func(req llrp.Message, t llrp.MessageType, code llrp.StatusCode, desc string) error {
		return write(llrp.Message{Type: t, ID: req.ID, Payload: llrp.EncodeStatus(code, desc)})
	}
	if err := write(llrp.Message{Type: llrp.MsgReaderEventNotification, Payload: llrp.EncodeStatus(llrp.StatusSuccess, "connection accepted")}); err != nil {
		return
	}
	var (
		streamWG sync.WaitGroup
		quit     = make(chan struct{})
		started  bool
	)
	defer func() {
		close(quit)
		streamWG.Wait()
		if !started {
			g.emit(genEvent{Ev: "done", Reader: ri, Conn: n})
		}
	}()
	for {
		m, err := llrp.ReadMessage(conn)
		if err != nil {
			return
		}
		switch m.Type {
		case llrp.MsgSetReaderConfig:
			err = respond(m, llrp.MsgSetReaderConfigResponse, llrp.StatusSuccess, "")
		case llrp.MsgAddROSpec:
			spec, derr := llrp.DecodeROSpec(m.Payload)
			switch {
			case derr != nil:
				err = respond(m, llrp.MsgAddROSpecResponse, llrp.StatusParameterError, derr.Error())
			case int(spec.ReportEveryN) != batch:
				err = respond(m, llrp.MsgAddROSpecResponse, llrp.StatusFieldError,
					fmt.Sprintf("corpus is encoded %d reports per frame", batch))
			default:
				err = respond(m, llrp.MsgAddROSpecResponse, llrp.StatusSuccess, "")
			}
		case llrp.MsgEnableROSpec:
			err = respond(m, llrp.MsgEnableROSpecResponse, llrp.StatusSuccess, "")
		case llrp.MsgStartROSpec:
			if started {
				err = respond(m, llrp.MsgStartROSpecResponse, llrp.StatusFieldError, "ROSpec already running")
				break
			}
			if err = respond(m, llrp.MsgStartROSpecResponse, llrp.StatusSuccess, ""); err != nil {
				break
			}
			started = true
			g.stop.Store(false)
			streamWG.Add(1)
			go func() {
				defer streamWG.Done()
				g.emit(g.stream(ri, n, conn, &wmu, quit))
			}()
		case llrp.MsgCloseConnection:
			_ = respond(m, llrp.MsgCloseConnectionResponse, llrp.StatusSuccess, "")
			return
		}
		if err != nil {
			return
		}
	}
}

// stream writes the corpus to conn, looping it with advancing
// timestamps, and returns the "done" event that describes it. A set-up
// probe gets the first frame at once and nothing more; a closed loop
// writes as fast as the peer reads until "stop"; a paced stream sends,
// every flushEvery from its epoch, each frame completed since the
// previous flush, until the schedule ends.
func (g *generator) stream(ri, n int, conn net.Conn, wmu *sync.Mutex, quit <-chan struct{}) genEvent {
	epoch := g.epoch(n)
	g.emit(genEvent{Ev: "start", Reader: ri, Conn: n, Wall0: epoch.UnixNano()})
	done := genEvent{Ev: "done", Reader: ri, Conn: n}
	k := cursor{c: g.corpora[ri]}
	send := func(limitUs int64, maxBytes int) (bool, error) {
		b, reports := k.next(limitUs, maxBytes)
		if b == nil {
			return false, nil
		}
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := conn.Write(b); err != nil {
			return false, err
		}
		done.Sent += int64(reports)
		return true, nil
	}
	if n < g.probes {
		// A probe times the set-up up to the first report. Behind that
		// report a closed loop would flood the session with a 64 KB
		// burst to decode, and a paced one would hold it for the first
		// flush; either spreads the set-up with work that is load.
		if _, err := send(math.MaxInt64, 0); err != nil {
			done.Err = err.Error()
			return done
		}
		<-quit
		return done
	}
	var late []float64
	for t := int64(0); ; t++ {
		select {
		case <-quit:
			done.Err = "connection closed"
			return done
		default:
		}
		limit := int64(math.MaxInt64)
		if g.w.paced {
			limit = min(flushLimitUs(t, g.w.speed), g.schedUs)
			at := epoch.Add(time.Duration(t) * flushEvery)
			sleepUntil(at)
			late = append(late, float64(time.Since(at)))
		} else if g.stop.Load() {
			return done
		}
		for {
			more, err := send(limit, chunkBytes)
			if err != nil {
				done.Err = err.Error()
				return done
			}
			if !more || !g.w.paced {
				break
			}
		}
		if g.w.paced && limit == g.schedUs {
			sort.Float64s(late)
			done.LateP99Ns = int64(quantile(late, 0.99))
			return done
		}
	}
}

// sleepUntil blocks until at in nanosleep(2): time.Sleep wakes through
// the runtime's timer, measured here to overshoot by half a millisecond
// at the median, which would swamp a 1 ms flush schedule.
func sleepUntil(at time.Time) {
	if d := time.Until(at); d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR only cuts the sleep short; the lateness sample still counts from at
	}
}

// epoch returns the schedule zero of connection generation n: every
// reader's n-th stream shares it, so the readers flush in step.
func (g *generator) epoch(n int) time.Time {
	g.epochMu.Lock()
	defer g.epochMu.Unlock()
	e, ok := g.epochs[n]
	if !ok {
		e = time.Now()
		g.epochs[n] = e
	}
	return e
}

// cursor walks a corpus pass by pass.
type cursor struct {
	c    *corpus
	pass int64
	i    int
}

// next returns the run of frames from the cursor whose last report is
// at or before limitUs, up to maxBytes (at least one frame) and within
// one pass, stamped for that pass, with their report count; nil when
// the next frame completes after limitUs.
func (k *cursor) next(limitUs int64, maxBytes int) ([]byte, int) {
	c := k.c
	off := k.pass * c.SpanUs
	start := 0
	if k.i > 0 {
		start = c.frameEnd[k.i-1]
	}
	j, reports := k.i, 0
	for j < len(c.frameEnd) && off+c.LastUs[j] <= limitUs && (j == k.i || c.frameEnd[j]-start <= maxBytes) {
		c.setOffset(j, off)
		reports += c.frameReports(j)
		j++
	}
	if j == k.i {
		return nil, 0
	}
	b := c.buf[start:c.frameEnd[j-1]]
	k.i = j
	if j == len(c.frameEnd) {
		k.pass, k.i = k.pass+1, 0
	}
	return b, reports
}
