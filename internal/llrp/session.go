package llrp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// SessionState is a Session's lifecycle position. The zero value is
// SessionConnecting — a session is born trying.
type SessionState int32

const (
	// SessionConnecting: a connection attempt (dial + handshake +
	// ROSpec provisioning) is in flight.
	SessionConnecting SessionState = iota
	// SessionUp: the link is healthy and reports flow.
	SessionUp
	// SessionBackoff: the link was lost (or an attempt failed) and the
	// session is waiting out the backoff before retrying.
	SessionBackoff
	// SessionClosed: Close was called, the start context ended, or
	// MaxAttempts consecutive failures exhausted the retry budget. The
	// Reports channel is closed; the state is terminal.
	SessionClosed
)

// String implements fmt.Stringer for logs and health checks.
func (s SessionState) String() string {
	switch s {
	case SessionConnecting:
		return "connecting"
	case SessionUp:
		return "up"
	case SessionBackoff:
		return "backoff"
	case SessionClosed:
		return "closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int32(s))
	}
}

// ReportsOverload selects what the session does with a decoded report
// when the stable Reports channel is full — the session-edge mirror of
// the monitor's shard-queue OverloadPolicy.
type ReportsOverload int

const (
	// ReportsBlock (the default) applies backpressure: the connection's
	// decode goroutine waits for the consumer, so no report is ever lost
	// and the TCP window eventually throttles the reader. One stalled
	// consumer stalls this session's stream (and only this session's).
	ReportsBlock ReportsOverload = iota
	// ReportsDropOldest sheds load by age: when the channel is full the
	// session evicts the oldest buffered report (counting it in
	// SessionMetrics.ReportsShed) to make room for the newest. Breathing
	// is heavily oversampled relative to the 0.67 Hz band, so shedding
	// the stalest samples degrades SNR, not correctness — and keeps the
	// freshest phase readings flowing, which is what a recovering
	// consumer wants.
	ReportsDropOldest
)

// SessionConfig assembles a managed reader session.
type SessionConfig struct {
	// Addr is the LLRP endpoint (required).
	Addr string
	// ReaderID names this reader in the fleet: every report delivered on
	// Reports carries it (reader.TagReport.ReaderID), so downstream
	// stages can tell overlapping readers apart. Empty leaves reports
	// unnamed — the single-reader legacy path.
	ReaderID string
	// Overload selects the policy when the Reports channel is full:
	// ReportsBlock (default, lossless backpressure) or
	// ReportsDropOldest (evict the stalest buffered report, count it).
	Overload ReportsOverload
	// Deliver, when set, receives every report in place of the Reports
	// channel, which then stays nil (and Overload and ReportBuffer go
	// unused). It runs on the connection's decode goroutine, one report
	// at a time and in stream order, and must not block: a fleet hangs
	// its never-blocking merge here.
	Deliver func(r reader.TagReport)
	// ROSpec is provisioned (add → enable → start) after every
	// connect, so the report stream resumes without operator action.
	// ROSpecID 0 is replaced with 1.
	ROSpec ROSpecConfig
	// DialTimeout bounds one connection attempt, dial through
	// provisioning; default 10 s.
	DialTimeout time.Duration
	// BackoffMin and BackoffMax bound the exponential reconnect
	// backoff; defaults 100 ms and 30 s. The n-th consecutive failure
	// waits min·2^(n-1), capped at max, ±Jitter.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Jitter is the fractional randomization of each backoff delay
	// (0.2 = ±20%), decorrelating reconnect stampedes when many hosts
	// lose one reader. Default 0.2; negative disables.
	Jitter float64
	// MaxAttempts ends the session (SessionClosed) after this many
	// consecutive failed connection attempts; 0 retries forever. A
	// successful connect resets the count.
	MaxAttempts int
	// Watchdog declares the link dead when no inbound message —
	// keepalive, report, or response — arrives within this deadline,
	// forcing a reconnect. It should comfortably exceed the reader's
	// keepalive period. Zero disables.
	Watchdog time.Duration
	// ReportBuffer sizes the stable Reports channel; default 1024.
	ReportBuffer int
	// ClientMetrics instruments the underlying protocol client(s);
	// shared across reconnects. Nil builds private instruments.
	ClientMetrics *ClientMetrics
	// Metrics receives the session's instrumentation (see
	// NewSessionMetrics). Nil builds private, unexposed instruments.
	Metrics *SessionMetrics
	// Tracer samples end-to-end pipeline traces across reconnects: each
	// client stamps obs.StageRead at frame decode and the session stamps
	// obs.StageForward once the report is on Reports (or handed to
	// Deliver), both on the decode goroutine. Nil traces nothing.
	Tracer *obs.Tracer
	// Logf receives lifecycle logs; nil silences them.
	Logf func(format string, args ...any)

	// backoffSeed seeds the jitter source in tests (0: time-seeded).
	backoffSeed int64
}

func (c *SessionConfig) fillDefaults() {
	if c.ROSpec.ROSpecID == 0 {
		c.ROSpec.ROSpecID = 1
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = 30 * time.Second
		if c.BackoffMax < c.BackoffMin {
			c.BackoffMax = c.BackoffMin
		}
	}
	if fmath.ExactZero(c.Jitter) {
		c.Jitter = 0.2
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.ReportBuffer <= 0 {
		c.ReportBuffer = 1024
	}
	if c.ClientMetrics == nil {
		c.ClientMetrics = NewClientMetrics(nil)
	}
	if c.Metrics == nil {
		c.Metrics = NewSessionMetrics(nil)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Session is a managed, self-healing LLRP connection: it dials the
// reader, provisions and starts the configured ROSpec, and surfaces the
// tag report stream on one stable channel. When the link dies — reader
// reboot, flaky network, stalled TCP session caught by the keepalive
// watchdog — the session reconnects with exponential backoff + jitter
// and re-provisions the ROSpec, and the same Reports channel resumes
// delivering; consumers (a Monitor feeding loop, typically) never
// re-wire. Breathing estimation tolerates the data gap: the pipeline's
// Eq. 3 differencer drops cross-gap phase pairs, so per-user state
// survives an outage and rate estimates resume instead of resetting.
//
// The report stream across reconnects is as ordered as the reader's
// clock: commodity readers timestamp reports from a clock that keeps
// running while the host is away, which is exactly what the
// timestamp-ordered pipeline needs.
//
// Each live connection runs two goroutines: the client's decode loop,
// which delivers every report straight onto Reports (or to
// SessionConfig.Deliver) under the overload policy, and the session's
// supervisor, which waits the link out and runs the watchdog.
//
// Close (or cancelling the start context) ends the session and closes
// Reports once in-flight goroutines unwind; the session owns no
// goroutine past Close (project style: no fire-and-forget goroutines).
type Session struct {
	cfg SessionConfig

	reports chan reader.TagReport
	cancel  context.CancelCauseFunc
	wg      sync.WaitGroup

	state atomic.Int32

	mu      sync.Mutex
	client  *Client // live client while SessionUp, else nil
	lastErr error

	closeOnce sync.Once
}

// errSessionClosed marks a deliberate local Close, distinguishing it
// from transport causes in Err.
var errSessionClosed = errors.New("llrp: session closed")

// StartSession starts a managed session and begins connecting
// immediately. It never blocks waiting for the first connect — a
// reader that is down at start is the same routine condition as one
// that reboots later. ctx cancellation is equivalent to Close.
func StartSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("llrp: SessionConfig.Addr is required")
	}
	cfg.fillDefaults()
	sctx, cancel := context.WithCancelCause(ctx)
	s := &Session{cfg: cfg, cancel: cancel}
	if cfg.Deliver == nil {
		s.reports = make(chan reader.TagReport, cfg.ReportBuffer)
	}
	s.setState(SessionConnecting)
	s.wg.Add(1)
	go s.run(sctx)
	return s, nil
}

// Reports returns the stable report stream. The channel survives
// reconnects; it closes only when the session ends (Close, context
// cancellation, or MaxAttempts exhausted). It is nil when
// SessionConfig.Deliver receives the reports instead.
func (s *Session) Reports() <-chan reader.TagReport {
	return s.reports
}

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState {
	return SessionState(s.state.Load())
}

// Err returns the most recent connection error (nil while the link is
// healthy or before anything failed). After Close it reports the error
// that was current when the session ended, or nil for a clean close.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Reconnects returns how many times the session has re-established a
// lost link (a thin reader over the reconnects counter).
func (s *Session) Reconnects() uint64 {
	return s.cfg.Metrics.Reconnects.Value()
}

// Healthy returns nil while the link is up, and otherwise an error
// naming the state and the most recent cause — the shape
// obs.DebugServer.AddHealthCheck wants.
func (s *Session) Healthy() error {
	st := s.State()
	if st == SessionUp {
		return nil
	}
	if err := s.Err(); err != nil {
		return fmt.Errorf("llrp: session %s: %w", st, err)
	}
	return fmt.Errorf("llrp: session %s", st)
}

// WaitUp blocks until the session reaches SessionUp, ctx ends, or the
// session closes. It exists for startup sequencing and tests; steady-
// state consumers should just read Reports.
func (s *Session) WaitUp(ctx context.Context) error {
	for {
		switch s.State() {
		case SessionUp:
			return nil
		case SessionClosed:
			if err := s.Err(); err != nil {
				return err
			}
			return errSessionClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close ends the session: it cancels any in-flight connect or backoff,
// tears down the live connection, waits for every session goroutine to
// exit, and closes Reports. Idempotent and safe to call concurrently.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.cancel(errSessionClosed)
		s.mu.Lock()
		c := s.client
		s.mu.Unlock()
		if c != nil {
			c.Close() // end the live link promptly
		}
	})
	s.wg.Wait()
	return nil
}

func (s *Session) setState(st SessionState) {
	s.state.Store(int32(st))
	s.cfg.Metrics.State.Set(float64(st))
}

func (s *Session) noteErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// run is the session's state machine: connect → up (supervise the
// link while its decode goroutine delivers) → backoff → connect …,
// until the context ends or the attempt budget runs out.
func (s *Session) run(ctx context.Context) {
	defer s.wg.Done()
	defer func() {
		if s.reports != nil {
			close(s.reports)
		}
	}()
	defer s.setState(SessionClosed)

	jitterSeed := s.cfg.backoffSeed
	if jitterSeed == 0 {
		jitterSeed = time.Now().UnixNano()
	}
	// Only this goroutine touches the jitter source.
	jitter := rand.New(rand.NewSource(jitterSeed))

	attempts := 0           // consecutive failures since the last healthy link
	everUp := false         // a reconnect is only counted after a first connect
	var downSince time.Time // when the report stream was last declared dead

	for {
		if ctx.Err() != nil {
			return
		}
		s.setState(SessionConnecting)
		client, stop, err := s.connect(ctx)
		if err != nil {
			attempts++
			s.noteErr(err)
			s.cfg.Logf("llrp: session connect %s: %v (attempt %d)", s.cfg.Addr, err, attempts)
			if s.cfg.MaxAttempts > 0 && attempts >= s.cfg.MaxAttempts {
				s.cfg.Logf("llrp: session giving up after %d attempts", attempts)
				return
			}
			s.setState(SessionBackoff)
			if !sleepCtx(ctx, backoffDelay(s.cfg, attempts, jitter)) {
				return
			}
			continue
		}

		attempts = 0
		s.noteErr(nil)
		s.mu.Lock()
		s.client = client
		s.mu.Unlock()
		s.setState(SessionUp)
		if everUp {
			s.cfg.Metrics.Reconnects.Inc()
			if !downSince.IsZero() {
				s.cfg.Metrics.OutageSeconds.Observe(time.Since(downSince).Seconds())
			}
			s.cfg.Logf("llrp: session reconnected to %s (outage %v)", s.cfg.Addr, time.Since(downSince).Round(time.Millisecond))
		} else {
			everUp = true
			s.cfg.Logf("llrp: session up to %s", s.cfg.Addr)
		}

		s.supervise(ctx, client)

		s.mu.Lock()
		s.client = nil
		s.mu.Unlock()
		// The decode goroutine may be parked in a ReportsBlock send to a
		// stalled consumer; end its delivery before Close waits for it.
		stop()
		client.Close()
		if ctx.Err() != nil {
			return
		}
		downSince = time.Now()
		err = client.Err()
		if err == nil {
			err = errors.New("llrp: connection closed by peer")
		}
		s.noteErr(err)
		s.cfg.Logf("llrp: session link lost: %v", err)
		s.setState(SessionBackoff)
		if !sleepCtx(ctx, backoffDelay(s.cfg, 1, jitter)) {
			return
		}
	}
}

// connect performs one full attempt: dial + handshake, then reader
// configuration and the ROSpec lifecycle, all bounded by DialTimeout.
// The client's decode goroutine delivers reports from the first frame
// on; stop ends that delivery (a send parked on a full channel
// returns) and must run before the client is closed.
func (s *Session) connect(ctx context.Context) (*Client, context.CancelFunc, error) {
	lctx, stop := context.WithCancel(ctx)
	actx, cancel := context.WithTimeout(ctx, s.cfg.DialTimeout)
	defer cancel()
	client, err := dialClient(actx, s.cfg.Addr, s.cfg.ClientMetrics, s.cfg.Tracer,
		func(r reader.TagReport) bool { return s.deliver(lctx, r) })
	if err != nil {
		stop()
		s.cfg.Metrics.ConnectFailures.With("dial").Inc()
		return nil, nil, err
	}
	if err := s.provision(client); err != nil {
		stop()
		s.cfg.Metrics.ConnectFailures.With("provision").Inc()
		client.Close()
		return nil, nil, err
	}
	return client, stop, nil
}

// provision re-applies reader configuration and the full ROSpec
// lifecycle on a fresh connection. Readers lose per-connection ROSpec
// state on reboot, so every reconnect starts from scratch.
func (s *Session) provision(c *Client) error {
	if err := c.SetReaderConfig(); err != nil {
		return fmt.Errorf("set reader config: %w", err)
	}
	if err := c.AddROSpec(s.cfg.ROSpec); err != nil {
		return fmt.Errorf("add rospec: %w", err)
	}
	if err := c.EnableROSpec(s.cfg.ROSpec.ROSpecID); err != nil {
		return fmt.Errorf("enable rospec: %w", err)
	}
	if err := c.StartROSpec(s.cfg.ROSpec.ROSpecID); err != nil {
		return fmt.Errorf("start rospec: %w", err)
	}
	return nil
}

// supervise waits out one live connection: it returns when the link
// dies, ctx ends, or the watchdog (if configured) finds the link silent
// past its deadline. Polling at a quarter of the deadline bounds
// detection latency to 1.25× Watchdog.
func (s *Session) supervise(ctx context.Context, client *Client) {
	var poll <-chan time.Time
	if s.cfg.Watchdog > 0 {
		period := s.cfg.Watchdog / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		poll = t.C
	}
	for {
		select {
		case <-client.done:
			return
		case <-ctx.Done():
			return
		case <-poll:
			if silent := time.Since(client.LastActivity()); silent > s.cfg.Watchdog {
				s.cfg.Metrics.WatchdogTrips.Inc()
				s.cfg.Logf("llrp: session watchdog: link silent for %v (deadline %v)", silent.Round(time.Millisecond), s.cfg.Watchdog)
				return
			}
		}
	}
}

// deliver hands one decoded report on: stamped with the reader's name,
// to the Deliver hook when one is set, else onto the stable channel
// under the overload policy. It runs on the connection's decode
// goroutine; false means ctx (the connection's delivery context) ended
// while the report waited for room.
//
//tagbreathe:hotpath runs once per tag read on the connection's decode goroutine
func (s *Session) deliver(ctx context.Context, r reader.TagReport) bool {
	r.ReaderID = s.cfg.ReaderID
	if s.cfg.Deliver != nil {
		s.cfg.Tracer.Stamp(r.TraceID, obs.StageForward)
		s.cfg.Deliver(r)
		return true
	}
	select {
	case s.reports <- r:
	default:
		if !s.sendFull(ctx, r) {
			return false
		}
	}
	s.cfg.Tracer.Stamp(r.TraceID, obs.StageForward)
	depth := float64(len(s.reports))
	s.cfg.Metrics.ReportsBuffer.Set(depth)
	s.cfg.Metrics.ReportsBufferHighWater.SetMax(depth)
	return true
}

// sendFull is deliver's slow path, taken only when the stable channel
// was full: wait for room (ReportsBlock) until ctx ends, or evict the
// oldest buffered report (ReportsDropOldest). Each drop-oldest round
// either sends or evicts, so progress is bounded even against a racing
// consumer.
func (s *Session) sendFull(ctx context.Context, r reader.TagReport) bool {
	if s.cfg.Overload == ReportsBlock {
		select {
		case s.reports <- r:
			return true
		case <-ctx.Done():
			return false
		}
	}
	for {
		select {
		case s.reports <- r:
			return true
		default:
		}
		select {
		case old := <-s.reports:
			s.cfg.Tracer.Abort(old.TraceID)
			s.cfg.Metrics.ReportsShed.Inc()
		default:
		}
	}
}

// backoffDelay is the n-th consecutive failure's wait:
// min·2^(n-1) capped at max, then ±Jitter fractional randomization.
func backoffDelay(cfg SessionConfig, attempt int, jitter *rand.Rand) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := cfg.BackoffMin
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cfg.BackoffMax {
			d = cfg.BackoffMax
			break
		}
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	if cfg.Jitter > 0 {
		f := 1 + cfg.Jitter*(2*jitter.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// sleepCtx waits d or until ctx ends; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
