package llrp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/reader"
)

// ReportSource produces the tag report stream a Server sends once a
// client starts an ROSpec. Stream must emit reports in timestamp order
// and return when ctx is cancelled or the stream is exhausted; emit
// returns an error when the connection has gone away, which Stream
// should propagate.
type ReportSource interface {
	Stream(ctx context.Context, emit func(reader.TagReport) error) error
}

// ReportSourceFunc adapts a function to the ReportSource interface.
type ReportSourceFunc func(ctx context.Context, emit func(reader.TagReport) error) error

// Stream implements ReportSource.
func (f ReportSourceFunc) Stream(ctx context.Context, emit func(reader.TagReport) error) error {
	return f(ctx, emit)
}

// ServerConfig assembles an LLRP server (the reader side).
type ServerConfig struct {
	// NewSource builds a fresh report source per started ROSpec.
	NewSource func() ReportSource
	// KeepaliveEvery is the keepalive period; zero disables keepalives.
	KeepaliveEvery time.Duration
	// Logf receives connection lifecycle logs; nil silences them.
	Logf func(format string, args ...any)
	// Metrics receives the server's instrumentation (see
	// NewServerMetrics). Nil builds private, unexposed instruments.
	Metrics *ServerMetrics
}

const (
	// defaultBatch is the number of tag reports per RO_ACCESS_REPORT
	// when the ROSpec does not specify one.
	defaultBatch = 16
	// sendQueue bounds each connection's outbound message queue.
	// Report streams, keepalives, and responses all fan in to a single
	// writer goroutine per connection through this queue, so a full
	// queue applies backpressure to the report sources rather than
	// dropping protocol messages.
	sendQueue = 64
)

// Server accepts LLRP connections and serves the ROSpec lifecycle and
// report streaming to each, emulating the reader end of the protocol.
type Server struct {
	cfg ServerConfig

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server. NewSource is required.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.NewSource == nil {
		return nil, fmt.Errorf("llrp: ServerConfig.NewSource is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewServerMetrics(nil)
	}
	return &Server{cfg: cfg}, nil
}

// Serve accepts connections on ln until Close. It returns the accept
// error that terminated it (net.ErrClosed after a clean Close).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.wg.Wait()
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// serverConn fans all outbound traffic — responses, report batches,
// keepalives — from their producing goroutines into one bounded queue
// drained by a single writer goroutine, the same single-writer model
// the core pipeline's shards use. Producers never hold a lock across a
// socket write; a full queue applies backpressure to them instead.
type serverConn struct {
	net.Conn
	out chan Message
	// ctx is the connection's lifetime; send unblocks when it ends so
	// producers cannot deadlock on a dead connection's full queue.
	ctx context.Context
	// cancel tears the connection down on the first write error.
	cancel context.CancelFunc
	// writeErr holds the first write error (type error).
	writeErr atomic.Value
	writerWG sync.WaitGroup
	metrics  *ServerMetrics
}

func newServerConn(raw net.Conn, metrics *ServerMetrics) *serverConn {
	//tagbreathe:allow ctxflow per-connection root; cancel is stored on the conn and fired on close or first write error
	ctx, cancel := context.WithCancel(context.Background())
	c := &serverConn{
		Conn:    raw,
		out:     make(chan Message, sendQueue),
		ctx:     ctx,
		cancel:  cancel,
		metrics: metrics,
	}
	c.writerWG.Add(1)
	go c.writeLoop()
	return c
}

// writeLoop is the connection's single writer: it drains the outbound
// queue in FIFO order (so responses keep their request order) and, on
// the first write error, cancels the connection and keeps draining so
// producers never block on a dead peer.
func (c *serverConn) writeLoop() {
	defer c.writerWG.Done()
	for m := range c.out {
		if c.writeErr.Load() != nil {
			continue
		}
		if err := WriteMessage(c.Conn, m); err != nil {
			c.metrics.Errors.With("write").Inc()
			c.writeErr.Store(err)
			c.cancel()
			continue
		}
		c.metrics.MessagesOut.With(m.Type.String()).Inc()
	}
}

// send enqueues one message for the writer. It returns the first write
// error once the connection has failed, and context.Canceled when the
// connection is shutting down before the message could be queued.
func (c *serverConn) send(m Message) error {
	if err, ok := c.writeErr.Load().(error); ok {
		return err
	}
	select {
	case c.out <- m:
		c.metrics.SendQueueHighWater.SetMax(float64(len(c.out)))
		return nil
	case <-c.ctx.Done():
		if err, ok := c.writeErr.Load().(error); ok {
			return err
		}
		return c.ctx.Err()
	}
}

// shutdown closes the queue, waits for the writer to drain, and closes
// the socket. Callers must ensure no producer can call send afterward
// (the handle loop waits out its streams first).
func (c *serverConn) shutdown() {
	c.cancel()
	close(c.out)
	c.writerWG.Wait()
	c.Close()
}

// handle runs one client connection.
func (s *Server) handle(raw net.Conn) {
	s.cfg.Metrics.Connections.Inc()
	s.cfg.Metrics.ActiveConnections.Add(1)
	defer s.cfg.Metrics.ActiveConnections.Add(-1)
	c := newServerConn(raw, s.cfg.Metrics)
	logf := s.cfg.Logf
	logf("llrp: connection from %v", raw.RemoteAddr())

	ctx := c.ctx
	var streamWG sync.WaitGroup
	// LIFO: cancel stream sources, wait for every producer to exit,
	// then close the queue and socket — send is never called after
	// shutdown begins, so no lock guards the queue.
	defer c.shutdown()
	defer streamWG.Wait()
	defer c.cancel()

	// LLRP: the reader announces itself with a ReaderEventNotification
	// carrying a ConnectionAttemptEvent (success).
	if err := c.send(Message{Type: MsgReaderEventNotification, Payload: EncodeStatus(StatusSuccess, "connection accepted")}); err != nil {
		logf("llrp: initial notification: %v", err)
		return
	}

	if s.cfg.KeepaliveEvery > 0 {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			s.keepaliveLoop(ctx, c)
		}()
	}

	var (
		specMu  sync.Mutex
		specs   = map[uint32]ROSpecConfig{}
		enabled = map[uint32]bool{}
		cancels = map[uint32]context.CancelFunc{}
	)

	respond := func(req Message, t MessageType, code StatusCode, desc string) error {
		if code != StatusSuccess {
			s.cfg.Metrics.Errors.With("protocol").Inc()
		}
		return c.send(Message{Type: t, ID: req.ID, Payload: EncodeStatus(code, desc)})
	}

	for {
		m, err := ReadMessage(c.Conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Metrics.Errors.With("read").Inc()
				logf("llrp: read: %v", err)
			}
			return
		}
		s.cfg.Metrics.MessagesIn.With(m.Type.String()).Inc()
		switch m.Type {
		case MsgGetReaderCapabilities:
			if err := c.send(Message{
				Type:    MsgGetReaderCapabilitiesResponse,
				ID:      m.ID,
				Payload: append(EncodeStatus(StatusSuccess, ""), EncodeCapabilities(DefaultCapabilities())...),
			}); err != nil {
				return
			}
		case MsgSetReaderConfig:
			if err := respond(m, MsgSetReaderConfigResponse, StatusSuccess, ""); err != nil {
				return
			}
		case MsgAddROSpec:
			cfg, derr := DecodeROSpec(m.Payload)
			if derr != nil {
				if err := respond(m, MsgAddROSpecResponse, StatusParameterError, derr.Error()); err != nil {
					return
				}
				continue
			}
			specMu.Lock()
			_, exists := specs[cfg.ROSpecID]
			if !exists {
				specs[cfg.ROSpecID] = cfg
			}
			specMu.Unlock()
			if exists {
				if err := respond(m, MsgAddROSpecResponse, StatusFieldError, "duplicate ROSpec ID"); err != nil {
					return
				}
				continue
			}
			if err := respond(m, MsgAddROSpecResponse, StatusSuccess, ""); err != nil {
				return
			}
		case MsgEnableROSpec:
			id, derr := DecodeROSpecID(m.Payload)
			specMu.Lock()
			_, known := specs[id]
			if known {
				enabled[id] = true
			}
			specMu.Unlock()
			switch {
			case derr != nil:
				err = respond(m, MsgEnableROSpecResponse, StatusParameterError, derr.Error())
			case !known:
				err = respond(m, MsgEnableROSpecResponse, StatusFieldError, "unknown ROSpec ID")
			default:
				err = respond(m, MsgEnableROSpecResponse, StatusSuccess, "")
			}
			if err != nil {
				return
			}
		case MsgStartROSpec:
			id, derr := DecodeROSpecID(m.Payload)
			specMu.Lock()
			cfg, known := specs[id]
			isEnabled := enabled[id]
			_, running := cancels[id]
			var streamCtx context.Context
			var stop context.CancelFunc
			if known && isEnabled && !running {
				streamCtx, stop = context.WithCancel(ctx)
				cancels[id] = stop
			}
			specMu.Unlock()
			switch {
			case derr != nil:
				err = respond(m, MsgStartROSpecResponse, StatusParameterError, derr.Error())
			case !known || !isEnabled:
				err = respond(m, MsgStartROSpecResponse, StatusFieldError, "ROSpec not enabled")
			case running:
				err = respond(m, MsgStartROSpecResponse, StatusFieldError, "ROSpec already running")
			default:
				err = respond(m, MsgStartROSpecResponse, StatusSuccess, "")
				streamWG.Add(1)
				go func() {
					defer streamWG.Done()
					s.streamReports(streamCtx, c, cfg)
				}()
			}
			if err != nil {
				return
			}
		case MsgStopROSpec:
			id, derr := DecodeROSpecID(m.Payload)
			specMu.Lock()
			stop, running := cancels[id]
			delete(cancels, id)
			specMu.Unlock()
			if running {
				stop()
			}
			switch {
			case derr != nil:
				err = respond(m, MsgStopROSpecResponse, StatusParameterError, derr.Error())
			case !running:
				err = respond(m, MsgStopROSpecResponse, StatusFieldError, "ROSpec not running")
			default:
				err = respond(m, MsgStopROSpecResponse, StatusSuccess, "")
			}
			if err != nil {
				return
			}
		case MsgDeleteROSpec:
			id, derr := DecodeROSpecID(m.Payload)
			specMu.Lock()
			if stop, running := cancels[id]; running {
				stop()
				delete(cancels, id)
			}
			_, known := specs[id]
			delete(specs, id)
			delete(enabled, id)
			specMu.Unlock()
			switch {
			case derr != nil:
				err = respond(m, MsgDeleteROSpecResponse, StatusParameterError, derr.Error())
			case !known:
				err = respond(m, MsgDeleteROSpecResponse, StatusFieldError, "unknown ROSpec ID")
			default:
				err = respond(m, MsgDeleteROSpecResponse, StatusSuccess, "")
			}
			if err != nil {
				return
			}
		case MsgKeepaliveAck:
			// Liveness acknowledged; nothing to do.
		case MsgCloseConnection:
			_ = respond(m, MsgCloseConnectionResponse, StatusSuccess, "")
			return
		default:
			logf("llrp: unhandled message %v", m.Type)
		}
	}
}

// keepaliveLoop sends periodic KEEPALIVE messages, as LLRP readers do.
func (s *Server) keepaliveLoop(ctx context.Context, c *serverConn) {
	t := time.NewTicker(s.cfg.KeepaliveEvery)
	defer t.Stop()
	var id uint32
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			id++
			if err := c.send(Message{Type: MsgKeepalive, ID: id}); err != nil {
				return
			}
		}
	}
}

// streamReports runs a report source and ships batched
// RO_ACCESS_REPORT messages.
func (s *Server) streamReports(ctx context.Context, c *serverConn, cfg ROSpecConfig) {
	batchSize := int(cfg.ReportEveryN)
	if batchSize <= 0 {
		batchSize = defaultBatch
	}
	allow := make(map[int]bool, len(cfg.AntennaIDs))
	for _, a := range cfg.AntennaIDs {
		allow[int(a)] = true
	}

	var batch []byte
	var inBatch int
	var msgID uint32 = 1000
	flush := func() error {
		if inBatch == 0 {
			return nil
		}
		msgID++
		err := c.send(Message{Type: MsgROAccessReport, ID: msgID, Payload: batch})
		// The payload now sits in the writer queue; a fresh buffer
		// keeps later appends from mutating the queued message.
		batch = nil
		inBatch = 0
		return err
	}

	src := s.cfg.NewSource()
	err := src.Stream(ctx, func(r reader.TagReport) error {
		if len(allow) > 0 && !allow[r.AntennaPort] {
			return nil
		}
		batch = append(batch, EncodeTagReport(r)...)
		inBatch++
		s.cfg.Metrics.ReportsStreamed.Inc()
		if inBatch >= batchSize {
			return flush()
		}
		return nil
	})
	if ferr := flush(); err == nil {
		err = ferr
	}
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
		s.cfg.Logf("llrp: report stream ended: %v", err)
	}
}
