package llrp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
)

// Client is the host side of an LLRP connection (the role the paper's
// LLRP Toolkit plays): it configures the reader, drives the ROSpec
// lifecycle, answers keepalives, and hands each decoded frame of tag
// reports to its delivery hook. A Session builds and owns every Client.
type Client struct {
	conn net.Conn
	// in buffers the connection's inbound bytes. frame and batch are
	// the read loop's frame buffer and decoded reports, reused from
	// frame to frame.
	in      *bufio.Reader
	frame   []byte
	batch   []reader.TagReport
	metrics *ClientMetrics
	// tracer samples end-to-end pipeline traces, stamping StageRead as
	// each report is decoded from its frame. Nil (the default) traces
	// nothing.
	tracer *obs.Tracer

	writeMu sync.Mutex

	// lastActivity is the wall time (UnixNano) of the last inbound
	// message — keepalive, report, or response. Session watchdogs read
	// it to declare a silent link dead.
	lastActivity atomic.Int64

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan Message
	err     error
	closed  bool

	// deliver receives each decoded frame's reports on the read loop
	// goroutine, as a slice valid only for the duration of the call;
	// false ends the loop. The Session sets it (it is required), so
	// reports reach the session's stable channel or its delivery hook
	// without a hand-off of their own.
	deliver func(batch []reader.TagReport) bool
	// done closes when the read loop has exited.
	done chan struct{}
}

// dialClient connects to an LLRP endpoint and waits for the reader's
// connection-accepted event notification. Both the TCP dial and the
// greeting handshake abort when ctx ends; the client's lifetime is
// independent of ctx, and Close tears it down. A nil m builds private
// instruments; a nil tr traces nothing; deliver is Client.deliver.
func dialClient(ctx context.Context, addr string, m *ClientMetrics, tr *obs.Tracer, deliver func([]reader.TagReport) bool) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("llrp: dial %s: %w", addr, err)
	}
	// The handshake below is a blocking read; closing the socket is the
	// only way to abort it when ctx ends first.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	c, err := newClient(conn, m, tr, deliver)
	if !stop() && err != nil {
		// The AfterFunc already ran: ctx ended mid-handshake, and the
		// read error is just the closed socket. Surface the cause.
		return nil, fmt.Errorf("llrp: dial %s: %w", addr, context.Cause(ctx))
	}
	return c, err
}

// newClient performs the connection handshake on an established
// connection and starts the read loop (arguments as for dialClient).
func newClient(conn net.Conn, m *ClientMetrics, tr *obs.Tracer, deliver func([]reader.TagReport) bool) (*Client, error) {
	if m == nil {
		m = NewClientMetrics(nil)
	}
	c := &Client{
		conn:    conn,
		in:      bufio.NewReaderSize(conn, inboundBuffer),
		metrics: m,
		tracer:  tr,
		nextID:  1,
		pending: make(map[uint32]chan Message),
		deliver: deliver,
		done:    make(chan struct{}),
	}
	// The reader speaks first: a ReaderEventNotification announcing
	// the connection attempt result.
	hello, err := ReadMessage(c.in)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("llrp: waiting for reader event: %w", err)
	}
	if hello.Type != MsgReaderEventNotification {
		conn.Close()
		return nil, fmt.Errorf("llrp: expected READER_EVENT_NOTIFICATION, got %v", hello.Type)
	}
	c.lastActivity.Store(time.Now().UnixNano())
	go c.readLoop()
	return c, nil
}

// LastActivity returns the wall time of the last inbound message on
// this connection (keepalive, tag report, or response). A link that is
// nominally open but silent past the reader's keepalive period is
// wedged; Session's watchdog uses this to declare it dead.
func (c *Client) LastActivity() time.Time {
	return time.Unix(0, c.lastActivity.Load())
}

// Err reports why the read loop ended (nil while healthy or after a
// clean close).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(c.err, io.EOF) || errors.Is(c.err, net.ErrClosed) {
		return nil
	}
	return c.err
}

// Close sends CLOSE_CONNECTION (best effort) and tears down. It is
// idempotent: every call after the first is a no-op returning nil, and
// concurrent calls are safe (later callers wait for the read loop to
// unwind too).
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	// Best-effort polite close; the reader may already be gone, and a
	// stalled peer must not be able to wedge Close on a full socket
	// buffer — bound the farewell write.
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = c.send(Message{Type: MsgCloseConnection, ID: c.allocID()})
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) allocID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

func (c *Client) send(m Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := WriteMessage(c.conn, m); err != nil {
		c.metrics.Errors.With("send").Inc()
		return err
	}
	return nil
}

// request sends a message and waits for the response with the same
// message ID, with a timeout guarding against a wedged peer.
func (c *Client) request(t MessageType, payload []byte, timeout time.Duration) (Message, error) {
	c.metrics.Requests.With(t.String()).Inc()
	id := c.allocID()
	ch := make(chan Message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Message{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	if err := c.send(Message{Type: t, ID: id, Payload: payload}); err != nil {
		return Message{}, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return Message{}, fmt.Errorf("llrp: connection closed awaiting %v response", t)
		}
		return resp, nil
	case <-timer.C:
		return Message{}, fmt.Errorf("llrp: timeout awaiting %v response", t)
	}
}

// requestStatus performs a request and checks the LLRPStatus result.
func (c *Client) requestStatus(t MessageType, payload []byte, timeout time.Duration) error {
	resp, err := c.request(t, payload, timeout)
	if err != nil {
		return err
	}
	code, desc, err := DecodeStatus(resp.Payload)
	if err != nil {
		return err
	}
	if code != StatusSuccess {
		return fmt.Errorf("llrp: %v failed: %v (%s)", t, code, desc)
	}
	return nil
}

const defaultRequestTimeout = 10 * time.Second

// SetReaderConfig applies reader configuration (the emulator accepts
// and acknowledges; the call exists for protocol completeness and
// fault injection in tests).
func (c *Client) SetReaderConfig() error {
	return c.requestStatus(MsgSetReaderConfig, nil, defaultRequestTimeout)
}

// AddROSpec registers a reader operation spec.
func (c *Client) AddROSpec(cfg ROSpecConfig) error {
	return c.requestStatus(MsgAddROSpec, EncodeROSpec(cfg), defaultRequestTimeout)
}

// EnableROSpec enables a registered ROSpec.
func (c *Client) EnableROSpec(id uint32) error {
	return c.requestStatus(MsgEnableROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// StartROSpec starts a registered, enabled ROSpec; tag reports begin
// arriving at the delivery hook.
func (c *Client) StartROSpec(id uint32) error {
	return c.requestStatus(MsgStartROSpec, EncodeROSpecID(id), defaultRequestTimeout)
}

// errDeliveryStopped ends a read loop whose owner refused a frame: it
// is tearing the connection down, so Err reports no failure.
var errDeliveryStopped = fmt.Errorf("llrp: report delivery stopped: %w", net.ErrClosed)

// readLoop runs the connection's inbound side until it ends, then
// records why and releases request waiters.
func (c *Client) readLoop() {
	defer close(c.done)
	err := c.dispatch()
	c.mu.Lock()
	c.err = err
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// inboundBuffer sizes the read loop's bufio.Reader: a 32-report
// RO_ACCESS_REPORT frame is about 2.6 KB, so one read syscall brings in
// several frames of a burst.
const inboundBuffer = 16 << 10

// dispatch routes inbound messages until a read, decode, or ack fails
// or the sink refuses a frame.
func (c *Client) dispatch() error {
	for {
		if err := c.readFrame(); err != nil {
			return err
		}
	}
}

// readFrame reads one inbound message and routes it: responses to
// waiters, tag reports to the delivery hook, keepalives to
// automatic acks. A report frame is read into the reused frame buffer
// and decoded onto the reused batch, so it allocates nothing once the
// buffers have grown to the frame size.
func (c *Client) readFrame() error {
	m, err := readMessage(c.in, &c.frame)
	if err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			c.metrics.Errors.With("read").Inc()
		}
		return err
	}
	c.lastActivity.Store(time.Now().UnixNano())
	switch m.Type {
	case MsgROAccessReport:
		c.batch, err = appendTagReports(c.batch[:0], m.Payload)
		if err != nil {
			c.metrics.Errors.With("decode").Inc()
			return err
		}
		c.metrics.Reports.Add(uint64(len(c.batch)))
		for i := range c.batch {
			// The read stamp lands here, as close to the socket as the
			// decoded report exists, so downstream stages inherit the
			// reader-side origin instead of re-stamping on ingest.
			c.batch[i].TraceID = c.tracer.Begin(obs.StageRead)
		}
		if !c.deliver(c.batch) {
			return errDeliveryStopped
		}
	case MsgKeepalive:
		// LLRP requires the client to acknowledge keepalives or
		// the reader drops the connection.
		c.metrics.Keepalives.Inc()
		if err := c.send(Message{Type: MsgKeepaliveAck, ID: m.ID}); err != nil {
			return err
		}
	case MsgReaderEventNotification:
		// Informational; ignore.
	default:
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		c.mu.Unlock()
		if ok {
			// The waiter keeps the payload past the next frame, which
			// reuses the buffer it was read into.
			m.Payload = bytes.Clone(m.Payload)
			ch <- m
		}
	}
	return nil
}
