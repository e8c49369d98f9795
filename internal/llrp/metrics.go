package llrp

import "tagbreathe/internal/obs"

// ServerMetrics are the reader-side protocol instruments. Build with
// NewServerMetrics and hand to ServerConfig.Metrics; a nil registry
// yields live but unexposed instruments.
type ServerMetrics struct {
	// Connections counts accepted connections over the server's life.
	Connections *obs.Counter
	// ActiveConnections is the number of connections currently open.
	ActiveConnections *obs.Gauge
	// MessagesIn counts inbound messages by LLRP type name.
	MessagesIn *obs.CounterVec
	// MessagesOut counts outbound messages by LLRP type name.
	MessagesOut *obs.CounterVec
	// SendQueueHighWater is the deepest any connection's outbound
	// queue has been — the first sign of a slow or stalled host.
	SendQueueHighWater *obs.Gauge
	// Errors counts failures by kind: "write" (socket writes),
	// "read" (socket reads/framing), "protocol" (requests answered
	// with a non-success LLRPStatus).
	Errors *obs.CounterVec
	// ReportsStreamed counts tag reports shipped inside
	// RO_ACCESS_REPORT batches.
	ReportsStreamed *obs.Counter
}

// NewServerMetrics wires server instruments into r (nil r: live,
// unexposed).
func NewServerMetrics(r *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		Connections: r.Counter("tagbreathe_llrp_server_connections_total",
			"LLRP connections accepted."),
		ActiveConnections: r.Gauge("tagbreathe_llrp_server_active_connections",
			"LLRP connections currently open."),
		MessagesIn: r.CounterVec("tagbreathe_llrp_server_messages_in_total",
			"Inbound LLRP messages by type.", "type"),
		MessagesOut: r.CounterVec("tagbreathe_llrp_server_messages_out_total",
			"Outbound LLRP messages by type.", "type"),
		SendQueueHighWater: r.Gauge("tagbreathe_llrp_server_send_queue_high_water",
			"Deepest observed per-connection send queue depth."),
		Errors: r.CounterVec("tagbreathe_llrp_server_errors_total",
			"Server failures by kind (write, read, protocol).", "kind"),
		ReportsStreamed: r.Counter("tagbreathe_llrp_server_reports_streamed_total",
			"Tag reports shipped in RO_ACCESS_REPORT batches."),
	}
}

// SessionMetrics instrument the managed reconnecting session layer
// (see Session). Build with NewSessionMetrics and hand to
// SessionConfig.Metrics; a nil registry yields live but unexposed
// instruments.
type SessionMetrics struct {
	// Reconnects counts successful re-establishments after a lost
	// link — the first connect is not a reconnect.
	Reconnects *obs.Counter
	// State is the session's current lifecycle state as a small
	// integer: 0 connecting, 1 up, 2 backoff (link lost, waiting to
	// retry), 3 closed.
	State *obs.Gauge
	// OutageSeconds observes, at each successful reconnect, how long
	// the report stream was down (link declared dead → reports flowing
	// again).
	OutageSeconds *obs.Histogram
	// ConnectFailures counts failed connection attempts by stage:
	// "dial" (TCP + handshake) or "provision" (reader config / ROSpec
	// lifecycle rejected).
	ConnectFailures *obs.CounterVec
	// WatchdogTrips counts links declared dead by the keepalive
	// watchdog (no inbound traffic within the deadline).
	WatchdogTrips *obs.Counter
	// ReportsBuffer is the current occupancy of the session's stable
	// report channel — the flow-control signal: a climbing value means
	// the consumer is falling behind the reader.
	ReportsBuffer *obs.Gauge
	// ReportsBufferHighWater is the deepest the stable report channel
	// has been over the session's life.
	ReportsBufferHighWater *obs.Gauge
	// ReportsShed counts decoded reports a link's end left undelivered:
	// the report waiting for room on a full stable channel when the
	// link died or the session closed, and the rest of its frame.
	ReportsShed *obs.Counter
}

// NewSessionMetrics wires session instruments into r (nil r: live,
// unexposed).
func NewSessionMetrics(r *obs.Registry) *SessionMetrics {
	return &SessionMetrics{
		Reconnects: r.Counter("tagbreathe_llrp_session_reconnects_total",
			"Successful session re-establishments after a lost link."),
		State: r.Gauge("tagbreathe_llrp_session_state",
			"Session state (0 connecting, 1 up, 2 backoff, 3 closed)."),
		OutageSeconds: r.Histogram("tagbreathe_llrp_session_outage_seconds",
			"Report-stream outage duration per reconnect (link dead to reports flowing).",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300}),
		ConnectFailures: r.CounterVec("tagbreathe_llrp_session_connect_failures_total",
			"Failed connection attempts by stage (dial, provision).", "stage"),
		WatchdogTrips: r.Counter("tagbreathe_llrp_session_watchdog_trips_total",
			"Links declared dead by the keepalive watchdog."),
		ReportsBuffer: r.Gauge("tagbreathe_llrp_session_reports_buffer",
			"Reports currently buffered on the session's stable channel."),
		ReportsBufferHighWater: r.Gauge("tagbreathe_llrp_session_reports_buffer_high_water",
			"Deepest observed occupancy of the session's stable report channel."),
		ReportsShed: r.Counter("tagbreathe_llrp_session_reports_shed_total",
			"Decoded reports left undelivered when a link ended while they waited for room on the stable channel."),
	}
}

// ClientMetrics are the host-side protocol instruments; pass to
// NewClientWithMetrics or DialWithMetrics.
type ClientMetrics struct {
	// Reports counts decoded tag reports surfaced on Reports().
	Reports *obs.Counter
	// Keepalives counts reader keepalives acknowledged.
	Keepalives *obs.Counter
	// Requests counts request/response exchanges by request type.
	Requests *obs.CounterVec
	// Errors counts failures by kind: "read" (connection read loop),
	// "decode" (report payloads), "send" (socket writes).
	Errors *obs.CounterVec
}

// NewClientMetrics wires client instruments into r (nil r: live,
// unexposed).
func NewClientMetrics(r *obs.Registry) *ClientMetrics {
	return &ClientMetrics{
		Reports: r.Counter("tagbreathe_llrp_client_reports_total",
			"Tag reports decoded from RO_ACCESS_REPORT messages."),
		Keepalives: r.Counter("tagbreathe_llrp_client_keepalives_total",
			"Reader keepalives acknowledged."),
		Requests: r.CounterVec("tagbreathe_llrp_client_requests_total",
			"Request/response exchanges by request type.", "type"),
		Errors: r.CounterVec("tagbreathe_llrp_client_errors_total",
			"Client failures by kind (read, decode, send).", "kind"),
	}
}
