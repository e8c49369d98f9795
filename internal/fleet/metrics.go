package fleet

import "tagbreathe/internal/obs"

// Metrics are the reader fleet's instruments: the per-reader families
// carry a "reader" label (one series per configured reader — bounded), so a dashboard can tell which
// reader of an overlapping pair is down, shedding, or flapping. A
// single shared llrp.SessionMetrics cannot do this: the obs registry
// dedups families by name, so N unlabeled sessions on one registry
// would overwrite each other's scalar series (state, buffer depth).
// The fleet therefore gives each entry private session instruments and
// mirrors the operationally interesting ones here, labeled.
type Metrics struct {
	// Readers is the number of readers in the fleet.
	Readers *obs.Gauge
	// ReaderState is each reader's session lifecycle state (0
	// connecting, 1 up, 2 backoff, 3 closed), refreshed on scrape and
	// on Status.
	ReaderState *obs.GaugeVec
	// ReaderReconnects mirrors each reader's session reconnect count,
	// refreshed on scrape and on Status.
	ReaderReconnects *obs.GaugeVec
	// ReaderReports counts reports each reader delivered onto the
	// merged channel.
	ReaderReports *obs.CounterVec
	// ReaderShed counts reports dropped at the merged channel because
	// it was full — the per-reader cost of the never-block merge
	// discipline (see Fleet.Reports).
	ReaderShed *obs.CounterVec
	// ReaderShedByClass splits each reader's sheds by vantage class
	// (primary / redundant / unknown), both watermark gating and a
	// full channel; with quality-aware shedding configured the primary
	// series staying flat under pressure is the invariant dashboards
	// should alert on.
	ReaderShedByClass *obs.CounterVec
	// MergedQueue and MergedQueueHighWater track the merged report
	// channel's occupancy — the fleet-edge flow-control signal,
	// mirroring the session buffer gauges one level up.
	MergedQueue          *obs.Gauge
	MergedQueueHighWater *obs.Gauge

	// reg is retained so Start can register a scrape hook that
	// refreshes the pull-sampled gauges (state, reconnects) at
	// exposition time.
	reg *obs.Registry
}

// NewMetrics wires fleet instruments into r (nil r: live, unexposed).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Readers: r.Gauge("tagbreathe_fleet_readers",
			"Reader endpoints in the fleet."),
		ReaderState: r.GaugeVec("tagbreathe_fleet_reader_state",
			"Per-reader session state (0 connecting, 1 up, 2 backoff, 3 closed).",
			"reader"),
		ReaderReconnects: r.GaugeVec("tagbreathe_fleet_reader_reconnects",
			"Per-reader successful session re-establishments after a lost link.",
			"reader"),
		ReaderReports: r.CounterVec("tagbreathe_fleet_reader_reports_total",
			"Reports each reader delivered onto the merged fleet channel.",
			"reader"),
		ReaderShed: r.CounterVec("tagbreathe_fleet_reader_reports_shed_total",
			"Reports dropped at the full merged channel, per originating reader.",
			"reader"),
		ReaderShedByClass: r.CounterVec("tagbreathe_fleet_reader_reports_shed_by_class_total",
			"Reports shed at the merged fleet channel, per reader and vantage class.",
			"reader", "class"),
		MergedQueue: r.Gauge("tagbreathe_fleet_merged_queue",
			"Reports currently buffered on the merged fleet channel."),
		MergedQueueHighWater: r.Gauge("tagbreathe_fleet_merged_queue_high_water",
			"Deepest observed occupancy of the merged fleet channel."),
		reg: r,
	}
}

// readerLabel formats a reader's name for the "reader" label.
//
//tagbreathe:labelvalue reader names are operator-configured, a handful per process
func readerLabel(name string) string {
	return name
}
