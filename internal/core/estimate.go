package core

import (
	"fmt"
	"time"

	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// UserEstimate is the pipeline's output for one user over a window.
type UserEstimate struct {
	UserID uint64
	// RateBPM is the mean breathing rate over the window (Eq. 5
	// applied across all buffered crossings), in breaths per minute.
	RateBPM float64
	// RateSeries is the instantaneous Eq. 5 series (M = 7 crossings),
	// for realtime visualization.
	RateSeries []sigproc.Sample
	// Signal is the extracted breathing waveform (Fig. 8).
	Signal *BreathSignal
	// ReaderID names the reader whose stream was selected (empty for
	// the unnamed single-reader batch path).
	ReaderID string
	// AntennaPort is the antenna selected for this user (§IV-D.3).
	AntennaPort int
	// Reads is how many low-level reads of this user's tags the
	// selected antenna contributed.
	Reads int
	// TagsSeen is how many distinct tags of this user reported.
	TagsSeen int
	// FusedRMS is the RMS of the fused per-bin displacement, a signal
	// strength indicator.
	FusedRMS float64
}

// Estimate runs the full batch pipeline over a report window: demux
// reports into per-user shards, and per shard select the best antenna,
// difference phases per channel (Eq. 3), fuse the user's tags (Eq. 6),
// accumulate (Eq. 7), extract (§IV-B), and estimate rates (Eq. 5).
// Reports must be in timestamp order, as readers deliver them.
//
// Shards are independent — Gen2 collision arbitration keeps per-user
// streams separate at the MAC layer — so they run on a bounded worker
// pool sized by Config.Workers (default GOMAXPROCS; 1 forces the
// sequential reference path). The sharded and sequential paths produce
// bit-identical estimates.
//
// Users with too little data for extraction are omitted from the
// result rather than reported with a zero rate; callers distinguish
// "not monitorable" (absent) from "monitored, rate r". A HighCutHz
// outside the extraction band is an error (see Config.HighCutHz).
func Estimate(reports []reader.TagReport, cfg Config) (map[uint64]*UserEstimate, error) {
	if err := cfg.checkBand(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if mt := cfg.Metrics; mt != nil {
		mt.Runs.Inc()
		start := time.Now()
		defer func() { mt.RunSeconds.Observe(time.Since(start).Seconds()) }()
	}
	if len(reports) == 0 {
		return map[uint64]*UserEstimate{}, nil
	}
	t0 := reports[0].Timestamp.Seconds()
	t1 := reports[len(reports)-1].Timestamp.Seconds()
	if t1-t0 <= 0 {
		return map[uint64]*UserEstimate{}, nil
	}

	shards := demuxByUser(reports, &cfg)
	results := runShards(shards, t0, t1, cfg)

	out := make(map[uint64]*UserEstimate, len(shards))
	for i, est := range results {
		if est != nil {
			out[shards[i].uid] = est
		}
	}
	return out, nil
}

// Accuracy implements Eq. 8: 1 − |R̂ − R| / R, where measured is R̂ and
// truth is R. The paper reports this metric for every evaluation
// figure. Values are clamped at 0 so a wildly wrong estimate scores 0
// rather than negative, keeping averages interpretable.
func Accuracy(measured, truth float64) float64 {
	if truth <= 0 {
		return 0
	}
	a := 1 - abs(measured-truth)/truth
	if a < 0 {
		return 0
	}
	return a
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// WindowReports filters reports to a time window [from, to) — used by
// sliding-window processing and the experiments.
func WindowReports(reports []reader.TagReport, from, to time.Duration) []reader.TagReport {
	var out []reader.TagReport
	for _, r := range reports {
		if r.Timestamp >= from && r.Timestamp < to {
			out = append(out, r)
		}
	}
	return out
}

// SplitByUser partitions reports by the user ID encoded in their EPCs,
// the grouping step of Fig. 10's workflow.
func SplitByUser(reports []reader.TagReport) map[uint64][]reader.TagReport {
	out := make(map[uint64][]reader.TagReport)
	for _, r := range reports {
		uid := epcUserID(r.EPC)
		out[uid] = append(out[uid], r)
	}
	return out
}

// ErrNoSignal is returned by helpers that require an extractable
// breathing signal when the window lacks one.
var ErrNoSignal = fmt.Errorf("core: no extractable breathing signal in window")

// EstimateUser is a convenience wrapper for the single-user case: it
// runs Estimate restricted to uid and returns that user's estimate.
func EstimateUser(reports []reader.TagReport, uid uint64, cfg Config) (*UserEstimate, error) {
	cfg.Users = []uint64{uid}
	ests, err := Estimate(reports, cfg)
	if err != nil {
		return nil, err
	}
	est, ok := ests[uid]
	if !ok {
		return nil, ErrNoSignal
	}
	return est, nil
}
