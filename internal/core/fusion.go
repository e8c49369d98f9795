package core

import (
	"math"
	"sort"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/reader"
)

// FuseBins implements Eq. 6: displacement samples from all of a user's
// tags are summed per time bin of width binInterval seconds, producing
// one fused displacement value per bin over [t0, t1). Bins that no tag
// sampled contribute no displacement: they read zero, or a rounding
// residue of the running sum the grid is stored as (BinFuser) when
// samples came before them. The fused per-bin stream is what Eq. 7
// accumulates into the breathing waveform.
//
// Fusing raw displacements (rather than extracting per-tag and fusing
// results) adds the tags' signals coherently — all sites move outward
// together during inhalation (§IV-D.1) — while their independent phase
// noise adds incoherently, improving SNR by roughly √n, and it runs the
// expensive extraction once per user instead of once per tag (§IV-C).
//
// Each sample is spread uniformly over the interval it accrued across
// (BinFuser.deposit), where the paper's Eq. 6 deposits it wholly in the
// bin of its later reading. The two agree whenever each sample's
// accrual interval lies within one bin, as with dense reads; with
// sparse reads spreading keeps a multi-second displacement from
// aliasing into a single bin.
//
// FuseBins is batch fusion on the streaming fuser's kernel: a BinFuser
// anchored at t0 takes every sample of [t0, t1) in the given order, so
// the two agree bit for bit.
func FuseBins(samples []DisplacementSample, binInterval, t0, t1 float64) []float64 {
	if binInterval <= 0 || t1 <= t0 {
		return nil
	}
	f := NewBinFuser(binInterval, t0, int((t1-t0)/binInterval)+2)
	for _, s := range samples {
		if s.T >= t0 && s.T < t1 {
			f.deposit(s)
		}
	}
	return f.Flush(t0, t1)
}

// AntennaQuality scores one (user, antenna) stream for the selection
// policy of §IV-D.3: the reader evaluates data quality in terms of
// received signal strength and sampling rate and extracts breathing
// from the optimal antenna per user.
type AntennaQuality struct {
	UserID uint64
	// Reader names the vantage's reader; empty for the unnamed
	// single-reader case (RankAntennas' batch input is one reader's
	// stream, so it never sets this).
	Reader   string
	Antenna  int
	Reads    int
	ReadRate float64 // reads/s over the scored window
	MeanRSSI float64 // dBm
}

// Score combines rate and signal strength. Read rate dominates — the
// pipeline needs samples above all — with RSSI as a meaningful
// tiebreaker (a stronger link has lower phase noise). The weights put
// 1 dB of RSSI on par with 0.5 Hz of read rate.
func (q AntennaQuality) Score() float64 {
	rssiTerm := q.MeanRSSI + 90 // shift typical (-80..-40) positive
	if rssiTerm < 0 {
		rssiTerm = 0
	}
	return q.ReadRate + 0.5*rssiTerm
}

// RankAntennas computes per-(user, antenna) quality over a report
// window of spanSeconds and returns, per user, qualities sorted best
// first. Only reports for allowed users are considered.
func RankAntennas(reports []reader.TagReport, cfg Config, spanSeconds float64) map[uint64][]AntennaQuality {
	if spanSeconds <= 0 {
		spanSeconds = 1
	}
	type key struct {
		user    uint64
		antenna int
	}
	counts := make(map[key]int)
	rssiSum := make(map[key]float64)
	for _, r := range reports {
		uid := epcUserID(r.EPC)
		if !cfg.allowsUser(uid) {
			continue
		}
		k := key{uid, r.AntennaPort}
		counts[k]++
		rssiSum[k] += float64(r.RSSI)
	}
	out := make(map[uint64][]AntennaQuality)
	for k, c := range counts {
		out[k.user] = append(out[k.user], AntennaQuality{
			UserID:   k.user,
			Antenna:  k.antenna,
			Reads:    c,
			ReadRate: float64(c) / spanSeconds,
			MeanRSSI: rssiSum[k] / float64(c),
		})
	}
	for uid := range out {
		qs := out[uid]
		sort.Slice(qs, func(i, j int) bool {
			si, sj := qs[i].Score(), qs[j].Score()
			if !fmath.ExactEq(si, sj) {
				return si > sj
			}
			return qs[i].Antenna < qs[j].Antenna // deterministic order
		})
	}
	return out
}

// SelectAntenna returns the optimal antenna port for each user given
// ranked qualities; users with no reads are absent from the result.
func SelectAntenna(ranked map[uint64][]AntennaQuality) map[uint64]int {
	out := make(map[uint64]int, len(ranked))
	for uid, qs := range ranked {
		if len(qs) > 0 {
			out[uid] = qs[0].Antenna
		}
	}
	return out
}

// fusedStats summarizes a fused bin stream for quality reporting.
func fusedStats(bins []float64) (rms float64, nonZero int) {
	var ss float64
	for _, v := range bins {
		ss += v * v
		if fmath.NonZero(v) {
			nonZero++
		}
	}
	if len(bins) > 0 {
		rms = math.Sqrt(ss / float64(len(bins)))
	}
	return rms, nonZero
}
