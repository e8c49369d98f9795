package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// loopSec is the corpus period. Every user breathes a whole number of
// breaths per minute and the hop plan repeats every 2 s, so the
// synthetic stream repeats every 60 s: replaying one minute of frames
// with FirstSeenTimestampUTC advanced by 60 s per pass continues every
// user's breathing phase exactly, and the generator's memory stays one
// minute of frames however long a run is.
const loopSec = 60

// corpus is one reader's pre-encoded stream: RO_ACCESS_REPORT frames
// back to back, as they go on the wire.
type corpus struct {
	schedule
	buf []byte
	// frameEnd[i] is the byte offset one past frame i.
	frameEnd []int
	// reports is the report count of the whole corpus.
	reports int
	// repLen is the encoded size of one tag report and tsOff the
	// offset of its FirstSeenTimestampUTC field.
	repLen, tsOff int
	// baked[i] is the timestamp offset (µs) currently written into
	// frame i's bytes.
	baked []int64
}

// tsProbe is a timestamp (µs) whose big-endian encoding is found once
// in an encoded tag report, locating the timestamp field.
const tsProbe = 0x1A2B3C4D5E6F

func tsLayout() (repLen, tsOff int, err error) {
	enc := llrp.EncodeTagReport(reader.TagReport{Timestamp: tsProbe * time.Microsecond})
	var pat [8]byte
	binary.BigEndian.PutUint64(pat[:], tsProbe)
	tsOff = bytes.Index(enc, pat[:])
	if tsOff < 0 || bytes.Index(enc[tsOff+1:], pat[:]) >= 0 {
		return 0, 0, fmt.Errorf("ledgerbench: cannot locate the timestamp field in an encoded tag report")
	}
	return len(enc), tsOff, nil
}

// buildCorpus encodes span seconds of cfg's stream into frames of
// batch reports with llrp.EncodeTagReport and llrp.WriteMessage.
func buildCorpus(cfg sim.SynthConfig, span int) (*corpus, error) {
	syn, err := sim.NewSynth(cfg)
	if err != nil {
		return nil, err
	}
	repLen, tsOff, err := tsLayout()
	if err != nil {
		return nil, err
	}
	c := &corpus{repLen: repLen, tsOff: tsOff, schedule: schedule{SpanUs: int64(span) * 1e6}}
	steps := syn.Steps(time.Duration(span) * time.Second)
	var out bytes.Buffer
	out.Grow(steps * syn.ReportsPerStep() * (repLen + 1))
	payload := make([]byte, 0, batch*repLen)
	var last time.Duration
	n := 0
	var msgID uint32
	flush := func() error {
		if n == 0 {
			return nil
		}
		msgID++
		if err := llrp.WriteMessage(&out, llrp.Message{Type: llrp.MsgROAccessReport, ID: msgID, Payload: payload}); err != nil {
			return err
		}
		c.frameEnd = append(c.frameEnd, out.Len())
		c.LastUs = append(c.LastUs, last.Microseconds())
		payload, n = payload[:0], 0
		return nil
	}
	step := make([]reader.TagReport, 0, syn.ReportsPerStep())
	for k := 0; k < steps; k++ {
		step = syn.Next(step[:0])
		for _, r := range step {
			enc := llrp.EncodeTagReport(r)
			if len(enc) != repLen {
				return nil, fmt.Errorf("ledgerbench: tag report encodes to %d bytes, want %d", len(enc), repLen)
			}
			payload = append(payload, enc...)
			last = r.Timestamp
			n++
			c.reports++
			if n == batch {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	c.buf = out.Bytes()
	c.baked = make([]int64, len(c.frameEnd))
	return c, nil
}

// frame returns frame i's bytes.
func (c *corpus) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = c.frameEnd[i-1]
	}
	return c.buf[start:c.frameEnd[i]]
}

// frameReports returns how many tag reports frame i carries.
func (c *corpus) frameReports(i int) int {
	return (len(c.frame(i)) - llrpHeader) / c.repLen
}

// llrpHeader is the LLRP message header size.
const llrpHeader = 10

// setOffset rewrites frame i's report timestamps, in place, to their
// pass-0 values plus off µs: the frame as it goes out on a later pass
// of the loop. Not safe for concurrent use on one corpus.
func (c *corpus) setOffset(i int, off int64) {
	d := uint64(off - c.baked[i])
	if d == 0 {
		return
	}
	f := c.frame(i)
	for p := llrpHeader + c.tsOff; p+8 <= len(f); p += c.repLen {
		binary.BigEndian.PutUint64(f[p:], binary.BigEndian.Uint64(f[p:])+d)
	}
	c.baked[i] = off
}

// schedule is when one reader's frames can leave it.
type schedule struct {
	// LastUs[i] is the stream time (µs) of frame i's last report: the
	// earliest moment a reader could send the frame.
	LastUs []int64 `json:"last_us"`
	// SpanUs is the stream time one pass of the corpus covers.
	SpanUs int64 `json:"span_us"`
}

// completedUs returns the stream time (µs) at which the frame holding
// the report stamped tsUs is complete: its last report's time, on
// whichever pass of the loop tsUs falls.
func (s schedule) completedUs(tsUs int64) int64 {
	pass := tsUs / s.SpanUs
	rem := tsUs - pass*s.SpanUs
	i := sort.Search(len(s.LastUs), func(i int) bool { return s.LastUs[i] >= rem })
	if i == len(s.LastUs) {
		return (pass+1)*s.SpanUs + s.LastUs[0]
	}
	return pass*s.SpanUs + s.LastUs[i]
}

// flushEvery is a paced reader's report interval: every flushEvery of
// wall time it sends each frame completed since its previous flush.
const flushEvery = time.Millisecond

// flushLimitUs is the stream time (µs) by which a frame must complete
// to go out in flush t of a stream running speed stream seconds per
// wall second.
func flushLimitUs(t int64, speed float64) int64 {
	return int64(float64(t*flushEvery.Microseconds()) * speed)
}

// flushSlot returns the flush that sends a frame completed at stream
// time cUs: the first t with cUs ≤ flushLimitUs(t).
func flushSlot(cUs int64, speed float64) int64 {
	t := int64(float64(cUs) / (float64(flushEvery.Microseconds()) * speed))
	for t > 0 && flushLimitUs(t-1, speed) >= cUs {
		t--
	}
	for flushLimitUs(t, speed) < cUs {
		t++
	}
	return t
}
