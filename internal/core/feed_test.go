package core

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// feedReference is the slot-free form of Engine.Feed's Eq. 3 → Eq. 6
// path that Engine.Feed must reproduce bit for bit: per vantage, a
// standalone Differencer feeding a BinFuser. Retiring a vantage
// replaces its Differencer, which forgets every stream it held.
type feedReference struct {
	origin  float64
	started bool
	order   []vantage
	dfs     map[vantage]*Differencer
	fusers  map[vantage]*BinFuser
	tags    map[vantage]map[uint32]bool
}

func newFeedReference() *feedReference {
	return &feedReference{
		dfs:    make(map[vantage]*Differencer),
		fusers: make(map[vantage]*BinFuser),
		tags:   make(map[vantage]map[uint32]bool),
	}
}

func (ref *feedReference) feed(r reader.TagReport) {
	if !ref.started {
		ref.started = true
		ref.origin = r.Timestamp.Seconds()
	}
	v := vantage{reader: r.ReaderID, port: r.AntennaPort}
	if _, ok := ref.dfs[v]; !ok {
		ref.order = append(ref.order, v)
		ref.dfs[v] = NewDifferencer()
		ref.fusers[v] = NewBinFuser(binInterval, ref.origin, 16)
		ref.tags[v] = make(map[uint32]bool)
	}
	ref.tags[v][r.EPC.TagID()] = true
	if d, ok := ref.dfs[v].Ingest(r); ok {
		ref.fusers[v].Add(d.Sample)
	}
}

func (ref *feedReference) closeVantage(readerID string, port int) {
	v := vantage{reader: readerID, port: port}
	if _, ok := ref.dfs[v]; ok {
		ref.dfs[v] = NewDifferencer()
		ref.fusers[v].SettleBefore(math.Inf(1))
	}
}

// compareFeed fails t unless eng holds exactly ref's vantages, in
// ref's order, with bit-identical fused bins, the same held samples,
// the same tag counts, and the same finality horizon at now.
func compareFeed(t *testing.T, eng *Engine, ref *feedReference, now float64) {
	t.Helper()
	if len(eng.ants) != len(ref.order) {
		t.Fatalf("engine holds %d vantages, reference %d", len(eng.ants), len(ref.order))
	}
	floor := now
	for i, v := range ref.order {
		a := eng.ants[i]
		if a.v != v {
			t.Fatalf("vantage %d is %+v, reference %+v", i, a.v, v)
		}
		fu := ref.fusers[v]
		if a.fuser.Adds() != fu.Adds() || a.fuser.Hi() != fu.Hi() {
			t.Fatalf("vantage %+v: %d adds up to bin %d, reference %d up to bin %d",
				v, a.fuser.Adds(), a.fuser.Hi(), fu.Adds(), fu.Hi())
		}
		if g, w := a.fuser.HeldFloor(), fu.HeldFloor(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("vantage %+v: held floor %v, reference %v", v, g, w)
		}
		for b := 0; b < fu.Hi(); b++ {
			if g, w := a.fuser.ValueAt(b), fu.ValueAt(b); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("vantage %+v bin %d: %v, reference %v", v, b, g, w)
			}
		}
		if g, w := eng.df.tagsOn(a.ri, v.port), len(ref.tags[v]); g != w {
			t.Fatalf("vantage %+v: %d tags seen, reference %d", v, g, w)
		}
		floor = min(floor, ref.dfs[v].EarliestOpenStream(now))
	}
	if g := eng.df.EarliestOpenStream(now); math.Float64bits(g) != math.Float64bits(floor) {
		t.Fatalf("earliest open stream at %v: %v, reference %v", now, g, floor)
	}
}

func hostileReport(readerID string, port int, user uint64, tag uint32, ch int, t time.Duration, phase float64) reader.TagReport {
	return reader.TagReport{
		EPC:          epc.NewUserTagEPC(user, tag),
		AntennaPort:  port,
		ChannelIndex: ch,
		Frequency:    units.Hertz(902.75e6 + 0.5e6*float64(((ch%50)+50)%50)),
		Timestamp:    t,
		Phase:        units.Radians(math.Mod(math.Abs(phase), 2*math.Pi)),
		RSSI:         units.DBm(-60 + float64(port%7)),
		ReaderID:     readerID,
	}
}

// TestEngineFeedSteadyStateAllocs pins the slot path: once every
// stream of 2 readers × 2 antennas × 3 tags × 10 channels has been
// seen, Engine.Feed allocates nothing per report.
func TestEngineFeedSteadyStateAllocs(t *testing.T) {
	eng := NewEngine(Config{}, EngineOptions{Window: 25, TickStride: 1, UserID: 1})
	k := 0
	next := func() reader.TagReport {
		i := k
		k++
		readerID := [2]string{"east", "west"}[i%2]
		port := 1 + (i/2)%2
		tag := uint32(1 + (i/4)%3)
		ch := (i / 12) % 10
		return hostileReport(readerID, port, 1, tag, ch, time.Duration(i)*2*time.Millisecond, float64(i)*0.37)
	}
	for k < 2*120 {
		eng.Feed(next())
	}
	allocs := testing.AllocsPerRun(2000, func() { eng.Feed(next()) })
	if allocs != 0 {
		t.Fatalf("steady-state Engine.Feed allocates %.3f times per report, want 0", allocs)
	}
	if len(eng.ants) != 4 || len(eng.df.streams) != 120 {
		t.Fatalf("engine holds %d vantages and %d streams, want 4 and 120", len(eng.ants), len(eng.df.streams))
	}
}

// TestEngineFeedHostileMatchesReference feeds what the slot cache does
// not cover — channels below 0 and at or above 65536, 1000 tag IDs on
// one vantage, a second user with the same tag IDs on a shared
// vantage, more vantages than the scan covers — and retires a vantage
// mid-stream. The fused bins must match the reference bit for
// bit throughout.
func TestEngineFeedHostileMatchesReference(t *testing.T) {
	eng := NewEngine(Config{}, EngineOptions{Window: 25, TickStride: 1, UserID: 7})
	ref := newFeedReference()
	channels := []int{0, 3, -1, -70000, 63, 64, 65535, 65536, 1 << 20}
	const n = 30000
	for i := 0; i < n; i++ {
		ts := time.Duration(i) * 3 * time.Millisecond
		var r reader.TagReport
		switch i % 4 {
		case 0: // 1000 tags on one vantage
			r = hostileReport("r1", 2, 7, uint32(1+(i/4)%1000), (i/4000)%10, ts, float64(i)*0.11)
		case 1: // hostile channels
			r = hostileReport("r1", 1, 7, uint32(1+(i/4)%3), channels[(i/4)%len(channels)], ts, float64(i)*0.23)
		case 2: // a second user with the same tag IDs on the same vantage
			r = hostileReport("r1", 1, 8, uint32(1+(i/4)%3), (i/8)%12, ts, float64(i)*0.05)
		default: // many vantages, the unnamed reader's among them
			r = hostileReport([2]string{"", "r2"}[(i/4)%2], (i/8)%20-3, 7, 1, (i/16)%5, ts, float64(i)*0.07)
		}
		eng.Feed(r)
		ref.feed(r)
		if i == n/3 || i == n/2 {
			eng.CloseVantage("r1", 1)
			ref.closeVantage("r1", 1)
			eng.CloseVantage("nobody", 1) // unknown vantages are a no-op
			ref.closeVantage("nobody", 1)
		}
		if i%5000 == 0 {
			compareFeed(t, eng, ref, ts.Seconds())
		}
	}
	compareFeed(t, eng, ref, (n * 3 * time.Millisecond).Seconds())
	if g := eng.df.tagsOn(eng.ants[0].ri, 2); g != 1000 {
		t.Fatalf("vantage r1/2 saw %d tags, want 1000", g)
	}
}

// FuzzEngineFeed feeds arbitrary reader, antenna, user, tag, channel
// and timestamp values (and vantage retirements) through Engine.Feed
// and through the slot-free reference; their fused bins must agree bit
// for bit.
func FuzzEngineFeed(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 3, 10, 1, 1, 1, 0, 3, 10, 1, 2, 2, 0, 4, 10})
	f.Add([]byte{0x21, 0xff, 7, 0x80, 0x00, 40, 0x42, 0x01, 9, 0x7f, 0xff, 200, 0x09, 0x03, 7, 0x00, 0x02, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine(Config{}, EngineOptions{Window: 25, TickStride: 1, UserID: 1})
		ref := newFeedReference()
		var ts time.Duration
		for ; len(data) >= 6; data = data[6:] {
			b := data[:6]
			readerID := [4]string{"", "a", "b", "c"}[b[0]&3]
			port := int(int8(b[1]))
			if b[0]>>3 == 0 {
				eng.CloseVantage(readerID, port)
				ref.closeVantage(readerID, port)
				continue
			}
			ch := int(int16(binary.BigEndian.Uint16(b[3:5])))
			if ch > 16000 {
				ch <<= 3 // past 65535
			}
			ts += time.Duration(int8(b[5])) * time.Millisecond
			r := hostileReport(readerID, port, uint64(1+b[0]>>2&1), uint32(b[2])*977, ch, ts, float64(b[1])*0.31+float64(b[5])*0.07)
			eng.Feed(r)
			ref.feed(r)
		}
		compareFeed(t, eng, ref, ts.Seconds())
	})
}
