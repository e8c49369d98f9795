package tagbreathe_test

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"tagbreathe"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// TestMappingTableDeployment exercises §IV-C's fallback path end to
// end: a deployment whose tags keep their factory EPCs. The report
// stream is rewritten through the commissioning registry's mapping
// table into the Fig. 9 layout, and the standard pipeline runs on the
// rewritten stream.
func TestMappingTableDeployment(t *testing.T) {
	sc := tagbreathe.DefaultScenario()
	sc.Duration = 90 * time.Second
	sc.Seed = 200
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]

	// Fabricate the factory world: map each commissioned EPC to a
	// distinct "factory" code and rewrite the stream so it looks like
	// tags that were never overwritten.
	factoryOf := map[tagbreathe.EPC96]tagbreathe.EPC96{}
	for ti := uint32(1); ti <= 3; ti++ {
		commissioned := tagbreathe.NewUserTagEPC(uid, ti)
		factory := tagbreathe.NewUserTagEPC(0x00E2_0034_1200_0000+uint64(ti), 0xBEEF0000+ti)
		factoryOf[commissioned] = factory
	}
	factoryStream := make([]tagbreathe.TagReport, len(res.Reports))
	copy(factoryStream, res.Reports)
	for i := range factoryStream {
		if f, ok := factoryOf[factoryStream[i].EPC]; ok {
			factoryStream[i].EPC = f
		}
	}

	// The deployment-side registry: teach it the factory EPCs.
	reg := tagbreathe.NewTagRegistry()
	for ti := uint32(1); ti <= 3; ti++ {
		commissioned := tagbreathe.NewUserTagEPC(uid, ti)
		reg.AddMapping(factoryOf[commissioned], tagbreathe.TagIdentity{UserID: uid, TagID: ti})
	}

	// Ingest: rewrite factory EPCs into the Fig. 9 layout; unknown
	// tags (none here) would be dropped.
	var rewritten []tagbreathe.TagReport
	for _, r := range factoryStream {
		if reg.Rewrite(&r) {
			rewritten = append(rewritten, r)
		}
	}
	if len(rewritten) != len(res.Reports) {
		t.Fatalf("rewrite dropped reports: %d vs %d", len(rewritten), len(res.Reports))
	}

	est, err := tagbreathe.EstimateUser(rewritten, uid, tagbreathe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	truth := res.TrueRateBPM[uid]
	if math.Abs(est.RateBPM-truth) > 1 {
		t.Errorf("mapping-table pipeline: %v vs truth %v bpm", est.RateBPM, truth)
	}

	// Control: the same factory stream WITHOUT the registry resolves
	// to three different "users" (the factory high-64s), so no single
	// user aggregates all three tags.
	direct, err := tagbreathe.Estimate(factoryStream, tagbreathe.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := direct[uid]; ok {
		t.Error("unrewritten factory stream should not contain the commissioned user ID")
	}
}

// TestLLRPFullSystem is the distributed deployment in miniature: the
// reader emulator behind an LLRP TCP server, a managed session driving
// the ROSpec lifecycle, the stream decoded off the wire, and the pipeline
// estimating from it — with the result matching a local (in-process)
// run of the identical scenario.
func TestLLRPFullSystem(t *testing.T) {
	buildScenario := func() *tagbreathe.Scenario {
		sc := tagbreathe.DefaultScenario()
		sc.Users = tagbreathe.SideBySide(2, 4, 9, 14)
		sc.Duration = 60 * time.Second
		sc.Seed = 201
		return sc
	}

	// Local truth.
	local, err := buildScenario().Run()
	if err != nil {
		t.Fatal(err)
	}

	// Remote: the same scenario replayed over the wire.
	addr := serveLLRP(t, func(ctx context.Context, emit func(reader.TagReport) error) error {
		return buildScenario().Stream(func(r reader.TagReport) {
			if ctx.Err() == nil {
				_ = emit(r)
			}
		}, nil)
	})

	sess, err := tagbreathe.StartLLRPSession(context.Background(), tagbreathe.LLRPSessionConfig{
		Addr:   addr,
		ROSpec: tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var wire []tagbreathe.TagReport
	idle := time.NewTimer(3 * time.Second)
collect:
	for {
		select {
		case r, ok := <-sess.Reports():
			if !ok {
				break collect
			}
			wire = append(wire, r)
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(3 * time.Second)
		case <-idle.C:
			break collect
		case <-time.After(60 * time.Second):
			t.Fatal("wire collection timed out")
		}
	}
	// A reconnect would replay the scenario from its start into the
	// same stream.
	if n := sess.Reconnects(); n > 0 {
		t.Fatalf("session reconnected %d times", n)
	}
	if len(wire) < len(local.Reports)*9/10 {
		t.Fatalf("wire delivered %d of %d reports", len(wire), len(local.Reports))
	}

	localEsts, err := tagbreathe.Estimate(local.Reports, tagbreathe.Config{Users: local.UserIDs})
	if err != nil {
		t.Fatal(err)
	}
	wireEsts, err := tagbreathe.Estimate(wire, tagbreathe.Config{Users: local.UserIDs})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range local.UserIDs {
		le, lok := localEsts[uid]
		we, wok := wireEsts[uid]
		if !lok || !wok {
			t.Fatalf("user %x missing: local %v wire %v", uid, lok, wok)
		}
		// Wire quantization (phase to 4096 steps it already had, RSSI
		// to centi-dBm) must not move the estimate materially.
		if math.Abs(le.RateBPM-we.RateBPM) > 0.2 {
			t.Errorf("user %x: local %v vs wire %v bpm", uid, le.RateBPM, we.RateBPM)
		}
	}
}

// TestLLRPWireMonitorLossless drives 50 synthetic users (one tag each at
// 2 Hz, 20 s) over a loopback LLRP session into a traced monitor under
// OverloadBlock: every report the server emits must reach the monitor
// and be processed, none dropped, updates must flow, and traces begun
// at frame decode must complete, so their end-to-end figure includes
// the read → ingest hop.
func TestLLRPWireMonitorLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("wire round trip in -short mode")
	}
	const stream = 20 * time.Second
	synthCfg := sim.SynthConfig{Users: 50, TagsPerUser: 1, PerTagHz: 2, Seed: 11}
	probe, err := sim.NewSynth(synthCfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := probe.Steps(stream)
	total := steps * probe.ReportsPerStep()

	addr := serveLLRP(t, func(ctx context.Context, emit func(reader.TagReport) error) error {
		syn, err := sim.NewSynth(synthCfg)
		if err != nil {
			return err
		}
		var buf []reader.TagReport
		for k := 0; k < steps; k++ {
			buf = syn.Next(buf[:0])
			for _, r := range buf {
				if err := emit(r); err != nil {
					return err
				}
			}
		}
		return ctx.Err()
	})

	tracer := tagbreathe.NewTracer(nil, tagbreathe.TracerConfig{SampleEvery: 64, RingSize: 4096})
	m := tagbreathe.NewMonitor(tagbreathe.MonitorConfig{
		Window:      10 * time.Second,
		UpdateEvery: 5 * time.Second,
		Tracer:      tracer,
	})
	defer m.Stop()
	counted := make(chan int, 1)
	go func() {
		n := 0
		for range m.Updates() {
			n++
		}
		counted <- n
	}()
	sess, err := tagbreathe.StartLLRPSession(context.Background(), tagbreathe.LLRPSessionConfig{
		Addr:   addr,
		ROSpec: tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 64},
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	deadline := time.After(time.Minute)
	for received := 0; received < total; received++ {
		select {
		case r, ok := <-sess.Reports():
			if !ok {
				t.Fatalf("session ended at %d of %d reports: %v", received, total, sess.Err())
			}
			m.Ingest(r)
		case <-deadline:
			t.Fatalf("wire stalled at %d of %d reports", received, total)
		}
	}
	// A reconnect would replay the stream from its start.
	if n := sess.Reconnects(); n > 0 {
		t.Fatalf("session reconnected %d times", n)
	}
	m.CloseInput()
	if n := <-counted; n == 0 {
		t.Error("no updates from the wire stream")
	}
	st := m.Stats()
	if st.Processed != uint64(total) || st.Dropped != 0 {
		t.Errorf("processed %d + dropped %d of %d reports under OverloadBlock", st.Processed, st.Dropped, total)
	}
	if tracer.Completed() == 0 {
		t.Fatal("no wire trace completed")
	}
	if p50 := tracer.EndToEnd().Quantile(0.50); p50 <= 0 {
		t.Errorf("e2e p50 %g s, want > 0", p50)
	}
}

// serveLLRP serves the reader emulator on a loopback port until the
// test ends, each ROSpec run streaming from a fresh call of src, and
// returns its address.
func serveLLRP(t *testing.T, src func(ctx context.Context, emit func(reader.TagReport) error) error) string {
	t.Helper()
	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource: func() llrp.ReportSource { return llrp.ReportSourceFunc(src) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}
