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
	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource: func() llrp.ReportSource {
			return llrp.ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
				return buildScenario().Stream(func(r reader.TagReport) {
					if ctx.Err() == nil {
						_ = emit(r)
					}
				}, nil)
			})
		},
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
	defer func() {
		srv.Close()
		<-done
	}()

	sess, err := tagbreathe.StartLLRPSession(context.Background(), tagbreathe.LLRPSessionConfig{
		Addr:        ln.Addr().String(),
		ROSpec:      tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 64},
		MaxAttempts: 1,
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
