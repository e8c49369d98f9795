package load

import (
	"context"
	"fmt"
	"net"
	"time"

	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sim"
)

// RunWirePoint measures one capacity point over the LLRP wire path: a
// loopback server streams the synthetic load through real framing and
// a real TCP socket, a managed session decodes it, and the decoded
// stream drives the monitor. It prices what in-process points skip —
// encode, batch, socket, decode — so it stays honest at smaller K; the
// in-process sweep owns the 10⁵-user territory.
//
// CPUSeconds covers server, client, and monitor together (one
// process), which is exactly the deployment shape of an edge node
// reading its own llrpsim.
func RunWirePoint(opts Options) (Point, error) {
	opts.fillDefaults()
	probe, err := sim.NewSynth(sim.SynthConfig{
		Users:       opts.Users,
		TagsPerUser: opts.TagsPerUser,
		PerTagHz:    opts.PerTagHz,
		Seed:        opts.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	steps := probe.Steps(opts.Stream)
	total := steps * probe.ReportsPerStep()
	if steps == 0 {
		return Point{}, fmt.Errorf("load: stream %v too short for one read step at %v Hz",
			opts.Stream, opts.PerTagHz)
	}

	srv, err := llrp.NewServer(llrp.ServerConfig{
		NewSource: func() llrp.ReportSource {
			// A fresh generator per ROSpec run, same config: replays
			// are identical.
			syn, err := sim.NewSynth(sim.SynthConfig{
				Users:       opts.Users,
				TagsPerUser: opts.TagsPerUser,
				PerTagHz:    opts.PerTagHz,
				Seed:        opts.Seed,
			})
			return llrp.ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
				if err != nil {
					return err
				}
				buf := make([]reader.TagReport, 0, syn.ReportsPerStep())
				for k := 0; k < steps; k++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					buf = syn.Next(buf[:0])
					for _, r := range buf {
						if err := emit(r); err != nil {
							return err
						}
					}
				}
				return nil
			})
		},
	})
	if err != nil {
		return Point{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Point{}, err
	}
	served := make(chan struct{})
	//tagbreathe:allow goroutineleak Serve returns after srv.Close below, and RunWirePoint always receives from served
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	pt := startPointRun(opts, total)
	m := pt.m

	// Traced session: sampled reports are stamped at frame decode, so
	// wire e2e latency includes the read→ingest hop the in-process path
	// can't see. One attempt only: a failed connect closes Reports.
	cpu0 := processCPUSeconds()
	start := time.Now()
	//tagbreathe:allow ctxflow the point owns the session; the deferred Close ends it
	sess, err := llrp.StartSession(context.Background(), llrp.SessionConfig{
		Addr:        ln.Addr().String(),
		ROSpec:      llrp.ROSpecConfig{ROSpecID: 1, ReportEveryN: 64},
		MaxAttempts: 1,
		Tracer:      pt.tracer,
	})
	if err != nil {
		m.Stop()
		return Point{}, err
	}
	defer sess.Close()

	received := 0
	deadline := time.After(5 * time.Minute)
pump:
	for received < total {
		select {
		case r, ok := <-sess.Reports():
			if !ok {
				break pump
			}
			m.Ingest(r)
			received++
		case <-deadline:
			m.Stop()
			//tagbreathe:allow errwrap sess.Err() is nil on a pure stall; the text is supplementary context, not the cause chain
			return Point{}, fmt.Errorf("load: wire point stalled at %d/%d reports (session err: %v)",
				received, total, sess.Err())
		}
	}
	if received != total {
		m.Stop()
		//tagbreathe:allow errwrap sess.Err() may be nil when the session closes short; the text is supplementary context
		return Point{}, fmt.Errorf("load: wire stream ended at %d/%d reports (session err: %v)",
			received, total, sess.Err())
	}
	// A reconnect replays the load from its start into the same stream.
	if n := sess.Reconnects(); n > 0 {
		m.Stop()
		return Point{}, fmt.Errorf("load: wire session reconnected %d times", n)
	}
	return pt.finish(start, cpu0)
}
