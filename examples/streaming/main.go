// Streaming: the full distributed deployment in one process. An LLRP
// server (the reader emulator, playing the Impinj R420's role) listens
// on a loopback TCP port; the host side runs a managed LLRP session
// (playing the paper's LLRP-Toolkit role) that connects, drives the
// ROSpec lifecycle — and would redial with backoff and re-provision if
// the link ever died — feeding the decoded tag reports into the
// realtime Monitor, which prints breathing-rate updates as they emerge:
// the paper's Fig. 11 pipeline end to end.
//
// Every stage is instrumented through a shared metrics registry, and a
// debug HTTP server exposes the whole pipeline on /metrics and /healthz
// while it runs — the same wiring `-debug-addr` enables in the CLIs.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"tagbreathe"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
)

func main() {
	// --- Observability: one registry shared by both ends of the wire
	// and the monitor, exposed over HTTP for the lifetime of the run.
	metrics := tagbreathe.NewMetricsRegistry()
	debug, err := tagbreathe.ServeDebug("127.0.0.1:0", metrics)
	if err != nil {
		log.Fatalf("debug server: %v", err)
	}
	defer debug.Close()
	fmt.Printf("debug server on http://%s/metrics\n", debug.Addr())

	// --- Reader side: an LLRP server backed by the simulator. Each
	// started ROSpec replays a 90-second, two-user session unpaced
	// (pace 0 would be realtime in production; here we want the demo
	// to finish quickly, and stream time is carried by timestamps).
	server, err := llrp.NewServer(llrp.ServerConfig{
		KeepaliveEvery: 2 * time.Second,
		Metrics:        tagbreathe.NewLLRPServerMetrics(metrics),
		NewSource: func() llrp.ReportSource {
			return llrp.ReportSourceFunc(func(ctx context.Context, emit func(reader.TagReport) error) error {
				sc := tagbreathe.DefaultScenario()
				sc.Users = tagbreathe.SideBySide(2, 4, 10, 15)
				sc.Duration = 90 * time.Second
				sc.Seed = 11
				return sc.Stream(func(r reader.TagReport) {
					if ctx.Err() != nil {
						return
					}
					_ = emit(r)
				}, nil)
			})
		},
	})
	if err != nil {
		log.Fatalf("server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	//tagbreathe:allow goroutineleak Serve returns when the deferred server.Close below tears the listener down
	go func() {
		_ = server.Serve(ln)
	}()
	defer server.Close()
	fmt.Printf("reader emulator listening on %s\n", ln.Addr())

	// --- Host side: a managed session owns the whole connection
	// lifecycle. It dials, configures the reader, and provisions the
	// ROSpec; if the link later drops it redials with exponential
	// backoff, re-provisions, and keeps delivering on the same Reports
	// channel — the consumer below never re-wires. The watchdog redials
	// a link that goes silent past three keepalive periods.
	session, err := tagbreathe.StartLLRPSession(context.Background(),
		tagbreathe.LLRPSessionConfig{
			Addr:          ln.Addr().String(),
			ROSpec:        tagbreathe.ROSpecConfig{ROSpecID: 1, ReportEveryN: 32},
			Watchdog:      6 * time.Second,
			ClientMetrics: tagbreathe.NewLLRPClientMetrics(metrics),
			Metrics:       tagbreathe.NewLLRPSessionMetrics(metrics),
		})
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	defer session.Close()
	// /healthz reports 503 whenever the reader link is down.
	debug.AddHealthCheck("llrp_session", session.Healthy)
	fmt.Println("session started; streaming low-level data over LLRP")

	// --- Pipeline: reports from the wire go straight into the
	// realtime monitor; updates print as the stream advances. The
	// streaming filter mode keeps each analysis tick O(new samples):
	// the incremental engine fuses reports into bins as they arrive
	// and pushes only newly finalized bins through a causal filter
	// chain, instead of re-filtering the whole 25 s window every tick.
	// The trade is the filter's group delay (~2.9 s at the breathing
	// band), so updates reflect breaths from a moment ago — the
	// right trade for a long-lived ward deployment, where tick cost is
	// paid per user forever. Omit Filter (or set FilterFFT) for the
	// paper's recompute-every-tick reference behavior.
	monitor := tagbreathe.NewMonitor(tagbreathe.MonitorConfig{
		Pipeline:    tagbreathe.Config{Filter: tagbreathe.FilterFIRStreaming},
		UpdateEvery: 10 * time.Second,
		Metrics:     tagbreathe.NewMonitorMetrics(metrics),
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for u := range monitor.Updates() {
			fmt.Printf("  t=%5.1fs  user %x  %5.1f bpm  (%d reads on antenna %d)\n",
				u.Time.Seconds(), u.UserID, u.RateBPM, u.Reads, u.AntennaPort)
		}
	}()

	// A real deployment consumes Reports forever; the reader keeps the
	// connection alive after the ROSpec drains, and the session keeps
	// the channel open across any reconnects. For the demo, an idle
	// timeout detects that the replayed session is complete.
	var total int
	idle := time.NewTimer(3 * time.Second)
loop:
	for {
		select {
		case r, ok := <-session.Reports():
			if !ok {
				break loop
			}
			total++
			monitor.Ingest(r)
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(3 * time.Second)
		case <-idle.C:
			break loop
		}
	}
	// --- What did the pipeline look like from the outside? Scrape our
	// own debug server the way an operator (or Prometheus) would —
	// /healthz while the session is still up (after Close it would
	// honestly report degraded), /metrics after the stream settles.
	base := "http://" + debug.Addr()
	health, err := fetch(base + "/healthz")
	if err != nil {
		log.Fatalf("healthz: %v", err)
	}
	fmt.Printf("healthz: %s\n", strings.TrimSpace(health))

	if err := session.Close(); err != nil {
		log.Printf("session close: %v", err)
	}
	monitor.CloseInput()
	<-done

	fmt.Printf("stream ended after %d reports (%d reconnects)\n",
		total, session.Reconnects())

	exposition, err := fetch(base + "/metrics")
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	fmt.Println("selected metrics:")
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		for _, prefix := range []string{
			"tagbreathe_monitor_reports_ingested_total",
			"tagbreathe_monitor_updates_total",
			"tagbreathe_antenna_score",
			"tagbreathe_llrp_server_reports_streamed_total",
			"tagbreathe_llrp_client_reports_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
}

// fetch GETs a URL and returns the body, insisting on a 200.
func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return string(body), nil
}
