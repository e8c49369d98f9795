package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// genProc is the parent's handle on the generator process.
type genProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addrs  []string
	scheds []schedule
	events chan genEvent
	// stash holds events read while awaiting another.
	stash []genEvent
	// conns counts the connections the system opened per reader; the
	// generator numbers them the same way.
	conns  []int
	closed bool
}

// startGen launches the generator for w and waits until its corpora
// are built and its listeners are up. The first probes connections on
// every reader are set-up probes (see generator.stream).
func startGen(w workload, seed int64, seconds float64, probes int) (*genProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("ledgerbench: locate own binary: %w", err)
	}
	cmd := exec.Command(self, "gen",
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-users", strconv.Itoa(w.users),
		"-speed", strconv.FormatFloat(w.speed, 'g', -1, 64),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-probes", strconv.Itoa(probes))
	// One P per reader: each reader's stream goroutine blocks in
	// nanosleep(2) between flushes, and with a single P a second
	// stream due at the same instant waits until sysmon retakes the P
	// from the sleeper: on a 2-vCPU VM that put the flush p99 15 ms late.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(len(w.readers)))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("ledgerbench: start generator: %w", err)
	}
	g := &genProc{cmd: cmd, stdin: stdin, events: make(chan genEvent, 16), conns: make([]int, len(w.readers))}
	go func() {
		defer close(g.events)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			var ev genEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				g.events <- ev
			}
		}
	}()
	ready, err := g.await("ready", 0, 0, 120*time.Second)
	if err != nil {
		g.close()
		return nil, err
	}
	g.addrs, g.scheds = ready.Addrs, ready.Scheds
	return g, nil
}

// openConns reserves the next connection number on every reader, for
// a system about to connect to all of them.
func (g *genProc) openConns() []int {
	n := make([]int, len(g.conns))
	for i := range g.conns {
		n[i] = g.conns[i]
		g.conns[i]++
	}
	return n
}

// await returns the event ev for reader ri's connection n, keeping any
// other event for a later call.
func (g *genProc) await(ev string, ri, n int, timeout time.Duration) (genEvent, error) {
	match := func(e genEvent) bool { return e.Ev == ev && (ev == "ready" || e.Reader == ri && e.Conn == n) }
	for i, e := range g.stash {
		if match(e) {
			g.stash = append(g.stash[:i], g.stash[i+1:]...)
			return e, nil
		}
	}
	deadline := time.After(timeout)
	for {
		select {
		case e, ok := <-g.events:
			if !ok {
				return genEvent{}, fmt.Errorf("ledgerbench: generator exited before %q of reader %d connection %d", ev, ri, n)
			}
			if match(e) {
				return e, nil
			}
			g.stash = append(g.stash, e)
		case <-deadline:
			return genEvent{}, fmt.Errorf("ledgerbench: no %q from the generator for reader %d connection %d within %v", ev, ri, n, timeout)
		}
	}
}

// stop ends the running closed-loop streams at their next write.
func (g *genProc) stop() error {
	_, err := io.WriteString(g.stdin, "stop\n")
	return err
}

// close ends the generator and waits for it to exit.
func (g *genProc) close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.stdin.Close()
	for range g.events {
	}
	return g.cmd.Wait()
}
