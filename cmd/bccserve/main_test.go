package main

// Lifecycle tests: the handler behavior itself is tested in
// internal/serve; this file covers what the command owns — flag
// parsing, the hardened http.Server, and the graceful drain.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestRunRejectsBadFlags: flag errors surface instead of starting a
// listener.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-store", "/dev/null/not-a-dir"}, io.Discard); err == nil {
		t.Fatal("unusable store directory accepted")
	}
}

// TestServeUntilDrainsInflight is the graceful-shutdown contract: a
// request already being handled when shutdown begins runs to
// completion and its client reads a full 200, while the listener stops
// accepting new work.
func TestServeUntilDrainsInflight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	block := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
		fmt.Fprintln(w, "slow but complete")
	})

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, ln, h, 5*time.Second, io.Discard) }()

	var wg sync.WaitGroup
	wg.Add(1)
	var body string
	var reqErr error
	go func() {
		defer wg.Done()
		res, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			reqErr = err
			return
		}
		defer res.Body.Close()
		b, err := io.ReadAll(res.Body)
		if err != nil {
			reqErr = err
			return
		}
		if res.StatusCode != 200 {
			reqErr = fmt.Errorf("status %d", res.StatusCode)
			return
		}
		body = string(b)
	}()

	<-entered // the request is in flight
	cancel()  // shutdown begins while it is
	// Give Shutdown a moment to close the listener, then prove new
	// connections are refused while the old request still drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
		if err != nil {
			break // listener closed: drain mode
		}
		// A probe that won the race with Shutdown is a connection that
		// never sends a request. The server counts it as idle only after
		// 5s, the whole drain bound, so it must not outlive the probe.
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting long after shutdown began")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(block) // let the in-flight request finish
	wg.Wait()
	if reqErr != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", reqErr)
	}
	if !strings.Contains(body, "slow but complete") {
		t.Fatalf("in-flight response truncated: %q", body)
	}
	if err := <-served; err != nil {
		t.Fatalf("serveUntil returned %v after a clean drain", err)
	}
}

// TestServeUntilDrainBound: a request that outlives the drain window is
// cut loose and serveUntil reports the incomplete drain instead of
// hanging the deploy forever.
func TestServeUntilDrainBound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	})

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serveUntil(ctx, ln, h, 50*time.Millisecond, io.Discard) }()
	go http.Get("http://" + ln.Addr().String() + "/")
	<-entered
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("expired drain reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil hung past its drain bound")
	}
}

// TestRunServesAndDrainsOnSignal runs the real command end to end:
// parse flags, bind an ephemeral port, answer /healthz, then drain
// cleanly when the process receives SIGTERM (run's context comes from
// signal.NotifyContext in main; here the test sends the real signal to
// itself through an equivalent NotifyContext-shaped cancel).
func TestRunServesAndDrainsOnSignal(t *testing.T) {
	var stdout syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-mem", "4", "-quick"}, &stdout)
	}()

	// The readiness line carries the bound address.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no readiness line; output %q", stdout.String())
		}
		if line := stdout.String(); strings.Contains(line, "listening on ") {
			addr = strings.TrimSpace(strings.SplitN(line, "listening on ", 2)[1])
			addr = strings.SplitN(addr, "\n", 2)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	res, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("healthz: %d", res.StatusCode)
	}

	cancel() // what SIGTERM does to main's NotifyContext
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit after shutdown")
	}
	if out := stdout.String(); !strings.Contains(out, "drained") {
		t.Fatalf("no drain confirmation in output: %q", out)
	}
}

// TestMainHandlesRealSignal: signal.NotifyContext in main is the one
// line the ctx-based tests above cannot cover; prove the wiring by
// sending this process a real SIGTERM and watching a NotifyContext
// fire. (Sent only once the handler is registered, so the test binary
// itself is never killed.)
func TestMainHandlesRealSignal(t *testing.T) {
	ctx, stop := contextWithSignals()
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the signal context")
	}
}

// syncBuffer is a mutex-guarded buffer: run writes the readiness line
// from its goroutine while the test polls String.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeUntilSurfacesListenerFailure: a listener that dies in the
// same instant the shutdown signal lands must not hide behind a
// clean-looking drain — whichever select branch wins, serveUntil
// returns the failure.
func TestServeUntilSurfacesListenerFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- serveUntil(ctx, ln, http.NotFoundHandler(), time.Second, io.Discard)
	}()
	// Prove the accept loop is live before killing it — otherwise a
	// fast cancel can shut the server down before Serve ever touches
	// the listener, and no failure exists to surface.
	if res, err := http.Get("http://" + ln.Addr().String() + "/"); err != nil {
		t.Fatal(err)
	} else {
		res.Body.Close()
	}
	ln.Close() // Serve fails with "use of closed network connection"
	cancel()   // ...racing the shutdown signal
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("dead listener reported as a clean drain")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil hung on a dead listener")
	}
}

// TestRunValidatesRobustnessFlags: the chaos and breaker/timeout knobs
// fail loudly at startup rather than silently degrading requests.
func TestRunValidatesRobustnessFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"chaos without -dev":    {"-chaos", "err=1"},
		"malformed chaos plan":  {"-dev", "-chaos", "bogus:err=1"},
		"chaos rate over 1":     {"-dev", "-chaos", "err=2"},
		"negative put timeout":  {"-objstore-put-timeout", "-1s"},
		"zero breaker failures": {"-breaker-failures", "0"},
		"zero cooldown":         {"-breaker-cooldown", "0"},
	} {
		if err := run(context.Background(), append(args, "-addr", "127.0.0.1:0"), io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRunValidatesWarmFlags: a malformed -warm spec or an unusable poll
// interval aborts startup — a warming typo in a unit file must not
// silently serve without its campaign.
func TestRunValidatesWarmFlags(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"warm spec missing seeds": {[]string{"-warm", "ids=E20"}, "-warm: "},
		"warm spec unknown key":   {[]string{"-warm", "ids=E20&seeds=1&bogus=2"}, "unknown sweep key"},
		"warm spec bad seed":      {[]string{"-warm", "ids=E20&seeds=x"}, "bad seed"},
		"zero warm poll":          {[]string{"-warm", "ids=E20&seeds=1", "-warm-poll", "0s"}, "-warm-poll must be positive"},
	} {
		err := run(context.Background(), append(tc.args, "-addr", "127.0.0.1:0"), io.Discard)
		if err == nil {
			t.Errorf("%s accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %q, want substring %q", name, err, tc.want)
		}
	}
}

// TestRunWarmCampaign: `bccserve -warm` computes the campaign grid
// beside the live server, reports completion on stdout, and the warmed
// cell then serves as a cache hit — startup warming end to end.
func TestRunWarmCampaign(t *testing.T) {
	var stdout syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-mem", "4",
			"-warm", "ids=E20&seeds=1&quick=true", "-warm-poll", "1ms",
		}, &stdout)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no readiness line; output %q", stdout.String())
		}
		if line := stdout.String(); strings.Contains(line, "listening on ") {
			addr = strings.TrimSpace(strings.SplitN(line, "listening on ", 2)[1])
			addr = strings.SplitN(addr, "\n", 2)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	deadline = time.Now().Add(60 * time.Second)
	for !strings.Contains(stdout.String(), "warm campaign done: 1 cells") {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never completed; output %q", stdout.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err := http.Get("http://" + addr + "/tables/E20?seed=1&quick=true")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 200 || res.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warmed cell: status %d X-Cache %q, want a 200 hit",
			res.StatusCode, res.Header.Get("X-Cache"))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on shutdown after warming", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit after shutdown")
	}
}
