// Command bccserve serves the paper-reproduction tables over HTTP, on
// top of the tiered result store and the concurrent scheduler: cached
// tables are answered from the fastest tier that holds them (in-memory
// hot table → disk store → shared object bucket), misses are computed
// on demand (once — concurrent identical requests share a single
// computation), and every computed table is persisted so no
// (experiment, seed, quick) pair is ever paid for twice — by this
// replica or, with -objstore and -fleet, by any replica in the fleet.
//
// The handlers live in internal/serve (so tests and the root
// Benchmark_ServeHit drive them in-process); this command owns flags
// and lifecycle. The listener runs behind a configured http.Server —
// ReadHeaderTimeout against slowloris clients, IdleTimeout to reap
// abandoned keep-alives — and SIGINT/SIGTERM trigger a graceful drain:
// the listener closes, in-flight requests run to completion (bounded by
// -drain), then the process exits 0.
//
// Endpoints (full reference with examples: docs/api.md):
//
//	GET /healthz
//	    Readiness view: {"status":"ok"} while every dependency breaker
//	    is closed, {"status":"degraded"} with the open-breaker list and
//	    per-dependency state/last-error otherwise. HTTP 200 either way
//	    — a degraded replica still answers every request.
//	GET /tables[?seed=N&quick=BOOL]
//	    Lists every registry experiment with its title and whether the
//	    table for the given parameters is already cached.
//	GET /tables/{id}?seed=N&quick=BOOL&format=json|md&cached=only
//	    Returns one table: canonical JSON (default) or the markdown
//	    view — stored bytes either way; the hit path never re-encodes.
//	    ETag is the quoted fingerprint; If-None-Match answers 304. The
//	    X-Cache response header says hit (served from the store) or
//	    miss (computed for this request); X-Cache-Tier names the
//	    answering tier on a hit; X-Fingerprint names the object; a JSON
//	    body carries its SHA-256 in Repr-Digest. With cached=only the
//	    server never computes: it answers 200 from its local tiers or
//	    404 — the wire contract of the fleet owner fetch, which cannot
//	    recurse. A full compute queue is 429 with Retry-After; a request
//	    that outlives -timeout is 504.
//	HEAD /tables/{id}?seed=N&quick=BOOL
//	    The fleet cache probe: 200 if this replica's local tiers hold
//	    the table, 202 if a computation for it is in flight right now,
//	    404 if cold — never computes, never contacts anyone.
//	POST /sweep?ids=E13,E20&seeds=1-8&quick=true   (or a JSON body)
//	    The batch endpoint: one request names a grid (ids × seeds ×
//	    quick), admitted into the compute queue ONCE for the whole
//	    grid, streamed back as NDJSON — one {"cell":…} row per
//	    completion, a terminal {"summary":…} row. Cells ride the
//	    ordinary single-flight flights, so overlapping sweeps and GETs
//	    still compute each fingerprint exactly once. Disconnecting
//	    cancels the unscheduled remainder.
//	GET /stats
//	    Store, per-tier, queue, compute-latency, in-flight, fleet, and
//	    circuit-breaker statistics.
//
// Usage:
//
//	bccserve [-addr :8344] [-store DIR] [-mem N] [-objstore DIR]
//	         [-fleet URL,URL,...] [-seed N] [-quick]
//	         [-workers N] [-parallel N] [-queue N] [-timeout D]
//	         [-drain D] [-objstore-put-timeout D]
//	         [-breaker-failures N] [-breaker-cooldown D]
//	         [-warm SPEC [-warm-poll D]]
//	         [-dev [-chaos PLAN]]
//
// Every remote dependency — the shared bucket (reads and writes
// separately), each fleet owner — runs behind a circuit breaker:
// -breaker-failures consecutive failures open it, requests then skip
// that dependency in microseconds (responses carry X-Degraded naming
// the bypassed dependencies), and after -breaker-cooldown one probe
// decides whether to re-admit it. -objstore-put-timeout bounds each
// write-through.
//
// -warm SPEC runs a startup warming campaign beside the server: the
// sweep grid (compact grammar, e.g. 'ids=E13,E20&seeds=1-8&quick=true')
// is walked one cell at a time through IDLE scheduler capacity only —
// re-checked every -warm-poll — so warming never competes with live
// traffic for compute slots. With -fleet, the campaign warms only the
// cells this replica owns, so a fleet-wide rollout warms each
// fingerprint exactly once. The external equivalent for deploy scripts
// is cmd/bccwarm.
//
// -chaos (dev only, requires -dev) injects deterministic faults into
// the named dependencies for resilience testing, e.g.
// 'objstore:err=1;fleet:lat=6s,for=30s' — see docs/api.md for the spec
// grammar.
//
// The store stack is assembled from the flags, fastest tier first:
// -mem N is the in-process hot-table LRU (L0, N tables; 0 disables),
// -store DIR the durable disk store (L1), and -objstore DIR the fleet's
// WRITABLE shared object bucket (L2 — point every replica at one
// shared volume path and each table is computed once fleet-wide). Any
// subset works; with none of them the server still serves,
// deduplicating concurrent identical requests in memory only. -store
// honors the BCC_STORE environment variable as its default, so a
// server and local benchmark runs share one corpus without repeating
// the flag.
//
// -fleet takes the full static replica list (comma-separated URLs,
// FIRST entry is this replica) and turns the replicas into one logical
// cache: every fingerprint gets exactly one owner (rendezvous
// hashing), non-owners resolve from the shared bucket or the owner
// (probe → cached fetch / in-flight wait / full proxy, every fetched
// body checked against the owner's Repr-Digest), and any owner failure
// degrades to ordinary local compute. See ARCHITECTURE.md's fleet
// layer for the decision table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/breaker"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := contextWithSignals()
	defer stop()
	// Restore the default signal disposition the moment the first
	// signal lands: a second SIGINT/SIGTERM during the drain window
	// then kills the process immediately instead of being swallowed by
	// the still-registered handler.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bccserve:", err)
		os.Exit(1)
	}
}

// contextWithSignals returns a context canceled by SIGINT/SIGTERM — the
// drain trigger. Split from main so tests can exercise the real signal
// wiring.
func contextWithSignals() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// run parses flags, assembles the store stack, and serves until the
// context is canceled (a signal in production) or the listener fails.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bccserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address")
	storeDir := fs.String("store", os.Getenv("BCC_STORE"),
		"disk store directory (L1; default $BCC_STORE; empty with no $BCC_STORE: no disk tier)")
	memSize := fs.Int("mem", 64, "in-memory hot-table LRU capacity in tables (L0; 0 disables)")
	memBytes := fs.Int64("mem-bytes", 0, "approximate byte cap for the L0 hot-table LRU (0: entries-only; evicts LRU-first when resident encoded bytes exceed the cap)")
	objDir := fs.String("objstore", "", "shared object-store directory (writable shared L2; point every replica at one shared volume path)")
	fleetFlag := fs.String("fleet", "", "static fleet membership: comma-separated replica URLs, FIRST entry is this replica (enables rendezvous ownership + owner proxy/wait)")
	seed := fs.Uint64("seed", 2019, "default seed when a request omits ?seed=")
	quick := fs.Bool("quick", false, "default quick mode when a request omits ?quick=")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "total goroutine budget for on-demand computation")
	parallel := fs.Int("parallel", 2, "experiments computed concurrently")
	queue := fs.Int("queue", 16, "computations allowed to wait beyond the -parallel running ones before requests get 429 (-1: unbounded)")
	timeout := fs.Duration("timeout", 0, "per-request compute deadline (0: none); exceeded requests get 504")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown bound: how long in-flight requests may finish after SIGINT/SIGTERM")
	putTimeout := fs.Duration("objstore-put-timeout", objstore.DefaultPutTimeout,
		"bound on each write-through Put into the -objstore bucket")
	breakerFailures := fs.Int("breaker-failures", 5,
		"consecutive failures that open a dependency's circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 10*time.Second,
		"how long an open breaker waits before admitting its half-open probe")
	warm := fs.String("warm", "",
		"warming campaign: a sweep spec in the compact grammar (e.g. 'ids=E13,E20&seeds=1-8&quick=true') walked through idle scheduler capacity after startup")
	warmPoll := fs.Duration("warm-poll", 100*time.Millisecond,
		"how often the -warm campaign re-checks a busy scheduler before dispatching its next cell")
	dev := fs.Bool("dev", false, "development mode: permits -chaos")
	chaos := fs.String("chaos", "",
		"fault-injection plan, e.g. 'objstore:err=1;fleet:lat=6s' or a bare spec for all targets (requires -dev; see docs/api.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *putTimeout <= 0 {
		return fmt.Errorf("-objstore-put-timeout must be positive, got %s", *putTimeout)
	}
	if *breakerFailures < 1 {
		return fmt.Errorf("-breaker-failures must be at least 1, got %d", *breakerFailures)
	}
	if *breakerCooldown <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive, got %s", *breakerCooldown)
	}
	var warmSpec sweep.Spec
	if *warm != "" {
		var err error
		if warmSpec, err = sweep.ParseQueryString(*warm); err != nil {
			return fmt.Errorf("-warm: %w", err)
		}
	}
	if *warmPoll <= 0 {
		return fmt.Errorf("-warm-poll must be positive, got %s", *warmPoll)
	}
	if *chaos != "" && !*dev {
		// Refusing is deliberate: a chaos plan in a production unit file
		// (a copy-pasted dev invocation, say) must fail loudly at start,
		// not silently degrade every request.
		return errors.New("-chaos injects faults and requires -dev")
	}
	plan, err := fault.ParsePlan(*chaos)
	if err != nil {
		return err
	}

	breakers := breaker.NewSet(breaker.Options{Failures: *breakerFailures, Cooldown: *breakerCooldown})
	cfg := tier.Config{
		MemCapacity: *memSize, MemMaxBytes: *memBytes,
		Dir: *storeDir, ObjstoreDir: *objDir,
		ObjstorePutTimeout: *putTimeout,
		Breakers:           breakers,
	}
	// Chaos wiring wraps each targeted dependency's transport with a
	// seeded fault injector; untargeted dependencies run clean. The tier
	// stack and serve layer are unchanged — they see a flaky dependency,
	// exactly as production would.
	if spec, ok := plan[fault.TargetObjstore]; ok && *objDir != "" {
		fsc, err := objstore.NewFS(*objDir)
		if err != nil {
			return err
		}
		cfg.ObjstoreClient = fault.WrapObjectClient(fsc, fault.NewInjector(spec))
	}
	stack, err := tier.NewStack(cfg)
	if err != nil {
		return err
	}
	var flt *fleet.Fleet
	if *fleetFlag != "" {
		if flt, err = fleet.Parse(*fleetFlag); err != nil {
			return err
		}
	}
	// The scheduler's semaphore caps concurrent computations at
	// -parallel; splitting the -workers budget across those slots keeps
	// a fully loaded server at ~workers goroutines of measurement work.
	// Clamp before dividing, mirroring sched.New's own floor.
	if *parallel < 1 {
		*parallel = 1
	}
	perWorkers := *workers / *parallel
	if perWorkers < 1 {
		perWorkers = 1
	}
	opts := []sched.Option{}
	if *queue >= 0 {
		opts = append(opts, sched.WithQueue(*queue))
	}
	if flt != nil {
		// Metrics-only: the scheduler counts computations of non-owned
		// fingerprints (the fleet's degradation path) so /stats shows
		// how often ownership is being bypassed, without refusing the
		// work — a dead owner's fingerprints must stay computable here.
		opts = append(opts, sched.WithOwner(flt.Owns))
	}
	scheduler := sched.New(stack.Backend, *parallel, opts...)
	srv := &serve.Server{
		Sched:    scheduler,
		Stack:    stack,
		Registry: experiments.All,
		Seed:     *seed,
		Quick:    *quick,
		Workers:  perWorkers,
		Timeout:  *timeout,
		Fleet:    flt,
		Breakers: breakers,
	}
	if spec, ok := plan[fault.TargetFleet]; ok && flt != nil {
		srv.FleetClient = &http.Client{Transport: fault.WrapTransport(nil, fault.NewInjector(spec))}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if len(plan) > 0 {
		fmt.Fprintf(stdout, "bccserve CHAOS plan active: %s\n", plan)
	}
	// The line is machine-readable so scripts (and the CI smoke legs) can
	// wait for readiness and discover the bound port.
	fmt.Fprintf(stdout, "bccserve listening on %s\n", ln.Addr())
	if *warm != "" {
		// The campaign runs beside the server: it dispatches a cell
		// only when the scheduler is idle, so startup warming and live
		// traffic never fight for compute slots. Ownership filtering
		// means a fleet-wide rollout warms each fingerprint exactly
		// once — on its owner.
		campaign := &sweep.Campaign{
			Spec:     warmSpec,
			Sched:    scheduler,
			Registry: experiments.All,
			Workers:  perWorkers,
			Poll:     *warmPoll,
		}
		if flt != nil {
			campaign.Owns = flt.Owns
		}
		go func() {
			sum, err := campaign.Run(ctx)
			if err != nil {
				// A canceled campaign (shutdown mid-walk) is routine.
				fmt.Fprintf(stdout, "bccserve warm campaign stopped after %d cells: %v\n", sum.Cells, err)
				return
			}
			fmt.Fprintf(stdout, "bccserve warm campaign done: %d cells %v\n", sum.Cells, sum.Statuses)
		}()
	}
	return serveUntil(ctx, ln, srv.Handler(), *drain, stdout)
}

// serveUntil runs h behind a hardened http.Server on ln until ctx is
// canceled, then drains: the listener closes, in-flight requests get up
// to drain to complete, idle keep-alive connections are closed. The old
// bare http.Serve had no header-read timeout (one slowloris client per
// connection slot could starve the accept loop for free), no idle
// timeout (abandoned keep-alives pinned file descriptors forever), and
// no shutdown path at all — a deploy's SIGTERM truncated every
// in-flight response mid-body.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, stdout io.Writer) error {
	hs := &http.Server{
		Handler: h,
		// Generous bounds: table bodies are small, but computations
		// stream nothing — only the header read and connection idleness
		// need policing. Compute time is governed separately by
		// -timeout, so no WriteTimeout (it would truncate a legitimate
		// long computation's response).
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed on its own; nothing to drain.
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "bccserve draining (up to %s)\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		// The drain window expired with requests still in flight; cut
		// them loose rather than hang the deploy.
		hs.Close()
		return fmt.Errorf("drain incomplete after %s: %w", drain, err)
	}
	// Serve has returned by now (Shutdown waits for it); collect its
	// error so a listener that died in the same instant the signal
	// landed — both select cases ready, Go free to pick either — still
	// surfaces instead of hiding behind a clean-looking drain.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("listener failed during shutdown: %w", err)
	}
	fmt.Fprintln(stdout, "bccserve drained")
	return nil
}
