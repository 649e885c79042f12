package serve

// Degradation-matrix tests: every dependency failure mode the fault
// harness can produce — bucket down, bucket flapping, bucket
// corrupting, owner black-holed, owner dead, owner corrupting
// (ownerfetch_test.go) — must yield 100% request success, a truthful
// X-Degraded header once the breaker opens, and visible breaker
// transitions in /stats and /healthz. These are the end-to-end
// counterpart of the bucket tier's breaker tests in
// internal/store/objstore.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
)

// faultedServer wires a server whose ONLY store tier is a
// fault-wrapped in-memory bucket, with breakers attached: every table
// request must consult the bucket (no local tier shields it), so the
// injected faults hit the read and write paths on every round trip.
func faultedServer(t *testing.T, calls *atomic.Int64, spec fault.Spec, opts breaker.Options) (*Server, *breaker.Set) {
	t.Helper()
	bucket := fault.WrapObjectClient(objstore.NewMem(), fault.NewInjector(spec))
	set := breaker.NewSet(opts)
	stack, err := tier.NewStack(tier.Config{ObjstoreClient: bucket, Breakers: set})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(calls, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  1,
		Breakers: set,
	}, set
}

// TestDegradationMatrixObjstore drives the bucket failure modes. In
// every mode each request must succeed; in the deterministic modes the
// breakers must also open, stamp X-Degraded, and show in /healthz.
func TestDegradationMatrixObjstore(t *testing.T) {
	t.Run("down", func(t *testing.T) {
		// err=1: every bucket call fails. Reads fail on the way in, the
		// write-through fails on the way out, so both breakers open.
		var calls atomic.Int64
		srv, set := faultedServer(t, &calls, fault.Spec{Err: 1, Seed: 7},
			breaker.Options{Failures: 3, Cooldown: time.Hour})
		h := srv.Handler()
		for i := 0; i < 6; i++ {
			res, body := get(t, h, fmt.Sprintf("/tables/EX?seed=%d", i))
			if res.StatusCode != http.StatusOK {
				t.Fatalf("request %d: %d %s — a down bucket must cost nothing", i, res.StatusCode, body)
			}
		}
		open := set.Open()
		if len(open) != 2 || open[0] != tier.BreakerObjstore || open[1] != tier.BreakerObjstorePut {
			t.Fatalf("open breakers %v, want [objstore objstore-put]", open)
		}
		// Requests after the open are stamped degraded and short-circuit.
		res, _ := get(t, h, "/tables/EX?seed=100")
		if res.StatusCode != http.StatusOK {
			t.Fatalf("post-open request failed: %d", res.StatusCode)
		}
		if d := res.Header.Get("X-Degraded"); !strings.Contains(d, "objstore") {
			t.Fatalf("X-Degraded = %q, want the objstore breakers listed", d)
		}
		if st := srv.Stack.Obj.Stats(); st.GetShortCircuits == 0 || st.PutShortCircuits == 0 {
			t.Fatalf("objstore stats %+v, want get+put short circuits after open", st)
		}

		// /healthz flips to degraded but stays 200: the replica still
		// answers everything, which is the breaker's whole point.
		res, body := get(t, h, "/healthz")
		if res.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d, want 200 even while degraded", res.StatusCode)
		}
		var health struct {
			Status       string                       `json:"status"`
			Degraded     []string                     `json:"degraded"`
			Dependencies map[string]map[string]string `json:"dependencies"`
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatalf("parsing healthz %q: %v", body, err)
		}
		if health.Status != "degraded" || len(health.Degraded) != 2 {
			t.Fatalf("healthz = %+v, want degraded with both objstore breakers", health)
		}
		if dep := health.Dependencies[tier.BreakerObjstore]; dep["state"] != "open" || dep["last_error"] == "" {
			t.Fatalf("healthz objstore dependency = %v, want open with a last error", dep)
		}

		// /stats exposes the transitions.
		var stats struct {
			Breakers map[string]breaker.Stats `json:"breakers"`
		}
		_, statsBody := get(t, h, "/stats")
		if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
			t.Fatal(err)
		}
		bs := stats.Breakers[tier.BreakerObjstore]
		if bs.State != "open" || bs.Opens != 1 || bs.ShortCircuits == 0 {
			t.Fatalf("/stats objstore breaker %+v, want open with short circuits", bs)
		}
	})

	t.Run("corrupting", func(t *testing.T) {
		// corrupt=1: writes land damaged, so every re-read fails its
		// checksum — a flaky shared volume. Repeated damage opens the
		// get breaker; requests keep succeeding via compute.
		var calls atomic.Int64
		srv, set := faultedServer(t, &calls, fault.Spec{Corrupt: 1, Seed: 7},
			breaker.Options{Failures: 3, Cooldown: time.Hour})
		h := srv.Handler()
		for i := 0; i < 8; i++ {
			// The same key every time: the first request stores a
			// corrupted object, later ones read it and fail verification.
			res, body := get(t, h, "/tables/EX?seed=5")
			if res.StatusCode != http.StatusOK {
				t.Fatalf("request %d: %d %s — corruption must cost nothing", i, res.StatusCode, body)
			}
		}
		if got := set.Get(tier.BreakerObjstore).State(); got != breaker.Open {
			t.Fatalf("get breaker %v after repeated corrupt reads, want open", got)
		}
	})

	t.Run("flapping", func(t *testing.T) {
		// err=0.35: below the consecutive-failure threshold most of the
		// time. Whatever the breakers do, every request must succeed —
		// per-request degradation already covers sporadic failures.
		var calls atomic.Int64
		srv, _ := faultedServer(t, &calls, fault.Spec{Err: 0.35, Seed: 11},
			breaker.Options{Failures: 5, Cooldown: 10 * time.Millisecond})
		h := srv.Handler()
		for i := 0; i < 25; i++ {
			res, body := get(t, h, fmt.Sprintf("/tables/EX?seed=%d", i))
			if res.StatusCode != http.StatusOK {
				t.Fatalf("request %d against flapping bucket: %d %s", i, res.StatusCode, body)
			}
		}
	})
}

// TestOwnerBlackHoleLatencyCollapsesAfterBreakerOpens is the
// acceptance pin for the breaker's entire reason to exist: against a
// black-holed owner (every round trip hangs until its deadline), a
// non-owned cold request pays the full probe deadline before the owner
// breaker opens — and microseconds after. The test compares the two
// regimes directly.
func TestOwnerBlackHoleLatencyCollapsesAfterBreakerOpens(t *testing.T) {
	const bound = 150 * time.Millisecond
	defer func(d time.Duration) { probeTimeout = d }(probeTimeout)
	probeTimeout = bound
	// Any syntactically valid owner URL works: the fault transport
	// black-holes the request before a socket is ever dialed.
	const owner = "http://127.0.0.1:1"
	f, err := fleet.New("http://127.0.0.1:9", []string{owner})
	if err != nil {
		t.Fatal(err)
	}
	var ownerSeeds []int
	for s := 0; len(ownerSeeds) < 3 && s < 1000; s++ {
		if f.Owner(store.KeyFor("EX", result.Params{Seed: uint64(s), Quick: true}).Fingerprint) == owner {
			ownerSeeds = append(ownerSeeds, s)
		}
	}
	if len(ownerSeeds) < 3 {
		t.Fatal("rendezvous hashing assigned too little to the owner")
	}
	set := breaker.NewSet(breaker.Options{Failures: 2, Cooldown: time.Hour})
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2, sched.WithOwner(f.Owns)),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019, Quick: true, Workers: 1,
		Fleet:       f,
		FleetClient: &http.Client{Transport: fault.WrapTransport(nil, fault.NewInjector(fault.Spec{Timeout: 1, Seed: 3}))},
		Breakers:    set,
	}
	h := srv.Handler()

	timeRequest := func(seed int) (time.Duration, *http.Response) {
		start := time.Now()
		res, body := get(t, h, fmt.Sprintf("/tables/EX?seed=%d", seed))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, res.StatusCode, body)
		}
		return time.Since(start), res
	}

	// Cold requests before the breaker opens pay the probe deadline.
	before1, _ := timeRequest(ownerSeeds[0])
	before2, _ := timeRequest(ownerSeeds[1])
	if before1 < bound || before2 < bound {
		t.Fatalf("pre-open cold requests took %v/%v, want ≥ %v (the probe deadline)", before1, before2, bound)
	}
	ownerName := "owner:" + owner
	if got := set.Get(ownerName).State(); got != breaker.Open {
		t.Fatalf("owner breaker %v after 2 timeouts, want open", got)
	}

	// Post-open, the owner is skipped entirely: the cold path is pure
	// local compute, orders of magnitude under the deadline.
	after, res := timeRequest(ownerSeeds[2])
	if after >= bound/2 {
		t.Fatalf("post-open cold request took %v, want well under the %v probe deadline", after, bound)
	}
	if d := res.Header.Get("X-Degraded"); d != ownerName {
		t.Fatalf("X-Degraded = %q, want %q", d, ownerName)
	}
	if sc := srv.fleetC.ownerShortCircuits.Load(); sc != 1 {
		t.Fatalf("%d owner short circuits after open, want 1", sc)
	}
	if calls.Load() != 3 {
		t.Fatalf("estimator ran %d times, want one local compute per request", calls.Load())
	}
}

// TestOwnerDeathOpensOwnerBreaker: a dead owner costs each request one
// probe failure until its breaker opens, after which non-owned
// requests skip the owner in microseconds (owner_short_circuits) and
// advertise the degradation — while every request still succeeds via
// local compute.
func TestOwnerDeathOpensOwnerBreaker(t *testing.T) {
	tsA, tsB, urlA, urlB := twoUnstarted()
	// Kill the second replica before it ever serves: closing the
	// listener makes probes fail with an instant connection refusal
	// rather than hanging in the unstarted listener's accept backlog.
	tsB.Close()
	f, err := fleet.New(urlA, []string{urlB})
	if err != nil {
		t.Fatal(err)
	}
	// Collect seeds whose fingerprints the (about-to-die) other replica
	// owns; those are the ones this replica resolves owner-first.
	var deadOwned []int
	for s := 0; len(deadOwned) < 4 && s < 1000; s++ {
		k := store.KeyFor("EX", result.Params{Seed: uint64(s), Quick: true})
		if f.Owner(k.Fingerprint) == urlB {
			deadOwned = append(deadOwned, s)
		}
	}
	if len(deadOwned) < 4 {
		t.Fatal("rendezvous hashing assigned nothing to the second replica")
	}

	set := breaker.NewSet(breaker.Options{Failures: 2, Cooldown: time.Hour})
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, ObjstoreClient: objstore.NewMem(), Breakers: set})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2, sched.WithOwner(f.Owns)),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019, Quick: true, Workers: 1,
		Fleet:    f,
		Breakers: set,
	}
	tsA.Config.Handler = srv.Handler()
	tsA.Start()
	t.Cleanup(tsA.Close)
	// urlB was never started: the owner is dead from the first probe.

	h := srv.Handler()
	for i, seed := range deadOwned {
		res, body := get(t, h, fmt.Sprintf("/tables/EX?seed=%d", seed))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("request %d (seed %d): %d %s — a dead owner must cost nothing", i, seed, res.StatusCode, body)
		}
	}
	ownerName := "owner:" + urlB
	if got := set.Get(ownerName).State(); got != breaker.Open {
		t.Fatalf("owner breaker %v after repeated probe failures, want open", got)
	}
	if sc := srv.fleetC.ownerShortCircuits.Load(); sc == 0 {
		t.Fatal("no owner short-circuits recorded after the breaker opened")
	}
	// A post-open request is served locally and stamped degraded.
	res, _ := get(t, h, fmt.Sprintf("/tables/EX?seed=%d&quick=false", deadOwned[0]))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("post-open request: %d", res.StatusCode)
	}
	if d := res.Header.Get("X-Degraded"); !strings.Contains(d, ownerName) {
		t.Fatalf("X-Degraded = %q, want %q", d, ownerName)
	}
	if calls.Load() != int64(len(deadOwned))+1 {
		t.Fatalf("estimator ran %d times, want one per request (local-compute fallback)", calls.Load())
	}
}

// TestFleetWaitAbortsOnClientDisconnect pins the wait loop's context
// discipline: a request waiting on an owner's in-flight computation
// releases its goroutine within one backoff step of the client
// disconnecting — it does not ride out the owner's computation.
func TestFleetWaitAbortsOnClientDisconnect(t *testing.T) {
	// A fake owner that reports "in flight" forever: the waiter would
	// loop probe → sleep → probe until its context dies.
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	defer owner.Close()

	f, err := fleet.New("http://127.0.0.1:9", []string{owner.URL})
	if err != nil {
		t.Fatal(err)
	}
	// A key the fake owner owns (so fleetResolve probes it).
	var key store.Key
	found := false
	for s := 0; s < 1000 && !found; s++ {
		k := store.KeyFor("EX", result.Params{Seed: uint64(s), Quick: true})
		if f.Owner(k.Fingerprint) == owner.URL {
			key, found = k, true
		}
	}
	if !found {
		t.Fatal("no fingerprint owned by the fake owner")
	}
	stack, err := tier.NewStack(tier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Stack: stack, Fleet: f, Seed: 2019}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan time.Time, 1)
	go func() {
		_, _, _, _, ok := srv.fleetResolve(ctx, key)
		if ok {
			t.Error("wait on a never-finishing flight resolved")
		}
		done <- time.Now()
	}()
	// Let the loop settle into waiting, then hang up.
	time.Sleep(120 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	select {
	case returnedAt := <-done:
		// One backoff step is at most 1s (the policy cap, +20% jitter);
		// an abort that honors the context returns in milliseconds. 500ms
		// leaves slack for a slow CI machine while still catching a loop
		// that sleeps out a full uncancelled step (or worse, keeps
		// probing).
		if waited := returnedAt.Sub(canceledAt); waited > 500*time.Millisecond {
			t.Fatalf("wait loop took %v to honor the disconnect", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait loop never returned after client disconnect")
	}
}
