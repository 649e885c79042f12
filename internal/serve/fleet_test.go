package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
)

// fleetReplica is one in-process bccserve replica listening on a real
// socket (the fleet paths are HTTP: probes and proxies need a live
// listener, not a recorder).
type fleetReplica struct {
	url string
	ts  *httptest.Server
	srv *Server
}

func (r *fleetReplica) get(t *testing.T, path string) (*http.Response, string) {
	t.Helper()
	res, err := http.Get(r.url + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", r.url, path, err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

// newFleetReplica assembles one replica of a two-member fleet over the
// tiers cfg names: a fleet view where self is listed first and the
// owner-aware scheduler — the same wiring cmd/bccserve does from
// -fleet. configure, if given, adjusts the server before it serves.
func newFleetReplica(t *testing.T, ts *httptest.Server, self, other string, cfg tier.Config,
	reg func() []experiments.Experiment, configure ...func(*Server)) *fleetReplica {
	t.Helper()
	f, err := fleet.New(self, []string{other})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tier.NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2, sched.WithOwner(f.Owns)),
		Stack:    stack,
		Registry: reg,
		Seed:     2019,
		Quick:    true,
		Workers:  1,
		Fleet:    f,
	}
	for _, c := range configure {
		c(srv)
	}
	ts.Config.Handler = srv.Handler()
	ts.Start()
	t.Cleanup(ts.Close)
	return &fleetReplica{url: self, ts: ts, srv: srv}
}

// twoUnstarted returns two listening-but-not-serving httptest servers
// and their URLs — the fleet membership must be known before the
// handlers (which embed it) can be built.
func twoUnstarted() (a, b *httptest.Server, urlA, urlB string) {
	a, b = httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)
	return a, b, "http://" + a.Listener.Addr().String(), "http://" + b.Listener.Addr().String()
}

// TestFleetComputesOnceFleetWide is the acceptance scenario: two
// replicas share one object bucket; a cold fingerprint requested on
// BOTH replicas concurrently is computed exactly once fleet-wide — on
// the owner — and both callers get identical bytes. The non-owner
// never runs the estimator (its scheduler counters stay at zero).
func TestFleetComputesOnceFleetWide(t *testing.T) {
	var calls atomic.Int64
	reg := func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID:    "EX",
			Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				calls.Add(1)
				// Wide enough that the second replica's request overlaps
				// the flight and must take the wait-or-proxy path.
				time.Sleep(100 * time.Millisecond)
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)))
				return tab, nil
			},
		}}
	}
	bucket := objstore.NewMem()
	tsA, tsB, urlA, urlB := twoUnstarted()
	a := newFleetReplica(t, tsA, urlA, urlB, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, reg)
	b := newFleetReplica(t, tsB, urlB, urlA, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, reg)

	fp := store.KeyFor("EX", result.Params{Seed: 2019, Quick: true}).Fingerprint
	owner, nonOwner := a, b
	if a.srv.Fleet.Owner(fp) == b.url {
		owner, nonOwner = b, a
	}
	if got := nonOwner.srv.Fleet.Owner(fp); got != owner.url {
		t.Fatalf("replicas disagree on owner: %s vs %s", got, owner.url)
	}

	type outcome struct {
		status   int
		body     string
		servedBy string
		tier     string
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, r := range []*fleetReplica{owner, nonOwner} {
		wg.Add(1)
		go func(i int, r *fleetReplica) {
			defer wg.Done()
			res, body := r.get(t, "/tables/EX")
			results[i] = outcome{res.StatusCode, body,
				res.Header.Get("X-Served-By"), res.Header.Get("X-Cache-Tier")}
		}(i, r)
	}
	wg.Wait()

	for i, o := range results {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, o.status, o.body)
		}
		if o.servedBy == "" {
			t.Errorf("request %d: no X-Served-By under a fleet", i)
		}
	}
	if results[0].body != results[1].body {
		t.Errorf("replicas served different bytes:\n%s\nvs\n%s", results[0].body, results[1].body)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("estimator ran %d times fleet-wide, want exactly 1", n)
	}
	if m := owner.srv.Sched.Metrics(); m.Computed != 1 || m.ComputedForeign != 0 {
		t.Errorf("owner computed=%d foreign=%d, want 1/0", m.Computed, m.ComputedForeign)
	}
	if m := nonOwner.srv.Sched.Metrics(); m.Computed != 0 {
		t.Errorf("non-owner computed %d tables, want 0 — it should wait or proxy", m.Computed)
	}
	// The owner's write-through published the table for the fleet.
	if bucket.Len() != 1 {
		t.Errorf("bucket holds %d objects after one computation, want 1", bucket.Len())
	}
	// The non-owner either served bytes fetched from the owner
	// (X-Served-By: owner) or resolved via the shared bucket / wait path
	// (X-Served-By: self, tier objstore or fleet).
	no := results[1]
	if no.servedBy != owner.url && no.servedBy != nonOwner.url {
		t.Errorf("non-owner X-Served-By %q names no fleet member", no.servedBy)
	}
	// And a repeat on the non-owner is now a pure local/shared hit,
	// served by itself with zero new computations.
	res, _ := nonOwner.get(t, "/tables/EX")
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Cache") != "hit" {
		t.Errorf("non-owner repeat: status %d X-Cache %q, want warm hit", res.StatusCode, res.Header.Get("X-Cache"))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("repeat request recomputed: %d total runs", n)
	}
}

// TestFleetOwnerDeathFallsBackToLocalCompute: the owner dies with the
// flight still in progress; the surviving non-owner must answer 200 by
// computing locally (counted as a foreign computation) — ownership is
// an optimization, never a dependency.
func TestFleetOwnerDeathFallsBackToLocalCompute(t *testing.T) {
	fp := store.KeyFor("EX", result.Params{Seed: 2019, Quick: true}).Fingerprint
	tsA, tsB, urlA, urlB := twoUnstarted()
	// Ownership is pure in (members, fp), so it is known before the
	// servers are even built — assign the blocking registry to the owner
	// and the healthy one to the survivor.
	fView, err := fleet.New(urlA, []string{urlB})
	if err != nil {
		t.Fatal(err)
	}
	ownerURL := fView.Owner(fp)

	started := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	blockingReg := func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID: "EX", Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				close(started)
				<-release
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)))
				return tab, nil
			},
		}}
	}
	var survivorCalls atomic.Int64
	healthyReg := countingRegistry(&survivorCalls, nil)

	regFor := func(url string) func() []experiments.Experiment {
		if url == ownerURL {
			return blockingReg
		}
		return healthyReg
	}
	bucket := objstore.NewMem()
	a := newFleetReplica(t, tsA, urlA, urlB, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, regFor(urlA))
	b := newFleetReplica(t, tsB, urlB, urlA, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, regFor(urlB))
	owner, survivor := a, b
	if ownerURL == b.url {
		owner, survivor = b, a
	}

	// Start the owner's flight and wait until it is visibly in progress.
	go func() {
		// The connection dies with the server; the error is expected.
		resp, err := http.Get(owner.url + "/tables/EX")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for !owner.srv.Sched.Flying(fp) {
		if time.Now().After(deadline) {
			t.Fatal("owner flight never became visible")
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the owner mid-flight.
	owner.ts.CloseClientConnections()
	owner.ts.Close()

	res, body := survivor.get(t, "/tables/EX")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("survivor answered %d (%s), want 200 via local compute", res.StatusCode, body)
	}
	if got := res.Header.Get("X-Served-By"); got != survivor.url {
		t.Errorf("X-Served-By %q, want the survivor %s", got, survivor.url)
	}
	if survivorCalls.Load() != 1 {
		t.Errorf("survivor ran the estimator %d times, want 1", survivorCalls.Load())
	}
	// The fallback is visible in both schedulers' metrics and the fleet
	// counters: a foreign computation, and at least one fallback.
	if m := survivor.srv.Sched.Metrics(); m.Computed != 1 || m.ComputedForeign != 1 {
		t.Errorf("survivor computed=%d foreign=%d, want 1/1", m.Computed, m.ComputedForeign)
	}
	var stats struct {
		Fleet FleetStats `json:"fleet"`
	}
	_, statsBody := survivor.get(t, "/stats")
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatalf("parsing /stats: %v", err)
	}
	if stats.Fleet.Fallbacks == 0 {
		t.Errorf("survivor /stats reports no fleet fallbacks: %+v", stats.Fleet)
	}
}

// tripwireClient is an object bucket that fails the test on any use:
// the cached=only invariant says that path may never reach the shared
// tier.
type tripwireClient struct {
	t    *testing.T
	what string
}

func (c tripwireClient) Name() string { return "tripwire" }
func (c tripwireClient) Get(context.Context, string) ([]byte, error) {
	c.t.Errorf("%s: object bucket Get called", c.what)
	return nil, objstore.ErrNotFound
}
func (c tripwireClient) Put(context.Context, string, []byte) error {
	c.t.Errorf("%s: object bucket Put called", c.what)
	return nil
}

// TestCachedOnlyNeverTouchesBucketOrFleet pins the wire contract that
// keeps replica topologies safe: a cached=only request answers from the
// local tiers (memory, disk) or 404s — it may not read the shared
// bucket, probe or fetch from the fleet owner, or compute. Every
// network surface here is a tripwire that fails the test if touched.
func TestCachedOnlyNeverTouchesBucketOrFleet(t *testing.T) {
	var hits atomic.Int64
	tripSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		t.Errorf("cached=only leaked a network call: %s %s", r.Method, r.URL)
		http.Error(w, "tripwire", http.StatusInternalServerError)
	}))
	defer tripSrv.Close()

	stack, err := tier.NewStack(tier.Config{
		MemCapacity:    4,
		Dir:            t.TempDir(),
		ObjstoreClient: tripwireClient{t, "cached=only"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tripwire server is also the fleet's other member, and we pick
	// a seed whose fingerprint IT owns — so a buggy cached=only path
	// that engaged the fleet would probe it and trip.
	f, err := fleet.New("http://127.0.0.1:1", []string{tripSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(0)
	for s := uint64(1); s < 100; s++ {
		if f.Owner(store.KeyFor("EX", result.Params{Seed: s, Quick: true}).Fingerprint) == tripSrv.URL {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed in 1..99 owned by the tripwire member")
	}

	var calls atomic.Int64
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2, sched.WithOwner(f.Owns)),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  1,
		Fleet:    f,
	}
	h := srv.Handler()

	// Warm the local tiers directly — no compute, no write-through.
	reg := srv.Registry()
	tab, err := reg[0].Run(experiments.Config{Seed: seed, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	key := store.KeyFor("EX", result.Params{Seed: seed, Quick: true})
	stack.BackfillLocal(key, tab)

	// Warm local hit: 200 without any outbound call.
	res, body := get(t, h, fmt.Sprintf("/tables/EX?seed=%d&cached=only", seed))
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm cached=only: status %d X-Cache %q (%s)", res.StatusCode, res.Header.Get("X-Cache"), body)
	}
	// Cold miss (different seed, also not locally cached): 404, still no
	// outbound call and no computation.
	res, _ = get(t, h, fmt.Sprintf("/tables/EX?seed=%d&cached=only", seed+1000))
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("cold cached=only: status %d, want 404", res.StatusCode)
	}
	if calls.Load() != 0 {
		t.Errorf("cached=only computed %d tables", calls.Load())
	}
	if hits.Load() != 0 {
		t.Errorf("cached=only made %d network calls", hits.Load())
	}
}

// head issues an in-process HEAD request.
func head(t *testing.T, h http.Handler, path string) *http.Response {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", path, nil))
	return rec.Result()
}

// TestProbeStates walks HEAD /tables/{id} through its three verdicts —
// cold 404, inflight 202, cached 200 — and checks it never computes.
func TestProbeStates(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	srv := testServer(t, &calls, block)
	h := srv.Handler()
	fp := store.KeyFor("EX", result.Params{Seed: 2019, Quick: true}).Fingerprint

	if res := head(t, h, "/tables/NOPE"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id probe: %d", res.StatusCode)
	}
	res := head(t, h, "/tables/EX")
	if res.StatusCode != http.StatusNotFound || res.Header.Get("X-Fleet-State") != "cold" {
		t.Fatalf("cold probe: %d %q", res.StatusCode, res.Header.Get("X-Fleet-State"))
	}
	if calls.Load() != 0 {
		t.Fatalf("a probe computed: %d calls", calls.Load())
	}

	// Start a blocked flight, then probe it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/tables/EX", nil))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Sched.Flying(fp) {
		if time.Now().After(deadline) {
			t.Fatal("flight never started")
		}
		time.Sleep(time.Millisecond)
	}
	res = head(t, h, "/tables/EX")
	if res.StatusCode != http.StatusAccepted || res.Header.Get("X-Fleet-State") != "inflight" {
		t.Fatalf("inflight probe: %d %q", res.StatusCode, res.Header.Get("X-Fleet-State"))
	}

	close(block)
	<-done
	res = head(t, h, "/tables/EX")
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Fleet-State") != "cached" {
		t.Fatalf("cached probe: %d %q", res.StatusCode, res.Header.Get("X-Fleet-State"))
	}
	if got := res.Header.Get("ETag"); got != etagFor(fp) {
		t.Fatalf("cached probe ETag %q, want %q", got, etagFor(fp))
	}
	if calls.Load() != 1 {
		t.Fatalf("probes changed the computation count: %d", calls.Load())
	}
}

// TestFleetWaitResolvesViaBucket: a non-owner that finds the owner's
// flight in progress waits (instead of proxying a second computation)
// and resolves from the shared bucket once the owner's write-through
// lands.
func TestFleetWaitResolvesViaBucket(t *testing.T) {
	var calls atomic.Int64
	reg := func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID: "EX", Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				calls.Add(1)
				time.Sleep(150 * time.Millisecond)
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)))
				return tab, nil
			},
		}}
	}
	bucket := objstore.NewMem()
	tsA, tsB, urlA, urlB := twoUnstarted()
	a := newFleetReplica(t, tsA, urlA, urlB, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, reg)
	b := newFleetReplica(t, tsB, urlB, urlA, tier.Config{MemCapacity: 4, ObjstoreClient: bucket}, reg)
	fp := store.KeyFor("EX", result.Params{Seed: 2019, Quick: true}).Fingerprint
	owner, nonOwner := a, b
	if a.srv.Fleet.Owner(fp) == b.url {
		owner, nonOwner = b, a
	}

	// Put the owner's flight in progress FIRST, so the non-owner's
	// probe must see 202 and take the wait path (not the cold proxy).
	go func() {
		resp, err := http.Get(owner.url + "/tables/EX")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !owner.srv.Sched.Flying(fp) {
		if time.Now().After(deadline) {
			t.Fatal("owner flight never started")
		}
		time.Sleep(time.Millisecond)
	}

	res, body := nonOwner.get(t, "/tables/EX")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("non-owner during owner flight: %d (%s)", res.StatusCode, body)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("estimator ran %d times, want 1 — the wait path must not proxy a duplicate", n)
	}
	if m := nonOwner.srv.Sched.Metrics(); m.Computed != 0 {
		t.Errorf("non-owner computed %d tables during the wait", m.Computed)
	}
	var stats struct {
		Fleet FleetStats `json:"fleet"`
	}
	_, statsBody := nonOwner.get(t, "/stats")
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet.Waits == 0 {
		t.Errorf("non-owner never entered the wait path: %+v", stats.Fleet)
	}
}
