package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/tier"
)

// countingRegistry returns a single-experiment registry whose Run
// counts invocations and optionally blocks on block.
func countingRegistry(calls *atomic.Int64, block chan struct{}) func() []experiments.Experiment {
	return func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID:    "EX",
			Title: "synthetic experiment",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				calls.Add(1)
				if block != nil {
					<-block
				}
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed", "quick"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)), result.Bool(cfg.Quick))
				return tab, nil
			},
		}}
	}
}

// testServer wires a server over a memory+disk stack and a synthetic
// registry whose single experiment counts its invocations.
func testServer(t *testing.T, calls *atomic.Int64, block chan struct{}) *Server {
	t.Helper()
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(calls, block),
		Seed:     2019,
		Quick:    true,
		Workers:  2,
	}
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	return getHdr(t, h, path, nil)
}

// getHdr is get with extra request headers (If-None-Match tests).
func getHdr(t *testing.T, h http.Handler, path string, hdr map[string]string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestHealthz(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()
	res, body := get(t, h, "/healthz")
	if res.StatusCode != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %q", res.StatusCode, body)
	}
}

// TestTableMissThenHit is the serving contract: the first request
// computes (X-Cache: miss), the second is served from the store with
// zero recomputation (X-Cache: hit, from the memory tier that the
// write-through populated), and the bodies are byte-identical.
func TestTableMissThenHit(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()

	res1, body1 := get(t, h, "/tables/EX?seed=7")
	if res1.StatusCode != 200 {
		t.Fatalf("first request: %d %s", res1.StatusCode, body1)
	}
	if c := res1.Header.Get("X-Cache"); c != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", c)
	}
	if calls.Load() != 1 {
		t.Fatalf("first request made %d computations", calls.Load())
	}

	res2, body2 := get(t, h, "/tables/EX?seed=7")
	if c := res2.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", c)
	}
	if tier := res2.Header.Get("X-Cache-Tier"); tier != "memory" {
		t.Fatalf("second request X-Cache-Tier = %q, want memory", tier)
	}
	if calls.Load() != 1 {
		t.Fatalf("cached request recomputed: %d calls", calls.Load())
	}
	if body1 != body2 {
		t.Fatal("hit body differs from miss body")
	}
	tab, err := result.DecodeJSON(strings.NewReader(body2))
	if err != nil {
		t.Fatalf("body is not a canonical table: %v", err)
	}
	if tab.ID != "EX" || tab.Rows[0][0] != result.Int(7) {
		t.Fatalf("served table wrong: %+v", tab)
	}

	// Distinct parameters are distinct fingerprints.
	if res3, _ := get(t, h, "/tables/EX?seed=8"); res3.Header.Get("X-Cache") != "miss" {
		t.Fatal("different seed served from cache")
	}
	if calls.Load() != 2 {
		t.Fatalf("different seed did not compute: %d calls", calls.Load())
	}
}

// TestETagRoundTrip: every table response carries the strong validator
// ETag: "<fingerprint>", and a conditional request that presents it —
// exactly, weakened with W/, or in a list — is answered 304 with an
// empty body before any computation or store lookup. A stale tag (and
// the wildcard, which the fast path cannot answer truthfully) serves
// the full body.
func TestETagRoundTrip(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()

	res, _ := get(t, h, "/tables/EX?seed=7")
	etag := res.Header.Get("ETag")
	fp := res.Header.Get("X-Fingerprint")
	if etag != `"`+fp+`"` {
		t.Fatalf("ETag %q does not quote the fingerprint %q", etag, fp)
	}

	for _, inm := range []string{
		etag,
		"W/" + etag,
		`"deadbeef", ` + etag,
	} {
		res, body := getHdr(t, h, "/tables/EX?seed=7", map[string]string{"If-None-Match": inm})
		if res.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, res.StatusCode)
		}
		if body != "" {
			t.Fatalf("304 carried a body: %q", body)
		}
		if res.Header.Get("ETag") != etag {
			t.Fatalf("304 lost the ETag: %q", res.Header.Get("ETag"))
		}
	}

	// 304 is owed even before the table exists anywhere: the
	// fingerprint is the content address, so a client holding the tag
	// holds the bytes. Zero estimator calls prove no compute ran.
	before := calls.Load()
	freshKey := store.KeyFor("EX", result.Params{Seed: 99, Quick: true})
	res, _ = getHdr(t, h, "/tables/EX?seed=99",
		map[string]string{"If-None-Match": `"` + freshKey.Fingerprint + `"`})
	if res.StatusCode != http.StatusNotModified {
		t.Fatalf("pre-compute conditional request: %d, want 304", res.StatusCode)
	}
	if calls.Load() != before {
		t.Fatal("a 304 triggered a computation")
	}

	// A stale validator serves the body.
	res, body := getHdr(t, h, "/tables/EX?seed=7", map[string]string{"If-None-Match": `"0123"`})
	if res.StatusCode != 200 || body == "" {
		t.Fatalf("stale If-None-Match: %d %q", res.StatusCode, body)
	}

	// The wildcard is NOT the fast path: "*" asks whether any current
	// representation exists, which cannot be answered before a lookup —
	// it falls through to normal processing and gets the real body.
	res, body = getHdr(t, h, "/tables/EX?seed=7", map[string]string{"If-None-Match": "*"})
	if res.StatusCode != 200 || body == "" {
		t.Fatalf("wildcard If-None-Match: %d %q, want the full 200", res.StatusCode, body)
	}
}

// TestConcurrentRequestsSingleFlight races 6 identical requests against
// a blocked experiment: exactly one computation runs and every response
// carries the same table.
func TestConcurrentRequestsSingleFlight(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	h := testServer(t, &calls, block).Handler()

	const n = 6
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = get(t, h, "/tables/EX?seed=1")
		}(i)
	}
	// Let the requests pile onto the flight, then release the single
	// computation. Any request arriving after completion is a store hit,
	// so the call-count assertion holds for every interleaving.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(block)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("%d computations for %d identical requests", calls.Load(), n)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs", i)
		}
	}
}

// TestConcurrentHitPathNoReencode is the encoded-byte L0 acceptance
// criterion, shaped for the race detector: over a warm corpus, a burst
// of concurrent mixed-format requests (JSON, markdown, conditional)
// serves byte-identical bodies from the memory tier with ZERO raw
// encodes — result.Encodes, which counts every CanonicalJSON marshal
// and every Render walk process-wide, must not move.
func TestConcurrentHitPathNoReencode(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()

	// Warm every view once: computes the table, persists it, memoizes
	// the JSON wire bytes (at Put) and the markdown (first md request).
	res, wantJSON := get(t, h, "/tables/EX?seed=7")
	if res.StatusCode != 200 {
		t.Fatalf("warm: %d", res.StatusCode)
	}
	etag := res.Header.Get("ETag")
	_, wantMD := get(t, h, "/tables/EX?seed=7&format=md")

	before := result.Encodes()
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (g + i) % 3 {
				case 0:
					res, body := get(t, h, "/tables/EX?seed=7")
					if res.StatusCode != 200 || body != wantJSON {
						errs <- fmt.Errorf("json hit: %d, body match %t", res.StatusCode, body == wantJSON)
						return
					}
					if res.Header.Get("X-Cache-Tier") != "memory" {
						errs <- fmt.Errorf("json hit tier %q", res.Header.Get("X-Cache-Tier"))
						return
					}
				case 1:
					res, body := get(t, h, "/tables/EX?seed=7&format=md")
					if res.StatusCode != 200 || body != wantMD {
						errs <- fmt.Errorf("md hit: %d, body match %t", res.StatusCode, body == wantMD)
						return
					}
				case 2:
					res, body := getHdr(t, h, "/tables/EX?seed=7", map[string]string{"If-None-Match": etag})
					if res.StatusCode != http.StatusNotModified || body != "" {
						errs <- fmt.Errorf("conditional hit: %d %q", res.StatusCode, body)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("hit burst recomputed: %d estimator calls", calls.Load())
	}
	if raw := result.Encodes() - before; raw != 0 {
		t.Fatalf("hit path performed %d raw encodes across %d requests, want 0",
			raw, workers*perWorker)
	}
}

func TestMarkdownFormat(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()
	res, body := get(t, h, "/tables/EX?format=md")
	if res.StatusCode != 200 || !strings.HasPrefix(body, "### EX — synthetic") {
		t.Fatalf("markdown view wrong: %d %q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/markdown") {
		t.Fatalf("content type %q", ct)
	}
}

func TestListShowsCachedState(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()

	var entries []listEntry
	_, body := get(t, h, "/tables")
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ID != "EX" || entries[0].Cached {
		t.Fatalf("fresh list wrong: %+v", entries)
	}

	get(t, h, "/tables/EX") // populate (default params)
	_, body = get(t, h, "/tables")
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if !entries[0].Cached {
		t.Fatalf("list does not show cached table: %+v", entries)
	}
}

// TestListShowsMemoryCachedOnDisklessServer: with no disk tier the
// listing's cached flag must come from the memory tier — a disk-less
// replica otherwise advertises itself permanently cold while
// cached=only serves from L0.
func TestListShowsMemoryCachedOnDisklessServer(t *testing.T) {
	var calls atomic.Int64
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  2,
	}
	h := srv.Handler()

	var entries []listEntry
	_, body := get(t, h, "/tables")
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if entries[0].Cached {
		t.Fatalf("cold memory-only list claims cached: %+v", entries)
	}
	get(t, h, "/tables/EX") // populate L0 (default params)
	_, body = get(t, h, "/tables")
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatal(err)
	}
	if !entries[0].Cached {
		t.Fatalf("memory-cached table not listed as cached: %+v", entries)
	}
}

// TestListSurfacesStoreError: a replica whose disk store cannot be read
// answers /tables with a 500, not with a silently all-cold listing —
// peers and operators act on the cached flags, so a broken store must
// be loud.
func TestListSurfacesStoreError(t *testing.T) {
	var calls atomic.Int64
	dir := t.TempDir()
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  2,
	}
	// Destroy the objects directory: no listing probe has a healthy
	// answer left.
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	res, body := get(t, srv.Handler(), "/tables")
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unreadable store: status %d (body %q), want 500", res.StatusCode, body)
	}
	if !strings.Contains(body, "store") {
		t.Fatalf("500 body does not name the store: %q", body)
	}
}

// TestRetryAfterScalesWithQueue: the 429 back-off estimate is the
// standing work (queued + running) drained at one mean computation per
// parallel slot — a deep queue tells clients to stay away longer, so
// they stop retrying straight into another 429 — clamped to [1s, 60s].
func TestRetryAfterScalesWithQueue(t *testing.T) {
	cases := []struct {
		name string
		m    sched.Metrics
		want int
	}{
		{"no history", sched.Metrics{Parallel: 2}, 1},
		{"idle, fast mean", sched.Metrics{Parallel: 2, MeanComputeMS: 300}, 1},
		{"one running, one slot", sched.Metrics{Computing: 1, Parallel: 1, MeanComputeMS: 2500}, 3},
		{"deep queue", sched.Metrics{Queued: 7, Computing: 1, Parallel: 2, MeanComputeMS: 2000}, 8},
		{"parallel drains faster", sched.Metrics{Queued: 7, Computing: 1, Parallel: 8, MeanComputeMS: 2000}, 2},
		{"clamped high", sched.Metrics{Queued: 500, Computing: 2, Parallel: 2, MeanComputeMS: 10000}, 60},
		{"zero parallel treated as one", sched.Metrics{Queued: 1, MeanComputeMS: 1500}, 2},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.m); got != c.want {
			t.Errorf("%s: retryAfterSeconds(%+v) = %d, want %d", c.name, c.m, got, c.want)
		}
	}
}

// TestRetryAfterAgainstLiveMetrics pins the estimate to a real
// scheduler's Metrics() under a saturated queue, not just hand-built
// fixtures: with one slot busy and the mean already observed, the
// suggested back-off must cover the standing work.
func TestRetryAfterAgainstLiveMetrics(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(stack.Backend, 1, sched.WithQueue(0))
	srv := &Server{
		Sched:    s,
		Stack:    stack,
		Registry: countingRegistry(&calls, block),
		Seed:     2019,
		Quick:    true,
		Workers:  1,
	}
	h := srv.Handler()

	inflight := make(chan struct{})
	go func() {
		get(t, h, "/tables/EX?seed=1")
		close(inflight)
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	res, _ := get(t, h, "/tables/EX?seed=2")
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d, want 429", res.StatusCode)
	}
	ra := res.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After %q outside [1, 60]", ra)
	}
	if want := retryAfterSeconds(s.Metrics()); secs != want && secs != 1 {
		// The live metrics may drift between the handler's snapshot and
		// ours; accept either the recomputed estimate or the floor.
		t.Fatalf("Retry-After %d, want %d (or the 1s floor)", secs, want)
	}
	close(block)
	<-inflight
}

// TestBadRequests (and the cached=only contract below) are unchanged
// behavior, re-asserted after the serve-package extraction.
func TestBadRequests(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()
	for path, want := range map[string]int{
		"/tables/NOPE":             404,
		"/tables/EX?seed=banana":   400,
		"/tables/EX?quick=perhaps": 400,
		"/tables/EX?format=xml":    400,
		"/tables/EX?cached=maybe":  400,
		"/tables?seed=banana":      400,
	} {
		if res, body := get(t, h, path); res.StatusCode != want {
			t.Fatalf("%s: status %d (want %d): %s", path, res.StatusCode, want, body)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("bad requests triggered %d computations", calls.Load())
	}
}

// TestCachedOnlyNeverComputes is the replica-warming wire contract: a
// cached=only request answers 404 on a cold store — with zero estimator
// calls — and 200 once the table exists.
func TestCachedOnlyNeverComputes(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()

	res, _ := get(t, h, "/tables/EX?seed=7&cached=only")
	if res.StatusCode != 404 {
		t.Fatalf("cold cached=only: status %d, want 404", res.StatusCode)
	}
	if res.Header.Get("X-Cache") != "miss" {
		t.Fatal("cold cached=only response missing X-Cache: miss")
	}
	if calls.Load() != 0 {
		t.Fatalf("cached=only computed %d times", calls.Load())
	}

	get(t, h, "/tables/EX?seed=7") // warm
	res, body := get(t, h, "/tables/EX?seed=7&cached=only")
	if res.StatusCode != 200 || res.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm cached=only: %d %s", res.StatusCode, body)
	}
	if calls.Load() != 1 {
		t.Fatalf("warm cached=only recomputed: %d calls", calls.Load())
	}
}

// TestCachedOnlySkipsPeer: a cached=only request is answered from the
// local tiers alone — zero requests reach the peer — otherwise two
// replicas peered at each other would amplify every shared miss into a
// storm of mutual cached=only lookups.
func TestCachedOnlySkipsPeer(t *testing.T) {
	var peerHits atomic.Int64
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		peerHits.Add(1)
		http.NotFound(w, r)
	}))
	defer peerSrv.Close()

	var calls atomic.Int64
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir(), PeerURL: peerSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(&calls, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  2,
	}
	h := srv.Handler()

	res, _ := get(t, h, "/tables/EX?seed=7&cached=only")
	if res.StatusCode != 404 {
		t.Fatalf("cold cached=only: status %d, want 404", res.StatusCode)
	}
	if peerHits.Load() != 0 {
		t.Fatalf("cached=only reached the peer %d times, want 0", peerHits.Load())
	}
	if calls.Load() != 0 {
		t.Fatalf("cached=only computed %d times", calls.Load())
	}

	// Warmed locally, cached=only serves without the peer too.
	get(t, h, "/tables/EX?seed=7") // computes (peer misses once: the normal path)
	peerBefore := peerHits.Load()
	if res, _ := get(t, h, "/tables/EX?seed=7&cached=only"); res.StatusCode != 200 {
		t.Fatalf("warm cached=only: status %d", res.StatusCode)
	}
	if peerHits.Load() != peerBefore {
		t.Fatal("warm cached=only still consulted the peer")
	}
}

// TestColdReplicaWarmsFromPeer is the cross-replica acceptance
// criterion: a cold replica pointed at a warm peer serves /tables/{id}
// without invoking any estimator, and the peer does not recompute
// either.
func TestColdReplicaWarmsFromPeer(t *testing.T) {
	// Replica A: compute once, keep warm.
	var callsA atomic.Int64
	a := testServer(t, &callsA, nil)
	peerSrv := httptest.NewServer(a.Handler())
	defer peerSrv.Close()
	if res, body := get(t, a.Handler(), "/tables/EX?seed=7"); res.StatusCode != 200 {
		t.Fatalf("warming A failed: %d %s", res.StatusCode, body)
	}

	// Replica B: cold memory+disk, remote tier pointed at A. Its
	// registry counts estimator calls — the acceptance criterion is
	// that it stays at zero.
	var callsB atomic.Int64
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir(), PeerURL: peerSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	b := &Server{
		Sched:    sched.New(stack.Backend, 2),
		Stack:    stack,
		Registry: countingRegistry(&callsB, nil),
		Seed:     2019,
		Quick:    true,
		Workers:  2,
	}

	res, body := get(t, b.Handler(), "/tables/EX?seed=7")
	if res.StatusCode != 200 {
		t.Fatalf("cold replica request: %d %s", res.StatusCode, body)
	}
	if c := res.Header.Get("X-Cache"); c != "hit" {
		t.Fatalf("cold replica X-Cache = %q, want hit (from the peer)", c)
	}
	if tier := res.Header.Get("X-Cache-Tier"); tier != "remote" {
		t.Fatalf("cold replica X-Cache-Tier = %q, want remote", tier)
	}
	if callsB.Load() != 0 {
		t.Fatalf("cold replica invoked %d estimators despite a warm peer", callsB.Load())
	}
	if callsA.Load() != 1 {
		t.Fatalf("peer recomputed: %d calls, want the 1 warming call", callsA.Load())
	}

	// The hit backfilled B's local tiers: the next request must be
	// answered locally (memory), not by another peer round-trip.
	res, _ = get(t, b.Handler(), "/tables/EX?seed=7")
	if tier := res.Header.Get("X-Cache-Tier"); tier != "memory" {
		t.Fatalf("second request X-Cache-Tier = %q, want memory (backfilled)", tier)
	}

	// Dead peer: lookups degrade to local compute, never an error.
	peerSrv.Close()
	res, body = get(t, b.Handler(), "/tables/EX?seed=9")
	if res.StatusCode != 200 {
		t.Fatalf("request with dead peer: %d %s", res.StatusCode, body)
	}
	if callsB.Load() != 1 {
		t.Fatalf("dead peer: local compute ran %d times, want 1", callsB.Load())
	}
}

// TestSaturatedQueueReturns429 is the backpressure acceptance
// criterion: with one busy slot and no waiting room, a fresh request is
// rejected with 429 + Retry-After while the in-flight request still
// completes.
func TestSaturatedQueueReturns429(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched:    sched.New(stack.Backend, 1, sched.WithQueue(0)),
		Stack:    stack,
		Registry: countingRegistry(&calls, block),
		Seed:     2019,
		Quick:    true,
		Workers:  1,
	}
	h := srv.Handler()

	inflight := make(chan *http.Response, 1)
	go func() {
		res, _ := get(t, h, "/tables/EX?seed=1")
		inflight <- res
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	res, body := get(t, h, "/tables/EX?seed=2")
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429: %s", res.StatusCode, body)
	}
	if ra := res.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}

	// The in-flight request is unaffected.
	close(block)
	if res := <-inflight; res.StatusCode != 200 {
		t.Fatalf("in-flight request failed under saturation: %d", res.StatusCode)
	}
	// With the slot free the rejected parameters compute fine.
	if res, _ := get(t, h, "/tables/EX?seed=2"); res.StatusCode != 200 {
		t.Fatalf("post-saturation request: %d", res.StatusCode)
	}
}

// TestComputeTimeoutReturns504: a computation outliving the server's
// Timeout answers 504 (the detached computation finishes later and
// persists for the retry).
func TestComputeTimeoutReturns504(t *testing.T) {
	var calls atomic.Int64
	block := make(chan struct{})
	srv := testServer(t, &calls, block)
	srv.Timeout = 25 * time.Millisecond
	h := srv.Handler()

	res, body := get(t, h, "/tables/EX?seed=1")
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504: %s", res.StatusCode, body)
	}
	close(block) // let the detached computation finish and persist

	// The finished computation is served from the store on retry.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, _ := get(t, h, "/tables/EX?seed=1")
		if res.StatusCode == 200 && res.Header.Get("X-Cache") == "hit" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached computation never landed in the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if calls.Load() != 1 {
		t.Fatalf("retry recomputed: %d calls", calls.Load())
	}
}

// TestEstimatorInternalDeadlineIs500Not504: an experiment failing with
// its own DeadlineExceeded-flavored error is a plain 500 — only the
// request's expired deadline earns the 504 and its retry-for-cache
// guidance (nothing was persisted here, so a retry recomputes).
func TestEstimatorInternalDeadlineIs500Not504(t *testing.T) {
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Sched: sched.New(stack.Backend, 2),
		Stack: stack,
		Registry: func() []experiments.Experiment {
			return []experiments.Experiment{{
				ID:    "EX",
				Title: "synthetic",
				Run: func(cfg experiments.Config) (*experiments.Table, error) {
					return nil, fmt.Errorf("fetching aux data: %w", context.DeadlineExceeded)
				},
			}}
		},
		Seed:    2019,
		Quick:   true,
		Workers: 2,
		Timeout: time.Minute, // a deadline exists but never fires
	}
	res, body := get(t, srv.Handler(), "/tables/EX")
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("estimator-internal deadline error: status %d, want 500: %s", res.StatusCode, body)
	}
}

func TestStats(t *testing.T) {
	var calls atomic.Int64
	h := testServer(t, &calls, nil).Handler()
	get(t, h, "/tables/EX")
	_, body := get(t, h, "/stats")
	var payload struct {
		Store  store.Stats   `json:"store"`
		Sched  sched.Metrics `json:"sched"`
		Memory struct {
			Capacity int   `json:"capacity"`
			Len      int   `json:"len"`
			MaxBytes int64 `json:"max_bytes"`
			Bytes    int64 `json:"bytes"`
		} `json:"memory"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Store.Objects != 1 || payload.Store.Puts != 1 {
		t.Fatalf("store stats wrong: %+v", payload.Store)
	}
	if payload.Sched.Computed != 1 {
		t.Fatalf("sched stats wrong: %+v", payload.Sched)
	}
	if payload.Memory.Capacity != 4 || payload.Memory.Len != 1 {
		t.Fatalf("memory stats wrong: %+v", payload.Memory)
	}
	if payload.Memory.Bytes <= 0 {
		t.Fatalf("memory byte accounting missing from /stats: %+v", payload.Memory)
	}
}

// TestRealRegistrySmoke serves a real quick experiment end to end.
func TestRealRegistrySmoke(t *testing.T) {
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Sched: sched.New(stack.Backend, 2), Stack: stack,
		Registry: experiments.All, Seed: 3, Quick: true, Workers: 2}
	h := srv.Handler()
	res, body := get(t, h, "/tables/E13")
	if res.StatusCode != 200 {
		t.Fatalf("E13: %d %s", res.StatusCode, body)
	}
	tab, err := result.DecodeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "E13" || len(tab.Rows) == 0 {
		t.Fatalf("served E13 malformed: %+v", tab)
	}
	if res, _ := get(t, h, "/tables/E13"); res.Header.Get("X-Cache") != "hit" {
		t.Fatal("second E13 request was not a cache hit")
	}
}
