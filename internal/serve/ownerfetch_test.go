package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/tier"
)

// serveTable answers like an owner holding tab under k: the stored
// bytes, their X-Fingerprint and their Repr-Digest.
func serveTable(t *testing.T, w http.ResponseWriter, k store.Key, tab *result.Table) {
	wire, err := tab.EncodedJSON()
	if err != nil {
		t.Error(err)
	}
	w.Header().Set("X-Fingerprint", k.Fingerprint)
	w.Header().Set(headerReprDigest, formatReprDigest(sha256.Sum256(wire)))
	w.Write(wire)
}

func synthetic(id string) *result.Table {
	tab := &result.Table{ID: id, Title: "synthetic", Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
	tab.AddRow(result.Int(7))
	return tab
}

// TestOwnerFetch drives the one owner fetch against a scripted owner.
// A table the owner vouches for (right X-Fingerprint, body hashing to
// its Repr-Digest, right id) is a hit served as the owner's bytes; a
// clean 404 is a miss and a healthy answer; every other answer is a
// miss and an owner-breaker failure; a caller that hangs up blames
// nobody.
func TestOwnerFetch(t *testing.T) {
	defer func(d time.Duration) { ownerFetchTimeout = d }(ownerFetchTimeout)
	ownerFetchTimeout = 200 * time.Millisecond
	k := store.KeyFor("EX", result.Params{Seed: 7, Quick: true})
	good := synthetic("EX")
	wire, err := good.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(code) }
	}
	// tamper serves the good table, then lets edit rewrite the headers
	// and body on the way out.
	tamper := func(edit func(h http.Header, body []byte) []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Fingerprint", k.Fingerprint)
			w.Header().Set(headerReprDigest, formatReprDigest(sha256.Sum256(wire)))
			w.Write(edit(w.Header(), append([]byte(nil), wire...)))
		}
	}
	hang := func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() }

	const (
		hit     = "hit"     // a table, one breaker success
		clean   = "clean"   // a miss, one breaker success
		failure = "failure" // a miss, one breaker failure
		neutral = "neutral" // a miss, nothing recorded
	)
	for _, c := range []struct {
		name        string
		owner       http.HandlerFunc
		want        string
		cancelAfter time.Duration // > 0: the caller hangs up this soon
		dead        bool          // the owner is not listening at all
	}{
		{name: "hit", want: hit, owner: func(w http.ResponseWriter, r *http.Request) {
			q := r.URL.Query()
			if r.URL.Path != "/tables/EX" || q.Get("cached") != "only" || q.Get("seed") != "7" || q.Get("quick") != "true" {
				t.Errorf("owner fetch asked for %s", r.URL)
			}
			if r.Header.Get(headerFleetProxy) != "" {
				t.Error("a cached=only fetch carried the proxy loop guard")
			}
			serveTable(t, w, k, good)
		}},
		{name: "not cached 404", want: clean, owner: status(http.StatusNotFound)},
		{name: "saturated 429", want: failure, owner: status(http.StatusTooManyRequests)},
		{name: "unavailable 503", want: failure, owner: status(http.StatusServiceUnavailable)},
		{name: "server error 500", want: failure, owner: status(http.StatusInternalServerError)},
		{name: "garbage body", want: failure, owner: tamper(func(h http.Header, _ []byte) []byte {
			junk := []byte("not a table\n")
			h.Set(headerReprDigest, formatReprDigest(sha256.Sum256(junk)))
			return junk
		})},
		{name: "damaged body", want: failure, owner: tamper(func(_ http.Header, b []byte) []byte {
			b[len(b)/2] = b[len(b)/2]*3 + 1
			return b
		})},
		{name: "missing digest", want: failure, owner: tamper(func(h http.Header, b []byte) []byte {
			h.Del(headerReprDigest)
			return b
		})},
		{name: "wrong digest", want: failure, owner: tamper(func(h http.Header, b []byte) []byte {
			h.Set(headerReprDigest, formatReprDigest(sha256.Sum256([]byte("other"))))
			return b
		})},
		{name: "foreign id", want: failure, owner: func(w http.ResponseWriter, r *http.Request) {
			serveTable(t, w, k, synthetic("EY"))
		}},
		{name: "missing fingerprint", want: failure, owner: tamper(func(h http.Header, b []byte) []byte {
			h.Del("X-Fingerprint")
			return b
		})},
		{name: "mismatched fingerprint", want: failure, owner: tamper(func(h http.Header, b []byte) []byte {
			h.Set("X-Fingerprint", store.KeyFor("EX", result.Params{Seed: 8, Quick: true}).Fingerprint)
			return b
		})},
		{name: "unreachable", want: failure, dead: true},
		{name: "hung owner", want: failure, owner: hang},
		{name: "caller cancel", want: neutral, owner: hang, cancelAfter: 10 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(c.owner)
			defer ts.Close()
			if c.dead {
				ts.Close()
			}
			set := breaker.NewSet(breaker.Options{Failures: 100, Cooldown: time.Hour})
			srv := &Server{Breakers: set}
			ctx := context.Background()
			if c.cancelAfter > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				time.AfterFunc(c.cancelAfter, cancel)
			}
			start := time.Now()
			tab, _ := srv.fetchOwner(ctx, ts.URL, k, false)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("fetch took %v; the deadline must bound a hung owner", elapsed)
			}
			if (tab != nil) != (c.want == hit) {
				t.Fatalf("fetch returned table %v, want a hit: %t", tab != nil, c.want == hit)
			}
			if tab != nil {
				if got, err := tab.EncodedJSON(); err != nil || !bytes.Equal(got, wire) {
					t.Fatalf("hit serves %q, %v; want the owner's bytes", got, err)
				}
			}
			st := set.Get("owner:" + ts.URL).Stats()
			wantOK, wantFail := uint64(0), uint64(0)
			switch c.want {
			case hit, clean:
				wantOK = 1
			case failure:
				wantFail = 1
			}
			if st.Successes != wantOK || st.Failures != wantFail {
				t.Fatalf("owner breaker recorded %d successes, %d failures; want %d, %d (last error %q)",
					st.Successes, st.Failures, wantOK, wantFail, st.LastError)
			}
		})
	}
}

// TestOwnerFetchProxiesAndReusesConnections: the proxied GET is the
// same verified fetch without cached=only and with the loop guard, its
// hit flag follows the owner's X-Cache, and fetches in a row ride one
// pooled keep-alive connection.
func TestOwnerFetchProxiesAndReusesConnections(t *testing.T) {
	k := store.KeyFor("EX", result.Params{Seed: 7, Quick: true})
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if proxied := r.Header.Get(headerFleetProxy) != ""; proxied == (r.URL.Query().Get("cached") == "only") {
			t.Errorf("fetch %s: proxy header %t", r.URL, proxied)
		}
		w.Header().Set("X-Cache", "miss")
		serveTable(t, w, k, synthetic("EX"))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	f, err := fleet.New("http://127.0.0.1:9", []string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Fleet: f}
	if tab, hit := srv.fetchOwner(context.Background(), ts.URL, k, true); tab == nil || hit {
		t.Fatalf("proxied fetch: table %v, hit %t; want the table, computed by the owner", tab != nil, hit)
	}
	if tab, _ := srv.fetchOwner(context.Background(), ts.URL, k, false); tab == nil {
		t.Fatal("cached=only fetch missed")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("two fetches opened %d connections, want 1", n)
	}
}

// resolver returns a server with an empty local stack in a fleet of
// itself and owner, guarded by the breakers in set, and a key owner
// owns: fleetResolve of that key goes to owner first.
func resolver(t *testing.T, owner string, set *breaker.Set) (*Server, store.Key) {
	t.Helper()
	f, err := fleet.New("http://127.0.0.1:9", []string{owner})
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tier.NewStack(tier.Config{MemCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s < 1000; s++ {
		if k := store.KeyFor("EX", result.Params{Seed: s, Quick: true}); f.Owner(k.Fingerprint) == owner {
			return &Server{Stack: stack, Fleet: f, Seed: 2019, Breakers: set}, k
		}
	}
	t.Fatalf("no fingerprint owned by %s", owner)
	return nil, store.Key{}
}

// TestDeadOwnerOpensBreakerAndShortCircuits: every resolve against an
// owner that refuses connections is a fallback and a breaker failure;
// once the breaker opens, the next resolve never dials the owner and
// falls back at once, counted as one owner short circuit.
func TestDeadOwnerOpensBreakerAndShortCircuits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	set := breaker.NewSet(breaker.Options{Failures: 3, Cooldown: time.Hour})
	srv, k := resolver(t, dead, set)
	for i := 0; i < 3; i++ {
		if _, _, _, _, ok := srv.fleetResolve(context.Background(), k); ok {
			t.Fatal("a dead owner resolved")
		}
	}
	if st := set.Get("owner:" + dead).State(); st != breaker.Open {
		t.Fatalf("owner breaker %v after 3 refused probes, want open", st)
	}
	start := time.Now()
	if _, _, _, _, ok := srv.fleetResolve(context.Background(), k); ok {
		t.Fatal("a short-circuited resolve resolved")
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("short circuit took %v, want microseconds", el)
	}
	if sc, pe := srv.fleetC.ownerShortCircuits.Load(), srv.fleetC.probeErrors.Load(); sc != 1 || pe != 3 {
		t.Fatalf("%d owner short circuits and %d probe errors, want 1 and 3", sc, pe)
	}
}

// TestOwnerCleanNotFoundNeverTripsBreaker: a healthy owner whose probe
// says cached but whose cached=only fetch then answers a clean 404 (the
// table was evicted in between) costs a fallback, never a breaker
// failure — however often it happens.
func TestOwnerCleanNotFoundNeverTripsBreaker(t *testing.T) {
	var fetches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			return // 200: cached
		}
		if r.URL.Query().Get("cached") == "only" {
			fetches.Add(1)
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()
	set := breaker.NewSet(breaker.Options{Failures: 2, Cooldown: time.Hour})
	srv, k := resolver(t, ts.URL, set)
	for i := 0; i < 10; i++ {
		if _, _, _, _, ok := srv.fleetResolve(context.Background(), k); ok {
			t.Fatal("an owner 404 resolved")
		}
	}
	b := set.Get("owner:" + ts.URL)
	if st := b.State(); st != breaker.Closed {
		t.Fatalf("owner breaker %v after clean 404s, want closed", st)
	}
	if st := b.Stats(); st.Failures != 0 || st.Successes != 20 {
		t.Fatalf("owner breaker recorded %d successes, %d failures; want 20 (a probe and a fetch each), 0", st.Successes, st.Failures)
	}
	if n, sc, fb := fetches.Load(), srv.fleetC.ownerShortCircuits.Load(), srv.fleetC.fallbacks.Load(); n != 10 || sc != 0 || fb != 10 {
		t.Fatalf("%d cached=only fetches, %d short circuits, %d fallbacks; want 10, 0, 10", n, sc, fb)
	}
}

// TestOwnerBreakerRecoversViaHalfOpenProbe: an owner failing with 500s
// opens its breaker; while it is open the owner is not contacted; once
// the cooldown has passed, the next resolve is the half-open probe, and
// the healed owner's answer closes the breaker and serves the table.
func TestOwnerBreakerRecoversViaHalfOpenProbe(t *testing.T) {
	var (
		healed   atomic.Bool
		requests atomic.Int64
		k        store.Key
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		switch {
		case !healed.Load():
			w.WriteHeader(http.StatusInternalServerError)
		case r.Method == http.MethodHead:
			// 200: cached
		default:
			serveTable(t, w, k, synthetic("EX"))
		}
	}))
	defer ts.Close()
	base := time.Unix(1_700_000_000, 0)
	var skew atomic.Int64
	now := func() time.Time { return base.Add(time.Duration(skew.Load())) }
	set := breaker.NewSet(breaker.Options{Failures: 2, Cooldown: time.Minute, Now: now})
	srv, key := resolver(t, ts.URL, set)
	k = key
	b := set.Get("owner:" + ts.URL)
	srv.fleetResolve(context.Background(), k)
	srv.fleetResolve(context.Background(), k)
	if b.State() != breaker.Open {
		t.Fatalf("owner breaker %v after repeated 500s, want open", b.State())
	}
	if _, _, _, _, ok := srv.fleetResolve(context.Background(), k); ok || requests.Load() != 2 {
		t.Fatalf("open breaker: resolved %t after %d owner requests, want a fallback after 2", ok, requests.Load())
	}
	healed.Store(true)
	skew.Store(int64(2 * time.Minute))
	tab, tierName, _, servedBy, ok := srv.fleetResolve(context.Background(), k)
	if !ok || tab == nil || tierName != "fleet" || servedBy != ts.URL {
		t.Fatalf("half-open probe resolve: ok %t, tier %q, served by %q; want the owner's table", ok, tierName, servedBy)
	}
	if st := b.State(); st != breaker.Closed {
		t.Fatalf("owner breaker %v after a healthy probe, want closed", st)
	}
	if st := b.Stats(); st.Opens != 1 || st.Recoveries != 1 {
		t.Fatalf("owner breaker opened %d and recovered %d times, want 1 and 1", st.Opens, st.Recoveries)
	}
}

// numericRegistry computes a table whose canonical JSON has its middle
// byte inside a string cell spelling a number. fault's corrupt rewrites
// that byte to one outside ASCII, which a JSON decoder accepts as a
// replacement character: the damaged body still decodes as a table with
// the right id, so only a checksum can tell it from the owner's.
func numericRegistry(calls *atomic.Int64) func() []experiments.Experiment {
	return func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID: "EX", Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				calls.Add(1)
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed", "estimate"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)), result.Str(strings.Repeat(fmt.Sprint(cfg.Seed), 200)))
				return tab, nil
			},
		}}
	}
}

// ownerPair starts two replicas with private memory and disk tiers and
// no shared bucket, so a non-owner can only get a table from the owner
// or by computing it. It returns them as (owner, non-owner) of the
// fingerprints in seeds, which it fills with seeds the first replica
// owns; configure adjusts the non-owner.
func ownerPair(t *testing.T, reg func() []experiments.Experiment, seeds []uint64, configure ...func(*Server)) (owner, nonOwner *fleetReplica) {
	t.Helper()
	tsA, tsB, urlA, urlB := twoUnstarted()
	f, err := fleet.New(urlA, []string{urlB})
	if err != nil {
		t.Fatal(err)
	}
	for s, i := uint64(1), 0; i < len(seeds); s++ {
		if f.Owner(store.KeyFor("EX", result.Params{Seed: s, Quick: true}).Fingerprint) == urlA {
			seeds[i] = s
			i++
		}
	}
	owner = newFleetReplica(t, tsA, urlA, urlB, tier.Config{MemCapacity: 4, Dir: t.TempDir()}, reg)
	nonOwner = newFleetReplica(t, tsB, urlB, urlA, tier.Config{MemCapacity: 4, Dir: t.TempDir()}, reg, configure...)
	return owner, nonOwner
}

// TestFleetCorruptFetchFallsBackToLocalCompute pins the fleet's
// integrity: with every owner round trip of the non-owner damaged
// (fleet:corrupt=1), the cold-owner proxy and the cached=only fetch
// both reject the owner's body, count an owner-breaker failure, and
// fall back to local compute — so every body the non-owner serves is
// byte-equal to the owner's, and no damaged byte reaches its tiers.
func TestFleetCorruptFetchFallsBackToLocalCompute(t *testing.T) {
	var calls atomic.Int64
	seeds := make([]uint64, 2)
	set := breaker.NewSet(breaker.Options{Failures: 100, Cooldown: time.Hour})
	owner, nonOwner := ownerPair(t, numericRegistry(&calls), seeds, func(s *Server) {
		s.Breakers = set
		s.FleetClient = &http.Client{Transport: fault.WrapTransport(nil, fault.NewInjector(fault.Spec{Corrupt: 1, Seed: 1}))}
	})
	cold, warm := seeds[0], seeds[1]
	// The damage lands where a decoder cannot see it.
	body := owner.getOK(t, fmt.Sprintf("/tables/EX?seed=%d", warm))
	digits := strings.Repeat(fmt.Sprint(warm), 200)
	if i := strings.Index(body, digits); i < 0 || len(body)/2 < i || len(body)/2 >= i+len(digits) {
		t.Fatalf("the middle byte of %q is not in the numeric string cell", body)
	}

	// cold: the owner has not computed it, so the non-owner proxies;
	// warm: the owner holds it, so the non-owner fetches it cached=only.
	for _, seed := range []uint64{cold, warm} {
		path := fmt.Sprintf("/tables/EX?seed=%d", seed)
		got := nonOwner.getOK(t, path)
		if want := owner.getOK(t, path); got != want {
			t.Fatalf("seed %d: non-owner served\n%q\nowner serves\n%q", seed, got, want)
		}
		k := store.KeyFor("EX", result.Params{Seed: seed, Quick: true})
		for name, b := range map[string]store.Backend{"memory": nonOwner.srv.Stack.Mem, "disk": nonOwner.srv.Stack.Disk} {
			tab, ok := b.Get(context.Background(), k)
			if !ok {
				t.Fatalf("seed %d: the local compute did not land in %s", seed, name)
			}
			if b, err := tab.EncodedJSON(); err != nil || string(b) != got {
				t.Fatalf("seed %d: %s holds %q, want the owner's bytes", seed, name, b)
			}
		}
	}
	if m := nonOwner.srv.Sched.Metrics(); m.Computed != 2 || m.ComputedForeign != 2 {
		t.Fatalf("non-owner computed %d (%d foreign), want 2 local fallbacks", m.Computed, m.ComputedForeign)
	}
	if st := set.Get("owner:" + owner.url).Stats(); st.Failures != 2 {
		t.Fatalf("owner breaker recorded %d failures, want one per damaged fetch (last error %q)", st.Failures, st.LastError)
	}
	if f := nonOwner.srv.fleetC.fallbacks.Load(); f != 2 {
		t.Fatalf("%d fleet fallbacks, want 2", f)
	}
}

// getOK GETs path from the replica and returns the body of its 200.
func (r *fleetReplica) getOK(t *testing.T, path string) string {
	t.Helper()
	res, body := r.get(t, path)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: %d %s", r.url, path, res.StatusCode, body)
	}
	return body
}

// TestOwnerFetchHitIsCodecFree: a cold non-owner answers a table its
// owner holds with the owner's verified bytes — X-Cache-Tier fleet, a
// Repr-Digest that is their SHA-256, no estimator run — at zero decodes
// and zero encodes, and the local backfill makes the next request a
// memory hit that is still free.
func TestOwnerFetchHitIsCodecFree(t *testing.T) {
	var calls atomic.Int64
	seeds := make([]uint64, 1)
	owner, nonOwner := ownerPair(t, countingRegistry(&calls, nil), seeds)
	path := fmt.Sprintf("/tables/EX?seed=%d", seeds[0])
	want := owner.getOK(t, path)

	enc0, dec0 := result.Encodes(), result.Decodes()
	res, body := nonOwner.get(t, path)
	if res.StatusCode != http.StatusOK || res.Header.Get("X-Cache") != "hit" || res.Header.Get("X-Cache-Tier") != "fleet" {
		t.Fatalf("non-owner: %d X-Cache %q tier %q, want a fleet hit", res.StatusCode, res.Header.Get("X-Cache"), res.Header.Get("X-Cache-Tier"))
	}
	if body != want || res.Header.Get("X-Served-By") != owner.url {
		t.Fatalf("non-owner served %q by %q, want the owner's bytes", body, res.Header.Get("X-Served-By"))
	}
	if got, sum := res.Header.Get(headerReprDigest), formatReprDigest(sha256.Sum256([]byte(body))); got != sum {
		t.Fatalf("Repr-Digest %q, want %q", got, sum)
	}
	res, body = nonOwner.get(t, path)
	if res.Header.Get("X-Cache-Tier") != "memory" || body != want {
		t.Fatalf("backfilled hit: tier %q", res.Header.Get("X-Cache-Tier"))
	}
	if enc, dec := result.Encodes()-enc0, result.Decodes()-dec0; enc != 0 || dec != 0 {
		t.Fatalf("owner fetch and backfilled hit cost %d encodes and %d decodes, want 0 and 0", enc, dec)
	}
	if _, ok := nonOwner.srv.Stack.Disk.Get(context.Background(), store.KeyFor("EX", result.Params{Seed: seeds[0], Quick: true})); !ok {
		t.Fatal("the owner fetch was not backfilled to disk")
	}
	if calls.Load() != 1 || nonOwner.srv.Sched.Metrics().Computed != 0 {
		t.Fatalf("%d estimator runs (non-owner computed %d), want the owner's 1", calls.Load(), nonOwner.srv.Sched.Metrics().Computed)
	}
}

// FuzzReprDigest pins the Repr-Digest parser on arbitrary header
// values: it never panics, and an accepted value yields a digest whose
// rendering parses back to the same bytes. Of the seeds, only the
// well-formed ones are accepted.
func FuzzReprDigest(f *testing.F) {
	valid := formatReprDigest(sha256.Sum256([]byte("table\n")))
	b64 := valid[len("sha-256=:"):]
	for _, c := range []struct {
		v  string
		ok bool
	}{
		{valid, true},
		{"sha-512=:AAAA:, " + valid, true},  // another algorithm first
		{valid[:len(valid)-6] + ":", false}, // truncated base64
		{strings.Trim(valid, ":"), false},   // missing colons
		{"sha-256=" + b64, false},           // missing opening colon
		{"sha-512=:" + b64, false},          // a different algorithm only
		{valid + ", " + valid, false},       // duplicated members
		{valid + ";q=1", false},             // a parameter
		{"", false},
	} {
		if _, err := parseReprDigest(c.v); (err == nil) != c.ok {
			f.Fatalf("parseReprDigest(%q) error %v, want accepted: %t", c.v, err, c.ok)
		}
		f.Add(c.v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sum, err := parseReprDigest(v)
		if err != nil {
			return
		}
		again, err := parseReprDigest(formatReprDigest(sum))
		if err != nil || again != sum {
			t.Fatalf("%q parsed to %x, whose rendering parses to %x, %v", v, sum, again, err)
		}
	})
}
