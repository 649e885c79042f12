package serve

import (
	"crypto/sha256"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
)

// stackServer serves the synthetic registry over an explicit tier
// configuration.
func stackServer(t *testing.T, calls *atomic.Int64, cfg tier.Config) *Server {
	t.Helper()
	stack, err := tier.NewStack(cfg)
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
	}
}

// TestJSONHitFromDiskOrBucketIsCodecFree: a JSON GET answered by the
// disk tier (L1) or the shared bucket (L2) serves the verified stored
// bytes — zero decodes and zero encodes, backfills included — and the
// body is byte-identical to the one the computing replica served.
func TestJSONHitFromDiskOrBucketIsCodecFree(t *testing.T) {
	dir, bucket := t.TempDir(), objstore.NewMem()
	var calls atomic.Int64
	// The computing replica writes through to both the disk store and
	// the bucket; the readers below start with cold memory.
	warm := stackServer(t, &calls, tier.Config{MemCapacity: 4, Dir: dir, ObjstoreClient: bucket})
	res, want := get(t, warm.Handler(), "/tables/EX?seed=7")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("warm: %d %s", res.StatusCode, want)
	}
	for _, c := range []struct {
		tier string
		cfg  tier.Config
	}{
		{"disk", tier.Config{MemCapacity: 4, Dir: dir}},
		{"objstore", tier.Config{MemCapacity: 4, Dir: t.TempDir(), ObjstoreClient: bucket}},
	} {
		h := stackServer(t, &calls, c.cfg).Handler()
		enc0, dec0 := result.Encodes(), result.Decodes()
		res, body := get(t, h, "/tables/EX?seed=7")
		if got := res.Header.Get("X-Cache-Tier"); res.StatusCode != http.StatusOK || got != c.tier {
			t.Fatalf("%s: status %d tier %q, want 200 from %s", c.tier, res.StatusCode, got, c.tier)
		}
		if body != want {
			t.Fatalf("%s hit body differs from the computed body", c.tier)
		}
		if enc, dec := result.Encodes()-enc0, result.Decodes()-dec0; enc != 0 || dec != 0 {
			t.Fatalf("%s JSON hit cost %d encodes and %d decodes, want 0 and 0", c.tier, enc, dec)
		}
		// The backfilled memory entry serves the same bytes, still free.
		res, body = get(t, h, "/tables/EX?seed=7")
		if res.Header.Get("X-Cache-Tier") != "memory" || body != want {
			t.Fatalf("%s: backfilled memory hit wrong (tier %q)", c.tier, res.Header.Get("X-Cache-Tier"))
		}
		if enc, dec := result.Encodes()-enc0, result.Decodes()-dec0; enc != 0 || dec != 0 {
			t.Fatalf("%s: memory hit after backfill cost %d encodes, %d decodes", c.tier, enc, dec)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("%d computations, want 1", calls.Load())
	}
}

// TestMarkdownFromTierDecodesOnce: repeated format=md GETs of a table
// read back from disk decode it exactly once, and serve the markdown of
// the eagerly built table byte for byte.
func TestMarkdownFromTierDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	get(t, stackServer(t, &calls, tier.Config{Dir: dir}).Handler(), "/tables/EX?seed=7")

	eager, err := countingRegistry(&calls, nil)()[0].Run(experiments.Config{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := eager.Render(&want); err != nil {
		t.Fatal(err)
	}

	h := stackServer(t, &calls, tier.Config{MemCapacity: 4, Dir: dir}).Handler()
	dec0 := result.Decodes()
	for i := 0; i < 5; i++ {
		res, body := get(t, h, "/tables/EX?seed=7&format=md")
		if res.StatusCode != http.StatusOK || res.Header.Get("X-Cache") != "hit" {
			t.Fatalf("md request %d: %d, X-Cache %q", i, res.StatusCode, res.Header.Get("X-Cache"))
		}
		if body != want.String() {
			t.Fatalf("md request %d served %q, want %q", i, body, want.String())
		}
	}
	if dec := result.Decodes() - dec0; dec != 1 {
		t.Fatalf("5 markdown GETs decoded the table %d times, want 1", dec)
	}
}

// TestMarkdownOfUndecodableTableIs500: a stored object whose checksum
// and schema/id prefix verify but whose body does not decode still
// serves its bytes as JSON, and its markdown view is a 500 — never an
// empty render.
func TestMarkdownOfUndecodableTableIs500(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	srv := stackServer(t, &calls, tier.Config{Dir: dir})
	k := store.KeyFor("EX", result.Params{Seed: 7, Quick: true})
	wire := `{"schema":1,"id":"EX","rows":"not rows"}` + "\n"
	path := filepath.Join(dir, "objects", k.Fingerprint+".json")
	tab, err := result.FromWire("EX", []byte(wire), sha256.Sum256([]byte(wire)))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := store.Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, obj, 0o644); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	res, body := get(t, h, "/tables/EX?seed=7&format=md")
	if res.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "rendering EX") {
		t.Fatalf("md of an undecodable table: %d %q, want a 500 naming the render", res.StatusCode, body)
	}
	if res, body = get(t, h, "/tables/EX?seed=7"); res.StatusCode != http.StatusOK || body != wire {
		t.Fatalf("json of the verified bytes: %d %q", res.StatusCode, body)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d computations, want 0", calls.Load())
	}
}
