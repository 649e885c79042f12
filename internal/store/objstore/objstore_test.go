package objstore

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/result"
	"repro/internal/store"
)

// The shared tier is a store.Backend like every other tier.
var _ store.Backend = (*Tier)(nil)

func tableFor(id string) *result.Table {
	t := &result.Table{
		ID:      id,
		Title:   "title of " + id,
		Claim:   "claim",
		Columns: []string{"n", "v"},
		Shape:   "holds",
	}
	t.AddRow(result.Int(64), result.Float(0.25).WithErr(0.01))
	return t
}

func keyFor(id string, seed uint64) store.Key {
	return store.KeyFor(id, result.Params{Seed: seed})
}

// clients runs a subtest against both bundled ObjectClient
// implementations: the contract must hold identically.
func clients(t *testing.T, f func(t *testing.T, c ObjectClient)) {
	t.Run("mem", func(t *testing.T) { f(t, NewMem()) })
	t.Run("fs", func(t *testing.T) {
		c, err := NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f(t, c)
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	clients(t, func(t *testing.T, c ObjectClient) {
		tier := New(c)
		k := keyFor("E3", 1)
		if _, ok := tier.Get(context.Background(), k); ok {
			t.Fatal("hit on empty bucket")
		}
		want := tableFor("E3")
		if err := tier.Put(k, want); err != nil {
			t.Fatal(err)
		}
		got, ok := tier.Get(context.Background(), k)
		if !ok {
			t.Fatal("miss after put")
		}
		if !want.Equal(got) {
			t.Fatal("round-tripped table differs")
		}
		st := tier.Stats()
		if st.Hits != 1 || st.NotFound != 1 || st.Errors != 0 || st.Puts != 1 {
			t.Fatalf("stats %+v, want 1 hit / 1 not-found / 0 errors / 1 put", st)
		}
	})
}

func TestTwoTiersShareOneBucket(t *testing.T) {
	// Two Tier handles over one client are the fleet picture: replica A
	// writes through, replica B's next miss is a hit with no contact
	// between the replicas themselves.
	bucket := NewMem()
	a, b := New(bucket), New(bucket)
	k := keyFor("E7", 3)
	if err := a.Put(k, tableFor("E7")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(context.Background(), k)
	if !ok || got.ID != "E7" {
		t.Fatalf("replica B missed the shared object (ok=%v)", ok)
	}
}

func TestDamagedObjectIsMiss(t *testing.T) {
	wire, err := tableFor("E3").EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"not json": []byte("not json at all"),
		// A header whose checksum is not the body's.
		"bad checksum": []byte("repro-object sha256=" + checksumOf([]byte("other")) + "\n" + string(wire)),
		// A valid checksum over a body that is not a table.
		"undecodable table": store.Seal([]byte("\"junk\"\n")),
		// The previous layout: a JSON envelope around the table.
		"old envelope": []byte(`{"checksum":"` + checksumOf(wire[:len(wire)-1]) + `","table":` + string(wire)),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			bucket := NewMem()
			tier := New(bucket)
			k := keyFor("E3", 1)
			if err := bucket.Put(context.Background(), objectKey(k.Fingerprint), raw); err != nil {
				t.Fatal(err)
			}
			if _, ok := tier.Get(context.Background(), k); ok {
				t.Fatal("damaged object served as a hit")
			}
			if st := tier.Stats(); st.Errors != 1 {
				t.Fatalf("stats %+v, want 1 error", st)
			}
		})
	}
}

func TestWrongExperimentIDIsMiss(t *testing.T) {
	bucket := NewMem()
	tier := New(bucket)
	// A valid E3 object stored under E5's fingerprint (a misconfigured
	// or hostile writer) must not answer for E5.
	k3, k5 := keyFor("E3", 1), keyFor("E5", 1)
	if err := tier.Put(k3, tableFor("E3")); err != nil {
		t.Fatal(err)
	}
	raw, err := bucket.Get(context.Background(), objectKey(k3.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if err := bucket.Put(context.Background(), objectKey(k5.Fingerprint), raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := tier.Get(context.Background(), k5); ok {
		t.Fatal("object for E3 answered a lookup for E5")
	}
}

// failingClient errors on every call — an unreachable bucket.
type failingClient struct{}

func (failingClient) Name() string                                { return "failing" }
func (failingClient) Get(context.Context, string) ([]byte, error) { return nil, errors.New("down") }
func (failingClient) Put(context.Context, string, []byte) error   { return errors.New("down") }

func TestUnreachableBucketDegradesToMiss(t *testing.T) {
	tier := New(failingClient{})
	k := keyFor("E3", 1)
	if _, ok := tier.Get(context.Background(), k); ok {
		t.Fatal("hit from an unreachable bucket")
	}
	if err := tier.Put(k, tableFor("E3")); err == nil {
		t.Fatal("Put against a dead bucket reported success")
	}
	st := tier.Stats()
	if st.Errors != 1 || st.PutErrors != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 1 error / 1 put-error", st)
	}
}

func TestFSKeyValidation(t *testing.T) {
	dir := t.TempDir()
	c, err := NewFS(filepath.Join(dir, "bucket"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`} {
		if err := c.Put(context.Background(), key, []byte("x")); err == nil {
			t.Fatalf("key %q accepted", key)
		}
		if _, err := c.Get(context.Background(), key); err == nil ||
			errors.Is(err, ErrNotFound) {
			t.Fatalf("key %q read as a clean not-found", key)
		}
	}
	// Nothing may have escaped the bucket root.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "bucket" {
		t.Fatalf("bucket wrote outside its root: %v", entries)
	}
}

func TestFSAtomicOverwriteUnderRace(t *testing.T) {
	c, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier := New(c)
	k := keyFor("E3", 1)
	tab := tableFor("E3")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := tier.Put(k, tab); err != nil {
					t.Error(err)
					return
				}
				if _, ok := tier.Get(context.Background(), k); !ok {
					t.Error("reader observed a torn object")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := tier.Stats(); st.Errors != 0 {
		t.Fatalf("stats %+v: damage observed under racing writers", st)
	}
}

// checksumOf mirrors the object header's checksum for test fixtures.
func checksumOf(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

func TestFSOrphanedTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(context.Background(), "live.json", []byte("object")); err != nil {
		t.Fatal(err)
	}
	// A crashed writer's debris (old) and a possibly-live in-flight
	// write from another replica (young).
	old := time.Now().Add(-2 * time.Hour)
	stale := filepath.Join(dir, ".tmp-crashed123")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	young := filepath.Join(dir, ".tmp-inflight456")
	if err := os.WriteFile(young, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := NewFS(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp-file orphan survived reopen")
	}
	if _, err := os.Stat(young); err != nil {
		t.Errorf("young temp file was swept: %v", err)
	}
	if got, err := fs.Get(context.Background(), "live.json"); err != nil || string(got) != "object" {
		t.Fatalf("stored object after sweep: %q, %v", got, err)
	}
}

func TestGetBreakerOpensOnDownBucket(t *testing.T) {
	get := breaker.New("objstore", breaker.Options{Failures: 3, Cooldown: time.Hour})
	put := breaker.New("objstore-put", breaker.Options{Failures: 3, Cooldown: time.Hour})
	tier := New(failingClient{}, WithBreakers(get, put))
	k := keyFor("E1", 1)
	for i := 0; i < 3; i++ {
		if _, ok := tier.Get(context.Background(), k); ok {
			t.Fatal("down bucket hit")
		}
	}
	if get.State() != breaker.Open {
		t.Fatalf("get breaker %v after 3 failures", get.State())
	}
	if put.State() != breaker.Closed {
		t.Fatal("get failures opened the put breaker — directions must be independent")
	}
	tier.Get(context.Background(), k)
	if st := tier.Stats(); st.GetShortCircuits != 1 {
		t.Fatalf("stats %+v, want 1 get short circuit", st)
	}
}

func TestPutBreakerOpensAndShortCircuits(t *testing.T) {
	put := breaker.New("objstore-put", breaker.Options{Failures: 2, Cooldown: time.Hour})
	tier := New(failingClient{}, WithBreakers(nil, put))
	k := keyFor("E1", 1)
	tab := tableFor("E1")
	for i := 0; i < 2; i++ {
		if err := tier.Put(k, tab); err == nil {
			t.Fatal("down bucket accepted put")
		}
	}
	if put.State() != breaker.Open {
		t.Fatalf("put breaker %v after 2 failures", put.State())
	}
	start := time.Now()
	err := tier.Put(k, tab)
	if err == nil || !strings.Contains(err.Error(), "breaker open") {
		t.Fatalf("short-circuited put: %v", err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("short-circuit took %v", el)
	}
	if st := tier.Stats(); st.PutShortCircuits != 1 {
		t.Fatalf("stats %+v, want 1 put short circuit", st)
	}
}

func TestCleanNotFoundNeverTripsGetBreaker(t *testing.T) {
	get := breaker.New("objstore", breaker.Options{Failures: 2, Cooldown: time.Hour})
	tier := New(NewMem(), WithBreakers(get, nil))
	k := keyFor("E1", 1)
	for i := 0; i < 10; i++ {
		tier.Get(context.Background(), k)
	}
	if get.State() != breaker.Closed {
		t.Fatalf("breaker %v after clean not-founds, want closed", get.State())
	}
}

func TestCorruptObjectsTripGetBreaker(t *testing.T) {
	mem := NewMem()
	k := keyFor("E1", 1)
	if err := mem.Put(context.Background(), k.Fingerprint+".json", []byte("not an object")); err != nil {
		t.Fatal(err)
	}
	get := breaker.New("objstore", breaker.Options{Failures: 2, Cooldown: time.Hour})
	tier := New(mem, WithBreakers(get, nil))
	tier.Get(context.Background(), k)
	tier.Get(context.Background(), k)
	if get.State() != breaker.Open {
		t.Fatalf("breaker %v after repeated damaged reads, want open", get.State())
	}
}

// hangingClient blocks Put until the context dies.
type hangingClient struct{ Mem }

func (h *hangingClient) Put(ctx context.Context, key string, data []byte) error {
	<-ctx.Done()
	return ctx.Err()
}

func TestWithPutTimeoutBoundsWriteThrough(t *testing.T) {
	tier := New(&hangingClient{}, WithPutTimeout(30*time.Millisecond))
	start := time.Now()
	err := tier.Put(keyFor("E1", 1), tableFor("E1"))
	el := time.Since(start)
	if err == nil {
		t.Fatal("hung put succeeded")
	}
	if el < 20*time.Millisecond || el > 2*time.Second {
		t.Fatalf("put returned after %v, want ~30ms", el)
	}
}
