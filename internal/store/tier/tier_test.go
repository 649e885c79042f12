package tier

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/memlru"
	"repro/internal/store/objstore"
)

var _ store.Backend = (*Tiered)(nil)

func keyFor(seed uint64) store.Key {
	return store.KeyFor("EX", result.Params{Seed: seed})
}

func tableFor(seed uint64) *result.Table {
	t := &result.Table{ID: "EX", Title: "t", Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
	t.AddRow(result.Int(int(seed)))
	return t
}

// fake is a scriptable in-memory backend for failure injection.
type fake struct {
	name   string
	m      map[string]*result.Table
	putErr error
}

func newFake(name string) *fake { return &fake{name: name, m: map[string]*result.Table{}} }

func (f *fake) Name() string { return f.name }

func (f *fake) Get(_ context.Context, k store.Key) (*result.Table, bool) {
	t, ok := f.m[k.Fingerprint]
	return t, ok
}

func (f *fake) Put(k store.Key, t *result.Table) error {
	if f.putErr != nil {
		return f.putErr
	}
	f.m[k.Fingerprint] = t
	return nil
}

func newDisk(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func newLRU(t *testing.T, capacity int) *memlru.Cache {
	t.Helper()
	c, err := memlru.New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestL0EvictionRefillsFromL1: a table evicted from the hot tier is
// re-served from disk and backfilled, so the next lookup is a memory
// hit again.
func TestL0EvictionRefillsFromL1(t *testing.T) {
	mem := newLRU(t, 1)
	disk, _ := newDisk(t)
	stack := New(mem, disk)

	k1, k2 := keyFor(1), keyFor(2)
	if err := stack.Put(k1, tableFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := stack.Put(k2, tableFor(2)); err != nil { // evicts k1 from L0
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("L0 holds %d tables at capacity 1", mem.Len())
	}

	tab, tierName, ok := stack.GetTier(context.Background(), k1)
	if !ok || !tab.Equal(tableFor(1)) {
		t.Fatal("evicted table lost from the stack")
	}
	if tierName != "disk" {
		t.Fatalf("post-eviction hit came from %q, want disk", tierName)
	}
	// The hit backfilled L0 (evicting k2 in turn at capacity 1).
	if _, tierName, ok = stack.GetTier(context.Background(), k1); !ok || tierName != "memory" {
		t.Fatalf("refill failed: second lookup hit %q, want memory", tierName)
	}
}

// TestL1CorruptionFallsThroughToL2: a corrupt disk object degrades to
// the shared bucket tier, and the hit's backfill overwrite-heals the
// disk slot.
func TestL1CorruptionFallsThroughToL2(t *testing.T) {
	disk, dir := newDisk(t)
	l2 := newFake("objstore")
	stack := New(disk, l2)

	k := keyFor(3)
	if err := stack.Put(k, tableFor(3)); err != nil {
		t.Fatal(err)
	}
	// Smash the disk object (the fake L2 kept its copy).
	objPath := filepath.Join(dir, "objects", k.Fingerprint+".json")
	if err := os.WriteFile(objPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	tab, tierName, ok := stack.GetTier(context.Background(), k)
	if !ok || !tab.Equal(tableFor(3)) {
		t.Fatal("corrupt L1 killed the lookup instead of falling through")
	}
	if tierName != "objstore" {
		t.Fatalf("hit came from %q, want objstore", tierName)
	}
	// Backfill healed the disk slot.
	if _, tierName, ok = stack.GetTier(context.Background(), k); !ok || tierName != "disk" {
		t.Fatalf("disk slot not healed: hit from %q", tierName)
	}
}

// TestBackfillFailureStillServes: L0 rejecting the backfill write must
// not affect the answer.
func TestBackfillFailureStillServes(t *testing.T) {
	l0 := newFake("memory")
	l0.putErr = errors.New("no room")
	l1 := newFake("disk")
	stack := New(l0, l1)
	k := keyFor(5)
	l1.m[k.Fingerprint] = tableFor(5)
	tab, tierName, ok := stack.GetTier(context.Background(), k)
	if !ok || tierName != "disk" || !tab.Equal(tableFor(5)) {
		t.Fatalf("backfill failure corrupted the read path: ok=%t tier=%q", ok, tierName)
	}
}

// TestPutWriteThrough: one Put lands in every writable tier.
func TestPutWriteThrough(t *testing.T) {
	mem := newLRU(t, 4)
	disk, _ := newDisk(t)
	stack := New(mem, disk)
	k := keyFor(6)
	if err := stack.Put(k, tableFor(6)); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get(context.Background(), k); !ok {
		t.Fatal("write-through skipped L0")
	}
	if _, ok := disk.Get(context.Background(), k); !ok {
		t.Fatal("write-through skipped L1")
	}
}

// TestPutReportsFirstFailureButWritesAll: a failing tier does not stop
// the write-through behind it.
func TestPutReportsFirstFailureButWritesAll(t *testing.T) {
	bad := newFake("memory")
	bad.putErr = errors.New("broken tier")
	good := newFake("disk")
	stack := New(bad, good)
	k := keyFor(7)
	if err := stack.Put(k, tableFor(7)); err == nil {
		t.Fatal("failed tier write not reported")
	}
	if _, ok := good.m[k.Fingerprint]; !ok {
		t.Fatal("failure in L0 stopped the L1 write")
	}
}

// TestStackCachedLocalSkipsBucket: CachedLocal consults only the local
// prefix of the stack — the shared bucket is never touched, cold or
// warm — while sharing the stack's counters and backfill.
func TestStackCachedLocalSkipsBucket(t *testing.T) {
	stack, err := NewStack(Config{MemCapacity: 2, Dir: t.TempDir(), ObjstoreClient: objstore.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	bucketUntouched := func(when string) {
		t.Helper()
		if st := stack.Obj.Stats(); st.Hits+st.NotFound+st.Errors != 0 {
			t.Fatalf("%s CachedLocal touched the bucket: %+v", when, st)
		}
	}
	k := keyFor(11)
	if _, _, ok := stack.CachedLocal(context.Background(), k); ok {
		t.Fatal("empty stack reported a local hit")
	}
	bucketUntouched("cold")
	if err := stack.Backend.Put(k, tableFor(11)); err != nil {
		t.Fatal(err)
	}
	tab, tierName, ok := stack.CachedLocal(context.Background(), k)
	if !ok || tierName != "memory" || !tab.Equal(tableFor(11)) {
		t.Fatalf("local hit wrong: ok=%t tier=%q", ok, tierName)
	}
	bucketUntouched("warm")
	// The local lookups were counted on the shared stack stats.
	st := stack.Tiered.Stats()
	if st[0].Name != "memory" || st[0].Hits != 1 || st[0].Misses != 1 {
		t.Fatalf("CachedLocal traffic not counted: %+v", st)
	}
}

// TestStackCachedLocalSingleLocalTier: with one local tier and nothing
// else there is no Tiered composition; CachedLocal still answers. With
// only a bucket, it always misses.
func TestStackCachedLocalSingleLocalTier(t *testing.T) {
	stack, err := NewStack(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(12)
	if err := stack.Backend.Put(k, tableFor(12)); err != nil {
		t.Fatal(err)
	}
	if _, tierName, ok := stack.CachedLocal(context.Background(), k); !ok || tierName != "disk" {
		t.Fatalf("single-tier CachedLocal: ok=%t tier=%q", ok, tierName)
	}

	bucketOnly, err := NewStack(Config{ObjstoreClient: objstore.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	if err := bucketOnly.Backend.Put(k, tableFor(12)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := bucketOnly.CachedLocal(context.Background(), k); ok {
		t.Fatal("bucket-only stack reported a local hit")
	}
	if _, tierName, ok := bucketOnly.LookupShared(context.Background(), k); !ok || tierName != "objstore" {
		t.Fatalf("bucket-only LookupShared: ok=%t tier=%q", ok, tierName)
	}
}

// TestStackObjstoreSlot pins the fleet tier's position in the stack:
// the shared bucket answers LookupShared and full Gets (backfilling
// the local tiers), but CachedLocal never consults it and a Put
// write-throughs into it.
func TestStackObjstoreSlot(t *testing.T) {
	bucket := objstore.NewMem()
	stack, err := NewStack(Config{MemCapacity: 2, Dir: t.TempDir(), ObjstoreClient: bucket})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Obj == nil {
		t.Fatal("objstore tier not assembled")
	}

	// Another replica (its own stack over the same bucket) computes and
	// write-throughs a table.
	other, err := NewStack(Config{MemCapacity: 2, Dir: t.TempDir(), ObjstoreClient: bucket})
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(21)
	if err := other.Backend.Put(k, tableFor(21)); err != nil {
		t.Fatal(err)
	}
	if bucket.Len() != 1 {
		t.Fatalf("write-through left %d objects in the bucket, want 1", bucket.Len())
	}

	// This replica's local tiers are cold: cached=only must miss without
	// touching the bucket…
	if _, _, ok := stack.CachedLocal(context.Background(), k); ok {
		t.Fatal("CachedLocal answered from the shared bucket")
	}
	if st := stack.Obj.Stats(); st.Hits+st.NotFound+st.Errors != 0 {
		t.Fatalf("CachedLocal touched the bucket: %+v", st)
	}
	// …while LookupShared hits it and backfills the local tiers.
	tab, tierName, ok := stack.LookupShared(context.Background(), k)
	if !ok || tierName != "objstore" || !tab.Equal(tableFor(21)) {
		t.Fatalf("LookupShared: ok=%t tier=%q", ok, tierName)
	}
	if _, tierName, ok := stack.CachedLocal(context.Background(), k); !ok || tierName != "memory" {
		t.Fatalf("backfill after shared hit missing: ok=%t tier=%q", ok, tierName)
	}
}

// TestStackBackfillLocal: the owner-proxy landing path writes local
// tiers only — the bucket already holds the owner's write-through.
func TestStackBackfillLocal(t *testing.T) {
	bucket := objstore.NewMem()
	stack, err := NewStack(Config{MemCapacity: 2, Dir: t.TempDir(), ObjstoreClient: bucket})
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor(23)
	stack.BackfillLocal(k, tableFor(23))
	if bucket.Len() != 0 {
		t.Fatalf("BackfillLocal wrote %d objects into the shared bucket", bucket.Len())
	}
	if _, tierName, ok := stack.CachedLocal(context.Background(), k); !ok || tierName != "memory" {
		t.Fatalf("local backfill not visible: ok=%t tier=%q", ok, tierName)
	}
	if _, ok := stack.Disk.Get(context.Background(), k); !ok {
		t.Fatal("local backfill skipped the disk tier")
	}
}

func TestStatsPerTier(t *testing.T) {
	mem := newLRU(t, 1)
	disk, _ := newDisk(t)
	stack := New(mem, disk)
	k1, k2 := keyFor(8), keyFor(9)
	stack.Put(k1, tableFor(8))
	stack.Put(k2, tableFor(9))                  // evicts k1 from L0
	stack.Get(context.Background(), k1)         // disk hit + memory backfill
	stack.Get(context.Background(), k1)         // memory hit
	stack.Get(context.Background(), keyFor(10)) // full miss

	st := stack.Stats()
	if len(st) != 2 || st[0].Name != "memory" || st[1].Name != "disk" {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st[0].Hits != 1 || st[1].Hits != 1 {
		t.Fatalf("hit attribution wrong: %+v", st)
	}
	if st[0].Misses != 2 || st[1].Misses != 1 {
		t.Fatalf("miss attribution wrong: %+v", st)
	}
	if st[0].Backfills != 1 {
		t.Fatalf("backfill count wrong: %+v", st)
	}
}

// TestStackMemMaxBytesReachesCache: the byte cap configured on the
// stack lands on the assembled L0 and shows up in its stats.
func TestStackMemMaxBytesReachesCache(t *testing.T) {
	stack, err := NewStack(Config{MemCapacity: 8, MemMaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got := stack.Mem.Stats().MaxBytes; got != 4096 {
		t.Fatalf("L0 MaxBytes = %d, want 4096", got)
	}
}
