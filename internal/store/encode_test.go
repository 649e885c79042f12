package store_test

import (
	"context"
	"testing"

	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/store/memlru"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
)

// TestPutReusesMemoizedEncoding: a table is raw-encoded once in its
// life. The write-throughs of a fresh table into all three tiers —
// memory (L0), disk (L1) and the shared bucket (L2) — together cost
// exactly one CanonicalJSON marshal: every tier stores the memoized
// wire bytes.
func TestPutReusesMemoizedEncoding(t *testing.T) {
	mem, err := memlru.New(4)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	obj := objstore.New(objstore.NewMem())
	stack := tier.New(mem, disk, obj)

	tab := &result.Table{ID: "E9", Title: "t", Claim: "c", Columns: []string{"n"}, Shape: "holds"}
	tab.AddRow(result.Int(9))
	k := store.KeyFor("E9", result.Params{Seed: 1})
	before := result.Encodes()
	if err := stack.Put(k, tab); err != nil {
		t.Fatal(err)
	}
	if raw := result.Encodes() - before; raw != 1 {
		t.Fatalf("L0+L1+L2 Puts of a fresh table performed %d raw encodes, want 1", raw)
	}
	for _, b := range []store.Backend{mem, disk, obj} {
		if got, ok := b.Get(context.Background(), k); !ok || !got.Equal(tab) {
			t.Fatalf("%s tier does not hold the table after the write-through", b.Name())
		}
	}
}
