package objstore

import (
	"context"
	"testing"

	"repro/internal/result"
	"repro/internal/store"
)

// benchTable mirrors the disk store's benchmark fixture (24 rows) so
// the objstore rows in BENCH_STORE.json sit on the same cost ladder.
func benchTable(rows int) *result.Table {
	t := &result.Table{
		ID:      "EB",
		Title:   "hit-path benchmark table",
		Claim:   "objstore hits are one bucket read + verify",
		Columns: []string{"n", "k", "advantage", "bound"},
		Shape:   "holds",
	}
	for i := 0; i < rows; i++ {
		t.AddRow(result.Int(64+i), result.Int(8),
			result.Float(0.5/float64(i+1)).WithErr(0.01),
			result.Float(1.0/float64(i+1)).WithBound(result.BoundUpper))
	}
	return t
}

func benchGetHit(b *testing.B, c ObjectClient) {
	tier := New(c)
	k := store.KeyFor("EB", result.Params{Seed: 1})
	if err := tier.Put(k, benchTable(24)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tier.Get(ctx, k); !ok {
			b.Fatal("miss on a warm bucket")
		}
	}
}

// BenchmarkGetHitFS is the shared-volume hit path a non-owner replica
// pays instead of recomputing: file read, header compare, checksum,
// schema/id prefix check — the same work as the disk tier plus
// nothing, so it should land within noise of store.BenchmarkGetHit.
func BenchmarkGetHitFS(b *testing.B) {
	c, err := NewFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	benchGetHit(b, c)
}

// BenchmarkGetHitMem isolates the object verify cost with the medium
// removed (the floor any real bucket client sits on).
func BenchmarkGetHitMem(b *testing.B) {
	benchGetHit(b, NewMem())
}

// BenchmarkPutFS is the write-through cost the owner pays once per
// fingerprint ever.
func BenchmarkPutFS(b *testing.B) {
	c, err := NewFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	tier := New(c)
	k := store.KeyFor("EB", result.Params{Seed: 1})
	tab := benchTable(24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tier.Put(k, tab); err != nil {
			b.Fatal(err)
		}
	}
}
