package store

import (
	"context"
	"testing"

	"repro/internal/result"
)

// benchTable builds a table of roughly serving size (tens of rows) so
// the hit path checksums a realistic body.
func benchTable(rows int) *result.Table {
	t := &result.Table{
		ID:      "EB",
		Title:   "hit-path benchmark table",
		Claim:   "store hits are pure disk reads",
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

// BenchmarkGetHit is the L1 serving hot path: one cached-table lookup —
// file read, header compare, SHA-256 of the body, schema/id prefix
// check. Nothing is decoded. The baseline lives in BENCH_STORE.json.
func BenchmarkGetHit(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 1})
	if err := s.Put(k, benchTable(24)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(context.Background(), k); !ok {
			b.Fatal("warmed store missed")
		}
	}
}

// BenchmarkGetMiss is the cost a miss adds before the estimator runs —
// one failed stat. It must stay negligible next to any computation.
func BenchmarkGetMiss(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(context.Background(), k); ok {
			b.Fatal("empty store hit")
		}
	}
}

// BenchmarkPut is the persistence cost of one fresh computation once
// its wire bytes are memoized: checksum header, atomic temp+rename
// write.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := KeyFor("EB", result.Params{Seed: 3})
	t := benchTable(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(k, t); err != nil {
			b.Fatal(err)
		}
	}
}
