package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/result"
)

// The disk store is the reference Backend implementation.
var _ Backend = (*Store)(nil)

// tableFor builds a distinctive table for an experiment id.
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

func keyFor(id string, seed uint64) Key {
	return KeyFor(id, result.Params{Seed: seed})
}

func TestKeyForMatchesFingerprint(t *testing.T) {
	k := KeyFor("E3", result.Params{Seed: 9, Quick: true})
	want := result.Fingerprint("E3", result.Params{Seed: 9, Quick: true}, result.SchemaVersion)
	if k.Fingerprint != want || k.ID != "E3" || !k.Params.Quick {
		t.Fatalf("KeyFor built %+v, want fingerprint %s", k, want)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E3", 1)
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("hit on empty store")
	}
	want := tableFor("E3")
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(context.Background(), k)
	if !ok {
		t.Fatal("miss after put")
	}
	if !want.Equal(got) {
		t.Fatal("stored table differs from original")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 object / 1 hit / 1 miss / 1 put", st)
	}
}

func TestDistinctParamsDistinctObjects(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{
		keyFor("E3", 1),
		keyFor("E3", 2),
		keyFor("E4", 1),
		KeyFor("E3", result.Params{Seed: 1, Quick: true}),
		{ID: "E3", Params: result.Params{Seed: 1},
			Fingerprint: result.Fingerprint("E3", result.Params{Seed: 1}, result.SchemaVersion+1)},
	}
	for _, k := range keys {
		if err := s.Put(k, tableFor("EX")); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != len(keys) {
		t.Fatalf("%d objects for %d distinct run identities", st.Objects, len(keys))
	}
}

// TestConcurrentWritersOneFingerprint races many writers and readers on
// a single fingerprint: every completed Get must return an intact table
// (content-addressing makes the racing writes byte-identical, and the
// rename is atomic).
func TestConcurrentWritersOneFingerprint(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E7", 9)
	want := tableFor("E7")
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				errs[i] = s.Put(k, tableFor("E7"))
				return
			}
			if got, ok := s.Get(context.Background(), k); ok && !want.Equal(got) {
				errs[i] = fmt.Errorf("reader %d observed a damaged table", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, ok := s.Get(context.Background(), k)
	if !ok || !want.Equal(got) {
		t.Fatal("table damaged after write race")
	}
}

// TestTruncatedObjectIsAMiss simulates on-disk damage: the reader must
// miss (never delete — that could race a concurrent writer's rename),
// and a fresh Put must overwrite-heal the slot.
func TestTruncatedObjectIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E5", 3)
	if err := s.Put(k, tableFor("E5")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.objectPath(k.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(k.Fingerprint), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("truncated object served as a hit")
	}
	if _, err := os.Stat(s.objectPath(k.Fingerprint)); err != nil {
		t.Fatal("reader deleted the object — removal must be left to Put/Prune")
	}
	// The slot heals by overwrite.
	if err := s.Put(k, tableFor("E5")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k); !ok {
		t.Fatal("healed slot still misses")
	}
}

// TestCorruptPayloadIsAMiss changes a digit inside the body of an
// intact object, which leaves valid JSON behind: the checksum must
// catch what a parser could not.
func TestCorruptPayloadIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E5", 4)
	if err := s.Put(k, tableFor("E5")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.objectPath(k.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	// Change a digit inside the body without breaking JSON syntax.
	mutated := []byte(string(raw))
	for i := headerLen; i < len(mutated); i++ {
		if mutated[i] == '6' {
			mutated[i] = '7'
			break
		}
	}
	if string(mutated) == string(raw) {
		t.Fatal("test setup: nothing mutated")
	}
	if err := os.WriteFile(s.objectPath(k.Fingerprint), mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("checksum-corrupt object served as a hit")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt == 0 {
		t.Fatal("corrupt read not counted")
	}
	// Prune removes the provably damaged object even though it is fresh.
	removed, err := Prune(s, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("Prune removed %d, want the 1 damaged object", removed)
	}
}

func TestMalformedFingerprintRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "zz", "../../etc/passwd", "ABCDEF" + keyFor("E1", 1).Fingerprint[6:]} {
		k := Key{ID: "E1", Fingerprint: bad}
		if err := s.Put(k, tableFor("E1")); err == nil {
			t.Fatalf("Put accepted malformed fingerprint %q", bad)
		}
		if _, ok := s.Get(context.Background(), k); ok {
			t.Fatalf("Get hit on malformed fingerprint %q", bad)
		}
	}
}

// TestOldLayoutObjectHeals: an object in the previous layout (a JSON
// envelope holding a checksum and the table) fails the header check,
// reads as a corrupt miss, and the recompute's Put overwrites it. No
// migration step exists or is needed.
func TestOldLayoutObjectHeals(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E9", 5)
	wire, err := tableFor("E9").EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	canonical := wire[:len(wire)-1]
	old := fmt.Sprintf(`{"checksum":"%x","table":%s}`+"\n", sha256.Sum256(canonical), canonical)
	if err := os.WriteFile(s.objectPath(k.Fingerprint), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k); ok {
		t.Fatal("old-layout object served as a hit")
	}
	if st, _ := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want the old-layout read counted corrupt", st)
	}
	if err := s.Put(k, tableFor("E9")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(context.Background(), k); !ok || !got.Equal(tableFor("E9")) {
		t.Fatal("Put did not heal the old-layout object")
	}
}

// TestWrongIDIsAMiss: the fingerprint names the object and the key's id
// must open its body, so an intact object stored under another
// experiment's fingerprint never answers for it.
func TestWrongIDIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k3, k5 := keyFor("E3", 1), keyFor("E5", 1)
	if err := s.Put(k3, tableFor("E3")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.objectPath(k3.Fingerprint))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath(k5.Fingerprint), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(context.Background(), k5); ok {
		t.Fatal("E3's object answered for E5")
	}
}

// TestGetServesVerifiedBytes: a hit hands over the stored wire bytes as
// the table's encoded view, without decoding or re-encoding them, and
// the rows decode once, on first typed use.
func TestGetServesVerifiedBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k, want := keyFor("E4", 2), tableFor("E4")
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	wantWire, err := want.EncodedJSON()
	if err != nil {
		t.Fatal(err)
	}
	enc0, dec0 := result.Encodes(), result.Decodes()
	got, ok := s.Get(context.Background(), k)
	if !ok {
		t.Fatal("miss after put")
	}
	wire, err := got.EncodedJSON()
	if err != nil || !bytes.Equal(wire, wantWire) {
		t.Fatalf("hit bytes %q, %v; want %q", wire, err, wantWire)
	}
	if enc, dec := result.Encodes()-enc0, result.Decodes()-dec0; enc != 0 || dec != 0 {
		t.Fatalf("hit cost %d encodes and %d decodes, want 0 and 0", enc, dec)
	}
	for i := 0; i < 3; i++ {
		d, err := got.Decoded()
		if err != nil || d.Shape != "holds" || len(d.Rows) != 1 {
			t.Fatalf("decoded table %+v, %v", d, err)
		}
	}
	if dec := result.Decodes() - dec0; dec != 1 {
		t.Fatalf("three typed reads decoded %d times, want 1", dec)
	}
}

// TestHas: the listing probe sees exactly the stored objects, and a
// store whose objects directory is gone is an error, not a cold store.
func TestHas(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in, out := keyFor("E2", 1), keyFor("E2", 2)
	if err := s.Put(in, tableFor("E2")); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Has(in); !ok || err != nil {
		t.Fatalf("Has(stored) = %v, %v", ok, err)
	}
	if ok, err := s.Has(out); ok || err != nil {
		t.Fatalf("Has(absent) = %v, %v", ok, err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "objects")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Has(out); err == nil {
		t.Fatal("Has reported a store without its objects directory as merely cold")
	}
}

func TestPrune(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oldKey, newKey := keyFor("E1", 1), keyFor("E2", 2)
	for _, k := range []Key{oldKey, newKey} {
		if err := s.Put(k, tableFor(k.ID)); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(s.objectPath(oldKey.Fingerprint), past, past); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(s, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("pruned %d objects, want 1", removed)
	}
	if _, ok := s.Get(context.Background(), oldKey); ok {
		t.Fatal("pruned object still served")
	}
	if _, ok := s.Get(context.Background(), newKey); !ok {
		t.Fatal("fresh object pruned")
	}
}

func TestOrphanedTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := keyFor("E3", 1)
	if err := s.Put(k, tableFor("E3")); err != nil {
		t.Fatal(err)
	}
	// Plant the debris of crashed writers: old temp files in objects/,
	// plus one *young* temp file that could be another process's
	// in-flight write.
	old := time.Now().Add(-2 * time.Hour)
	orphans := []string{
		filepath.Join(dir, "objects", ".tmp-crashed-object"),
		filepath.Join(dir, "objects", ".tmp-crashed-other"),
	}
	for _, p := range orphans {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	young := filepath.Join(dir, "objects", ".tmp-inflight")
	if err := os.WriteFile(young, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopening simulates the post-crash restart.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale orphan %s survived reopen", p)
		}
	}
	if _, err := os.Stat(young); err != nil {
		t.Errorf("young temp file was swept: %v", err)
	}
	// The real corpus is intact: the object still reads and the store
	// still counts exactly it.
	if _, ok := s2.Get(context.Background(), k); !ok {
		t.Fatal("stored table lost to the sweep")
	}
	if st, err := s2.Stats(); err != nil || st.Objects != 1 {
		t.Fatalf("stats after sweep: %+v, %v", st, err)
	}

	// Prune also sweeps (for long-lived processes that never reopen).
	if err := os.WriteFile(orphans[0], []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(orphans[0], old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Prune(s2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphans[0]); !os.IsNotExist(err) {
		t.Error("Prune left a stale orphan behind")
	}
}
