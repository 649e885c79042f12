// Package store is the content-addressed cache of completed experiment
// tables: any (experiment, seed, quick) triple is computed once ever,
// then served from cache by every later run — the CLI, the scheduler,
// and the bccserve HTTP API all read and write the same corpus.
//
// The Get/Put contract lives in the Backend interface; this package's
// Store is the durable disk tier (L1). Sibling packages implement the
// other tiers on the same contract — store/memlru is the in-process hot
// table (L0), store/objstore the writable bucket a fleet shares (L2),
// store/remote reads a peer bccserve's corpus over HTTP — and
// store/tier composes any stack of them with fallthrough and backfill.
// Every tier degrades to a miss on failure (damage, network, decode):
// lookups never error, callers recompute instead.
//
// # Layout
//
//	<dir>/objects/<fingerprint>.json   one table per file
//
// Each object is a header line carrying the SHA-256 of the body, then
// the body: the table's wire bytes (its canonical JSON plus a newline,
// internal/result), verbatim. Seal and Unseal are that codec, and the
// shared bucket (store/objstore) stores the same objects. The
// fingerprint in the file name addresses the content before it is
// computed (it hashes the run identity — experiment id, seed, quick,
// schema version); the checksum inside detects damage after. There is
// no index: listings stat the objects they ask about, Stats reads the
// directory, and Prune scans it.
//
// # The hit path
//
// A hit is one file read, a header compare, one SHA-256 of the body,
// and result.FromWire's check that the body opens with this schema
// version and the requested id. The verified bytes become the table's
// memoized wire encoding, so serving it as JSON costs neither a decode
// nor an encode; its typed rows are decoded only if something reads
// them (result.Table.Decoded).
//
// # Durability and concurrency
//
// Writes are atomic (WriteFileAtomic): the object is written to a
// temporary file in the objects directory and renamed into place, so
// readers never observe a half-written object. Concurrent writers
// racing on one fingerprint are harmless — both write identical bytes
// (fingerprints determine content) and either rename wins. Reads
// tolerate corruption: a truncated, damaged, or schema-incompatible
// object — or one in an older layout — is reported as a miss, so the
// caller recomputes instead of failing, and the recompute's Put
// atomically overwrites it. Readers never delete — removal on a failed
// read could race a concurrent writer's rename and destroy a healthy
// object.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/result"
)

// Store is a handle on one cache directory. It is safe for concurrent
// use by multiple goroutines; distinct processes sharing one directory
// are also safe thanks to the atomic-rename write discipline.
type Store struct {
	dir string

	hits, misses, puts atomic.Uint64
	corrupt            atomic.Uint64 // reads that failed verification
}

// Stats summarizes a store's content and this handle's traffic.
type Stats struct {
	// Objects and Bytes describe what is on disk now.
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// Hits/Misses/Puts/Corrupt count this handle's operations: Corrupt
	// counts reads that failed verification (the object stays in place
	// and is healed by the next Put for its fingerprint).
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Corrupt uint64 `json:"corrupt"`
}

// Open returns a handle on dir, creating the layout if needed. Orphaned
// temp files from a previous crash mid-write are swept (they are
// invisible to reads, but on a small disk a crash loop would otherwise
// accumulate them without bound).
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir}
	if err := os.MkdirAll(s.objectsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	SweepOrphans(s.objectsDir())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Name identifies the disk tier in stats and cache headers.
func (s *Store) Name() string { return "disk" }

func (s *Store) objectsDir() string { return filepath.Join(s.dir, "objects") }

func (s *Store) objectPath(fp string) string {
	return filepath.Join(s.dir, "objects", fp+".json")
}

// validFingerprint guards the file-name position: fingerprints are
// 64-char lowercase hex (result.Fingerprint's output), so nothing a
// caller passes can escape the objects directory.
func validFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// objectFingerprint returns the fingerprint an objects-directory entry
// stores, or false for anything else (temp files, strays).
func objectFingerprint(name string) (string, bool) {
	fp, ok := strings.CutSuffix(name, ".json")
	return fp, ok && validFingerprint(fp)
}

// Get returns the cached table for a key, or (nil, false) on a miss.
// Corrupt or unreadable objects count as misses; the caller's
// recompute-and-Put overwrites a damaged object in place. The
// fingerprint names the object and the key's id must open its body.
// The context is ignored: a local disk read is not worth making
// interruptible.
func (s *Store) Get(_ context.Context, k Key) (*result.Table, bool) {
	t, err := s.read(k)
	if err != nil || t == nil {
		s.misses.Add(1)
		if errors.Is(err, errCorrupt) {
			s.corrupt.Add(1)
		}
		return nil, false
	}
	s.hits.Add(1)
	return t, true
}

// errCorrupt marks an object that was read in full but failed
// verification — proven damage, distinct from transient I/O failure.
var errCorrupt = errors.New("store: object corrupt")

// read loads and verifies one object: (nil, nil) means absent, an
// errCorrupt-wrapped error means present but damaged, any other error
// is a (possibly transient) read failure. Nothing is ever deleted here.
func (s *Store) read(k Key) (*result.Table, error) {
	if !validFingerprint(k.Fingerprint) {
		return nil, nil
	}
	raw, err := os.ReadFile(s.objectPath(k.Fingerprint))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	body, err := Unseal(raw)
	var t *result.Table
	if err == nil {
		t, err = result.FromWire(k.ID, body)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	return t, nil
}

// Put stores a table under its key's fingerprint with an atomic
// write-and-rename. The body is the table's memoized wire encoding, so
// a table that any tier or response has already touched — and every
// table a tier read back — costs this Put zero raw encodes.
func (s *Store) Put(k Key, t *result.Table) error {
	if !validFingerprint(k.Fingerprint) {
		return fmt.Errorf("store: malformed fingerprint %q", k.Fingerprint)
	}
	wire, err := t.EncodedJSON()
	if err != nil {
		return fmt.Errorf("store: encoding table %s: %w", t.ID, err)
	}
	if err := WriteFileAtomic(s.objectPath(k.Fingerprint), Seal(wire)); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// Has reports whether k's object is on disk: one stat, no read and no
// verification, so a damaged object counts as present until a Get
// misses on it and the recompute's Put heals it. A missing object is
// (false, nil). A store that cannot be read at all — its objects
// directory gone or unreadable — is an error, so a listing built on Has
// never passes a broken replica off as a cold one.
func (s *Store) Has(k Key) (bool, error) {
	if !validFingerprint(k.Fingerprint) {
		return false, nil
	}
	_, err := os.Stat(s.objectPath(k.Fingerprint))
	if errors.Is(err, fs.ErrNotExist) {
		_, err = os.Stat(s.objectsDir())
		return false, err
	}
	return err == nil, err
}

// Stats reports the store's current disk content and this handle's
// traffic counters. It reads the objects directory, not the objects.
func (s *Store) Stats() (Stats, error) {
	des, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Puts: s.puts.Load(), Corrupt: s.corrupt.Load()}
	for _, de := range des {
		if _, ok := objectFingerprint(de.Name()); !ok {
			continue
		}
		if info, err := de.Info(); err == nil {
			st.Objects++
			st.Bytes += info.Size()
		}
	}
	return st, nil
}

// Prune removes every object older than maxAge and every provably
// damaged object regardless of age (one that was read in full and
// failed its header or checksum — an object that merely failed to
// read, e.g. under fd exhaustion or a permission hiccup, is left
// alone), returning how many were removed. Objects in an older layout
// fail the header check, so Prune clears them too. It also sweeps temp
// files orphaned by a crash mid-write (not counted in the return — they
// were never objects).
func Prune(s *Store, maxAge time.Duration) (int, error) {
	SweepOrphans(s.objectsDir())
	des, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return 0, err
	}
	cutoff := time.Now().Add(-maxAge)
	removed := 0
	for _, de := range des {
		fp, ok := objectFingerprint(de.Name())
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		path := s.objectPath(fp)
		if info.ModTime().Before(cutoff) || damaged(path) {
			if os.Remove(path) == nil {
				removed++
			}
		}
	}
	return removed, nil
}

// damaged reports whether the object at path was read in full and
// failed Unseal.
func damaged(path string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	_, err = Unseal(raw)
	return err != nil
}
