package store

import (
	"context"

	"repro/internal/result"
)

// Key is the full identity of one cached table: the experiment id, the
// content-determining run parameters, and the fingerprint derived from
// them. Fingerprint alone addresses an object (the disk layout and the
// in-memory hot table key on nothing else); ID and Params ride along so
// request-shaped lookups — a fleet replica asks the owner for
// /tables/{id}?seed=&quick= — can reconstruct the wire request without
// a reverse fingerprint lookup.
//
// Build keys with KeyFor so Fingerprint always matches (ID, Params) at
// the current schema version; a hand-assembled mismatched Key defeats
// the content-addressing contract (equal fingerprints ⇒ byte-equal
// tables).
type Key struct {
	// ID is the experiment id (E1..E18).
	ID string
	// Params are the content-determining run parameters (Seed, Quick —
	// never Workers, by the worker-invariance contract).
	Params result.Params
	// Fingerprint is result.Fingerprint(ID, Params, result.SchemaVersion).
	Fingerprint string
}

// KeyFor builds the canonical Key for experiment id under p at the
// current schema version.
func KeyFor(id string, p result.Params) Key {
	return Key{ID: id, Params: p, Fingerprint: result.Fingerprint(id, p, result.SchemaVersion)}
}

// Backend is the Get/Put contract every store tier implements: the disk
// store (this package), the in-memory hot table (store/memlru), the
// shared object bucket (store/objstore), and their composition
// (store/tier).
//
// The contract, shared by all implementations:
//
//   - Get reports (nil, false) on a miss. Damage, decode failures, and
//     I/O or network errors are misses too — a tier degrades, it never
//     fails a lookup — so callers recompute instead of erroring.
//   - Put is idempotent and value-agnostic to races: equal keys carry
//     byte-equal canonical tables (the fingerprint contract), so
//     concurrent writers of one key are harmless in every tier.
//   - A returned *result.Table is shared and must be treated as
//     immutable by callers and implementations alike; the in-memory
//     tier hands out the same pointer to every hit. A table from the
//     disk or bucket tier carries its verified wire bytes and no
//     decoded rows yet: read its typed fields through
//     result.Table.Decoded.
type Backend interface {
	// Name identifies the tier in stats and the X-Cache-Tier header
	// ("memory", "disk", "objstore", "tiered").
	Name() string
	// Get returns the cached table for k, or (nil, false) on a miss.
	// The context bounds slow lookups — the bucket tier's round trip
	// honors its deadline, so a hung bucket cannot stall a request past
	// its serving timeout; a context expiry is, like every other
	// failure, a miss. Local tiers may ignore it.
	Get(ctx context.Context, k Key) (*result.Table, bool)
	// Put stores t under k. Failures degrade persistence, never the
	// computed answer — callers may ignore the error.
	Put(k Key, t *result.Table) error
}
