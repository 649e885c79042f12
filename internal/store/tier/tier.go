// Package tier composes store backends into one tiered store: a Get
// falls through the stack fastest-first (memory → disk → shared
// bucket) and backfills every faster tier on a hit, so the corpus
// migrates toward the cheapest medium that traffic actually touches; a
// Put write-throughs every tier.
//
// # Degradation rules
//
// The stack inherits the Backend contract tier by tier: every failure
// inside a tier is that tier's miss, so the worst a broken tier can do
// is push the lookup one level down — and past the last level, into a
// local recompute. Concretely:
//
//   - an evicted L0 entry refills from L1 on the next Get;
//   - a corrupt L1 object falls through to L2 and is healed by the
//     backfill's overwrite;
//   - an unreachable shared bucket degrades the stack to local tiers
//     only — lookups keep working and computation happens locally. With breakers attached (Config.Breakers) the
//     outage is also remembered: repeated failures open the tier's
//     breaker and later lookups skip it in microseconds instead of
//     re-paying a connect failure or timeout per miss, until a
//     half-open probe finds it healthy again.
//
// Backfill failures are likewise absorbed: a hot table that cannot be
// written into L0 is simply served from L1 again next time.
package tier

import (
	"context"
	"sync/atomic"

	"repro/internal/result"
	"repro/internal/store"
)

// Tiered is a stack of backends, fastest first. It implements
// store.Backend itself, so stacks nest and every consumer of a single
// store (the scheduler, the CLI) takes a stack unchanged.
type Tiered struct {
	tiers    []store.Backend
	counters []counters
}

// counters is one tier's traffic, seen from this stack: a "hit at L1"
// here means L0 missed first.
type counters struct {
	hits, misses, backfills atomic.Uint64
}

// New composes tiers (fastest first) into one store. At least one tier
// is required.
func New(tiers ...store.Backend) *Tiered {
	if len(tiers) == 0 {
		//bcclint:allow(missdegrade) construction-time misconfiguration guard: unreachable once a tier is serving (every caller passes a literal non-empty stack)
		panic("tier: empty stack")
	}
	return &Tiered{tiers: tiers, counters: make([]counters, len(tiers))}
}

// Name identifies the composed store in stats and cache headers.
func (t *Tiered) Name() string { return "tiered" }

// Get looks k up fastest-tier-first. On a hit at level i every level
// above i is backfilled (best effort) so the next lookup stops earlier.
func (t *Tiered) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	tab, _, ok := t.GetTier(ctx, k)
	return tab, ok
}

// GetTier is Get plus the name of the tier that answered — the serving
// layer surfaces it as the X-Cache-Tier header.
func (t *Tiered) GetTier(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	return t.getTierN(ctx, k, len(t.tiers))
}

// getTierN is GetTier restricted to the first n tiers: the serving
// layer's cached=only path must stop before the shared bucket, while
// still sharing this stack's counters and backfill behavior.
func (t *Tiered) getTierN(ctx context.Context, k store.Key, n int) (*result.Table, string, bool) {
	for i, b := range t.tiers[:n] {
		tab, ok := b.Get(ctx, k)
		if !ok {
			t.counters[i].misses.Add(1)
			continue
		}
		t.counters[i].hits.Add(1)
		for j := i - 1; j >= 0; j-- {
			// A failed backfill only costs the next lookup one extra
			// level; never the answer.
			if t.tiers[j].Put(k, tab) == nil {
				t.counters[j].backfills.Add(1)
			}
		}
		return tab, b.Name(), true
	}
	return nil, "", false
}

// Put write-throughs every tier, fastest first. The first failure is
// returned after all tiers have been attempted — persistence degrades
// tier by tier, and callers (the scheduler) may ignore the error
// entirely.
func (t *Tiered) Put(k store.Key, tab *result.Table) error {
	var firstErr error
	for _, b := range t.tiers {
		if err := b.Put(k, tab); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// TierStats is one tier's view of the stack's traffic.
type TierStats struct {
	// Name is the tier's Backend name ("memory", "disk", "objstore").
	Name string `json:"name"`
	// Hits counts lookups this tier answered; a hit at a slow tier means
	// every faster tier missed first.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that fell through this tier.
	Misses uint64 `json:"misses"`
	// Backfills counts tables written into this tier because a slower
	// tier hit.
	Backfills uint64 `json:"backfills"`
}

// Stats reports per-tier traffic, fastest tier first.
func (t *Tiered) Stats() []TierStats {
	out := make([]TierStats, len(t.tiers))
	for i, b := range t.tiers {
		out[i] = TierStats{
			Name:      b.Name(),
			Hits:      t.counters[i].hits.Load(),
			Misses:    t.counters[i].misses.Load(),
			Backfills: t.counters[i].backfills.Load(),
		}
	}
	return out
}

// Tiers returns the stack's backends, fastest first.
func (t *Tiered) Tiers() []store.Backend { return t.tiers }
