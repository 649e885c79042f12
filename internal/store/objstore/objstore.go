// Package objstore is the writable shared tier of the result store: a
// store.Backend over a bucket-style object client keyed by fingerprint,
// so a fleet of replicas shares one *writable* corpus — the first
// replica to compute a table Puts it (write-through from the tier
// stack), and every other replica's next miss finds it without talking
// to the replica that computed it.
//
// The package deliberately depends on no cloud SDK: ObjectClient is the
// entire bucket contract (Get/Put on opaque keys), with two local
// implementations — Mem for tests and single-process use, FS for a
// shared volume (NFS, a bind-mounted host directory, a k8s RWX claim),
// which makes the tier deployable today. An S3/GCS client is one small
// adapter away and changes nothing above this interface.
//
// # Contract
//
// Tier implements store.Backend with the repository-wide degradation
// rule: every failure is a miss, never an error. An unreachable bucket,
// a missing object, a torn or corrupted body, a checksum mismatch, a
// decode failure, or a table that answers for the wrong experiment all
// report (nil, false), and the caller falls through to the next tier or
// to local compute. Put failures degrade sharing, not the answer.
//
// With breakers attached (WithBreakers), the degradation is remembered
// per direction: a bucket that keeps failing reads opens the get
// breaker (lookups short-circuit to instant misses), one that keeps
// failing writes opens the put breaker (write-throughs fail in
// microseconds instead of holding a scheduler goroutine for the put
// timeout). A clean not-found is a healthy answer and never trips
// either breaker.
//
// # Object format
//
// One object per fingerprint, named "<fingerprint>.json", in the disk
// store's format (store.Seal): a header line carrying the SHA-256 of
// the body, then the table's wire bytes verbatim. Shared media are
// exactly where torn and damaged writes happen, so the shared tier
// keeps the local tier's damage discipline; a failed check is a miss
// and the next writer's atomic overwrite heals the object. A hit is the
// bucket read, the checksum, and result.FromWire's schema/id check —
// the verified bytes are served as they are, never decoded or
// re-encoded on the way.
package objstore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/result"
	"repro/internal/store"
)

// ErrNotFound is the client's clean "no such object" answer,
// distinguished from transport or media failures in the tier's stats
// (both are misses to callers).
var ErrNotFound = errors.New("objstore: object not found")

// DefaultPutTimeout bounds one write-through Put. store.Backend's Put
// carries no context (persistence is best-effort and off the request
// path), so the tier supplies its own bound rather than letting a hung
// bucket wedge a scheduler goroutine forever.
const DefaultPutTimeout = 10 * time.Second

// ObjectClient is the entire bucket contract: opaque bytes under opaque
// keys. Implementations must be safe for concurrent use, must return
// ErrNotFound (possibly wrapped) for absent keys, and should make Put
// atomic — readers must never observe a half-written object (the FS
// client uses temp+rename; object stores are atomic by nature).
type ObjectClient interface {
	// Name identifies the client in stats ("mem", "fs", "s3", ...).
	Name() string
	// Get returns the object's bytes, or an error wrapping ErrNotFound
	// when the key does not exist.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores data under key, overwriting atomically.
	Put(ctx context.Context, key string, data []byte) error
}

// Tier is the shared-bucket store tier. It is safe for concurrent use.
type Tier struct {
	client     ObjectClient
	putTimeout time.Duration
	// getBreaker and putBreaker guard the two directions separately: a
	// bucket that reads fine but hangs on writes (a full volume, a
	// one-way partition) must not cost readers anything, and vice
	// versa. Either may be nil (no breaking on that path).
	getBreaker, putBreaker *breaker.Breaker

	hits, notFound, errors atomic.Uint64
	puts, putErrors        atomic.Uint64
	// getShortCircuits/putShortCircuits count operations an open
	// breaker refused without touching the bucket.
	getShortCircuits, putShortCircuits atomic.Uint64
}

// Option tunes a Tier at construction.
type Option func(*Tier)

// WithPutTimeout bounds each write-through Put (default
// DefaultPutTimeout); non-positive values keep the default.
func WithPutTimeout(d time.Duration) Option {
	return func(t *Tier) {
		if d > 0 {
			t.putTimeout = d
		}
	}
}

// WithBreakers attaches circuit breakers to the read and write paths
// separately (either may be nil). Failures feed them; open breakers
// short-circuit — Gets to an instant miss, Puts to an instant error.
func WithBreakers(get, put *breaker.Breaker) Option {
	return func(t *Tier) {
		t.getBreaker, t.putBreaker = get, put
	}
}

// New returns a tier over client.
func New(client ObjectClient, opts ...Option) *Tier {
	t := &Tier{client: client, putTimeout: DefaultPutTimeout}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Name identifies the shared tier in stats and the X-Cache-Tier header.
func (t *Tier) Name() string { return "objstore" }

// objectKey is the bucket key for a fingerprint.
func objectKey(fingerprint string) string { return fingerprint + ".json" }

// Get fetches and verifies k's object. Any failure — absent key,
// transport error, damaged header, checksum mismatch, wrong schema or
// experiment id — is a miss; only the stats distinguish a clean
// not-found from a degraded bucket.
func (t *Tier) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	if t.getBreaker != nil && !t.getBreaker.Allow() {
		t.getShortCircuits.Add(1)
		return nil, false
	}
	raw, err := t.client.Get(ctx, objectKey(k.Fingerprint))
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			// The bucket answered correctly: a clean absence is health,
			// not degradation.
			t.recordGet(nil)
			t.notFound.Add(1)
		} else {
			// The caller hanging up is neutral (no record); everything
			// else — transport, media, an injected hang that outlived the
			// deadline — is the bucket failing to answer.
			if !(errors.Is(err, context.Canceled) && ctx.Err() == context.Canceled) {
				t.recordGet(fmt.Errorf("objstore: get %s: %w", k.Fingerprint, err))
			}
			t.errors.Add(1)
		}
		return nil, false
	}
	// The key names the object, the body names the experiment; a bucket
	// shared by a misconfigured writer (or a hand-copied object) must
	// not answer for the wrong table, so FromWire checks the id too.
	body, sum, err := store.Unseal(raw)
	var tab *result.Table
	if err == nil {
		tab, err = result.FromWire(k.ID, body, sum)
	}
	if err != nil {
		t.recordGet(fmt.Errorf("objstore: %s: %w", k.Fingerprint, err))
		t.errors.Add(1)
		return nil, false
	}
	t.recordGet(nil)
	t.hits.Add(1)
	return tab, true
}

// recordGet/recordPut feed the path breakers when attached. Neutral
// outcomes (caller cancellation, local encode bugs) must not be
// recorded at all: a stream of them would mask an outage as health, or
// open the breaker on a healthy bucket.
func (t *Tier) recordGet(err error) {
	if t.getBreaker != nil {
		t.getBreaker.Record(err)
	}
}

func (t *Tier) recordPut(err error) {
	if t.putBreaker != nil {
		t.putBreaker.Record(err)
	}
}

// Put write-throughs t's table into the bucket. The body is the
// table's memoized wire encoding (free for any table a tier has
// touched); the write is bounded by the tier's put timeout. Failures
// degrade sharing only — callers may ignore the error, per the Backend
// contract.
func (t *Tier) Put(k store.Key, tab *result.Table) error {
	if t.putBreaker != nil && !t.putBreaker.Allow() {
		// The write path is down and remembered as down: fail in
		// microseconds instead of wedging a scheduler goroutine for the
		// put timeout. Sharing degrades; the answer was never at stake.
		t.putShortCircuits.Add(1)
		return fmt.Errorf("objstore: put %s short-circuited: breaker open", k.Fingerprint)
	}
	obj, err := store.Seal(tab)
	if err != nil {
		// A local encode failure says nothing about the bucket's health.
		t.putErrors.Add(1)
		return fmt.Errorf("objstore: encoding %s: %w", k.ID, err)
	}
	//bcclint:allow(ctxflow) Backend.Put carries no context by contract: write-through persistence is best-effort, off the request path, and must survive the request that triggered it; the tier supplies its own bound
	ctx, cancel := context.WithTimeout(context.Background(), t.putTimeout)
	defer cancel()
	if err := t.client.Put(ctx, objectKey(k.Fingerprint), obj); err != nil {
		t.recordPut(fmt.Errorf("objstore: putting %s: %w", k.Fingerprint, err))
		t.putErrors.Add(1)
		return fmt.Errorf("objstore: putting %s: %w", k.Fingerprint, err)
	}
	t.recordPut(nil)
	t.puts.Add(1)
	return nil
}

// Stats summarizes the tier's traffic.
type Stats struct {
	// Client names the bucket implementation ("mem", "fs").
	Client string `json:"client"`
	// Hits counts verified object reads; NotFound counts clean absent
	// keys; Errors counts degraded reads (transport, damage, checksum,
	// schema, identity) — all but Hits are misses to callers.
	Hits     uint64 `json:"hits"`
	NotFound uint64 `json:"not_found"`
	Errors   uint64 `json:"errors"`
	// Puts counts successful write-throughs; PutErrors failed ones.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	// GetShortCircuits/PutShortCircuits count operations an open
	// breaker refused without touching the bucket — instant misses and
	// instant put errors instead of timeouts.
	GetShortCircuits uint64 `json:"get_short_circuits"`
	PutShortCircuits uint64 `json:"put_short_circuits"`
}

// Stats reports the tier's traffic counters.
func (t *Tier) Stats() Stats {
	return Stats{
		Client:           t.client.Name(),
		Hits:             t.hits.Load(),
		NotFound:         t.notFound.Load(),
		Errors:           t.errors.Load(),
		Puts:             t.puts.Load(),
		PutErrors:        t.putErrors.Load(),
		GetShortCircuits: t.getShortCircuits.Load(),
		PutShortCircuits: t.putShortCircuits.Load(),
	}
}
