// Package sched runs registry experiments concurrently on top of the
// result store: a request names an experiment and a configuration, and
// the scheduler answers with the table — from the store backend when
// the fingerprint is cached (any store.Backend: the disk store, or a
// memory → disk → bucket stack from store/tier), from a single shared
// computation when several requests race on one fingerprint
// (single-flight dedup), and from a fresh run otherwise.
//
// # Determinism
//
// Every experiment is a pure function of (Seed, Quick) — the measurement
// engines underneath are bit-identical for every worker count — so
// scheduling order, concurrency level, and cache state cannot change a
// table's content. Requests fanned out at once and rendered in request
// order are byte-identical to the sequential loop-and-render of
// cmd/experiments for any Parallel value; tests assert exactly that.
//
// # Worker budget
//
// A request's Config.Workers is that one computation's goroutine
// budget. A caller running Parallel experiments at once gives each
// Workers/Parallel (at least 1), as cmd/bccserve does, so E concurrent
// experiments do not oversubscribe the host by a factor of E.
//
// # Backpressure and cancellation
//
// Computation admission is two-staged. The semaphore bounds how many
// experiments compute at once (parallel slots); the optional queue
// bound (WithQueue) caps how many more may wait for a slot. A request
// that would exceed both is rejected immediately with ErrBusy — the
// serving layer turns that into 429 + Retry-After — while store hits
// and flight joins always pass, so a saturated scheduler keeps serving
// its cache and in-flight computations complete undisturbed.
//
// TableCtx threads a per-request context through the whole path. The
// computation's own context rides into the estimator call path as
// Config.Ctx and is canceled once every requester has *disconnected*
// (context.Canceled — nobody is coming back): a still-queued
// computation then releases its admission without starting, and a
// cooperative estimator stops burning CPU. A requester leaving on a
// *deadline* (context.DeadlineExceeded — the serving layer answers 504
// and tells the client to retry) never cancels the flight: the
// computation detaches, runs to completion, and persists, so the retry
// is a cache hit instead of a livelock of re-timed-out recomputations.
// Compute-once economics beat a wasted partial run.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/result"
	"repro/internal/store"
)

// ErrBusy reports that the scheduler's computation queue is full: the
// request was rejected before any work started, and the caller should
// retry later (HTTP layers answer 429 + Retry-After).
var ErrBusy = errors.New("sched: compute queue full")

// errAbandoned is the cancellation cause set when a flight's last
// requester disconnects. It tags the flight's context (and therefore
// the error a cooperative estimator returns from Config.Err) so
// TableCtx can retry exactly the abandoned-flight case — an estimator
// failing with its own context-flavored error (an internal network
// timeout, say) must surface to the caller, not loop forever.
var errAbandoned = errors.New("sched: flight abandoned by every requester")

// Scheduler coordinates experiment execution over an optional store
// backend. The zero value is not usable; construct with New.
type Scheduler struct {
	// backend caches completed tables; nil disables persistence (dedup
	// still works).
	backend store.Backend
	// parallel is the number of experiments run concurrently.
	parallel int
	// sem bounds in-flight computations to parallel slots; every
	// compute path (Run batches and direct Table calls alike) acquires
	// a slot, so a server fanning requests straight into Table cannot
	// oversubscribe the host.
	sem chan struct{}
	// tokens is the admission queue: a computation holds a token from
	// admission to retirement, so cap(tokens) = parallel + queue bound
	// caps standing work. nil means unbounded (no WithQueue option).
	tokens chan struct{}

	// owns reports whether this replica owns a fingerprint under the
	// fleet's rendezvous assignment (WithOwner). nil means no fleet:
	// everything counts as owned. It is introspection, not admission
	// policy — a non-owned computation is the fleet degradation path
	// (dead owner ⇒ local compute) and must never be refused, only
	// counted so /stats can show how much duplicate CPU the fleet layer
	// is absorbing.
	owns func(fingerprint string) bool

	mu      sync.Mutex
	flights map[string]*flight

	queued    atomic.Int64  // admitted computations waiting for a slot
	computing atomic.Int64  // computations running now
	admitted  atomic.Uint64 // granted admission decisions (fresh flights + Admit batches)
	rejected  atomic.Uint64
	abandoned atomic.Uint64 // queued computations whose requesters all left
	computed  atomic.Uint64
	foreign   atomic.Uint64 // computed runs of fingerprints this replica does not own
	busyNanos atomic.Int64
	maxNanos  atomic.Int64
}

// flight is one in-progress computation, shared by every request that
// arrives for its fingerprint while it runs.
type flight struct {
	done  chan struct{}
	table *result.Table
	err   error

	// ctx is the computation's own context: canceled with the
	// errAbandoned cause (by the last disconnecting waiter) once no
	// request wants the result anymore. It is what Config.Ctx carries
	// into the estimators.
	ctx    context.Context
	cancel context.CancelCauseFunc
	// waiters counts requests attached to the flight; guarded by the
	// scheduler's mu.
	waiters int
	// holdsToken records that this flight took its own queue admission
	// (the normal single-request path). A flight started under a batch
	// Admission rides the batch's token instead and must not release
	// one at retirement.
	holdsToken bool
}

// Option configures a Scheduler at construction.
type Option func(*Scheduler)

// WithQueue bounds how many computations may wait for a slot beyond the
// parallel ones already running: at most parallel+depth computations
// are admitted at once, and further misses fail fast with ErrBusy.
// depth < 0 is treated as 0 (no waiting room: reject whenever all slots
// are busy). Without this option the queue is unbounded.
func WithQueue(depth int) Option {
	return func(s *Scheduler) {
		if depth < 0 {
			depth = 0
		}
		s.tokens = make(chan struct{}, s.parallel+depth)
	}
}

// WithOwner tags computations with fleet ownership: owns(fingerprint)
// reports whether this replica is the rendezvous owner. Non-owned
// computations still run (they are the dead-owner degradation path) but
// are counted separately in Metrics.ComputedForeign — on a healthy
// fleet that counter stays near zero, and growth means non-owners are
// falling back to local compute (owner unreachable, or a fleet
// misconfiguration where replicas disagree on membership).
func WithOwner(owns func(fingerprint string) bool) Option {
	return func(s *Scheduler) { s.owns = owns }
}

// New returns a scheduler over backend (which may be nil for a
// memory-dedup-only scheduler) running up to parallel experiments at
// once; parallel < 1 means 1.
func New(backend store.Backend, parallel int, opts ...Option) *Scheduler {
	if parallel < 1 {
		parallel = 1
	}
	s := &Scheduler{
		backend:  backend,
		parallel: parallel,
		sem:      make(chan struct{}, parallel),
		flights:  make(map[string]*flight),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Backend returns the scheduler's store backend (nil when persistence
// is off).
func (s *Scheduler) Backend() store.Backend { return s.backend }

// Outcome is one scheduled experiment's result.
type Outcome struct {
	// ID is the experiment id.
	ID string
	// Table is the computed or cached table (nil on error).
	Table *result.Table
	// Encoded is the table's wire encoding — the memoized canonical
	// JSON plus a trailing newline, shared with every tier and response
	// holding the table (result.Table.EncodedJSON). Serving layers
	// write it directly: a cache hit costs zero re-encodes. It is nil
	// on error, and nil when the table itself cannot encode (the
	// serving layer re-derives the error from EncodedJSON then).
	// Callers must not modify it.
	Encoded []byte
	// CacheHit reports that the table came straight from the store.
	CacheHit bool
	// Tier names the store tier that answered a CacheHit ("memory",
	// "disk", "objstore"; the backend's Name for single-tier stores).
	Tier string
	// Shared reports that this request piggybacked on another request's
	// in-flight computation (single-flight dedup).
	Shared bool
}

// deliver fills the outcome's table and encoded wire bytes. The encode
// is memoized on the table, so this is free for every table that any
// tier, Put, or earlier response has touched; an unencodable table
// leaves Encoded nil for the serving layer to diagnose.
func (out *Outcome) deliver(t *result.Table) {
	out.Table = t
	if b, err := t.EncodedJSON(); err == nil {
		out.Encoded = b
	}
}

// tierGetter is the optional backend refinement (implemented by
// store/tier.Tiered) that reports which tier answered a hit.
type tierGetter interface {
	GetTier(ctx context.Context, k store.Key) (*result.Table, string, bool)
}

// lookup reads the backend, resolving the answering tier's name when
// the backend can report it. The context bounds the bucket tier's
// round trips.
func (s *Scheduler) lookup(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	if tg, ok := s.backend.(tierGetter); ok {
		return tg.GetTier(ctx, k)
	}
	t, ok := s.backend.Get(ctx, k)
	return t, s.backend.Name(), ok
}

// Table returns experiment e's table under cfg with no cancellation or
// queue deadline: store hit, shared flight, or fresh computation, in
// that order of preference.
func (s *Scheduler) Table(e experiments.Experiment, cfg experiments.Config) (*result.Table, Outcome, error) {
	//bcclint:allow(ctxflow) Table is the documented context-free entry for batch callers (cmd/experiments) that have no request to thread
	return s.TableCtx(context.Background(), e, cfg)
}

// TableCtx is Table under a request context. A context canceled while
// the request waits — on the queue or on another request's flight —
// abandons the request immediately. The flight itself is aborted (its
// queue admission released, its Config.Ctx canceled into the estimator)
// only when its last requester *disconnects* (context.Canceled: the
// client is gone and no retry is coming). A last requester leaving on a
// *deadline* (context.DeadlineExceeded: the serving layer answers 504
// and the client is told to retry) detaches the computation instead —
// it runs to completion and persists, so the retry is a cache hit
// rather than a livelock of re-timed-out recomputations. ErrBusy
// reports queue-full rejection; the caller's own context errors pass
// through unwrapped.
func (s *Scheduler) TableCtx(ctx context.Context, e experiments.Experiment, cfg experiments.Config) (*result.Table, Outcome, error) {
	return s.tableCtx(ctx, e, cfg, false)
}

// Admission is one granted admission decision, held by a batch (a
// sweep) on behalf of every cell it schedules: the batch pays the
// queue token once, and flights started through Admission.TableCtx
// ride it instead of taking their own. Release returns the token;
// it is idempotent and must be called exactly when the batch is done
// scheduling (flights already started keep running — the token only
// gates NEW admissions).
type Admission struct {
	s    *Scheduler
	once sync.Once
}

// Release returns the batch's queue token. Safe to call more than
// once; only the first call releases.
func (a *Admission) Release() {
	a.once.Do(func() {
		if a.s.tokens != nil {
			<-a.s.tokens
		}
	})
}

// TableCtx is Scheduler.TableCtx under the batch's admission: a fresh
// computation started here does not take its own queue token (the
// batch already holds one), so a whole grid schedules under exactly
// one admission decision. Store hits and flight joins behave
// identically to the plain path.
func (a *Admission) TableCtx(ctx context.Context, e experiments.Experiment, cfg experiments.Config) (*result.Table, Outcome, error) {
	return a.s.tableCtx(ctx, e, cfg, true)
}

// Admit reserves one admission decision for a batch without starting
// any computation: the sweep-sized analogue of the per-request queue
// token. It never blocks — a full queue is ErrBusy immediately, the
// same fast-fail contract the per-request path has — and a granted
// admission counts once in Metrics.Admitted no matter how many cells
// later ride it.
func (s *Scheduler) Admit() (*Admission, error) {
	if s.tokens != nil {
		select {
		case s.tokens <- struct{}{}:
		default:
			s.rejected.Add(1)
			return nil, ErrBusy
		}
	}
	s.admitted.Add(1)
	return &Admission{s: s}, nil
}

// tableCtx is the shared request path; preAdmitted marks requests
// riding a batch Admission, whose fresh flights skip the queue token.
func (s *Scheduler) tableCtx(ctx context.Context, e experiments.Experiment, cfg experiments.Config, preAdmitted bool) (*result.Table, Outcome, error) {
	out := Outcome{ID: e.ID}
	k := store.KeyFor(e.ID, cfg.Params())
	for {
		if err := ctx.Err(); err != nil {
			return nil, out, err
		}
		// Join an in-progress flight before paying the backend lookup:
		// a lookup can cost a bucket round trip (seconds against a hung
		// bucket), and an existing flight means the table is about to
		// exist anyway — identical concurrent misses must collapse onto
		// one computation without each stalling on the bucket first.
		s.mu.Lock()
		fl, joined := s.flights[k.Fingerprint]
		if joined {
			fl.waiters++
			s.mu.Unlock()
		} else {
			s.mu.Unlock()
			if s.backend != nil {
				if t, tierName, ok := s.lookup(ctx, k); ok {
					out.deliver(t)
					out.CacheHit, out.Tier = true, tierName
					return t, out, nil
				}
			}
			s.mu.Lock()
			// The lookup ran unlocked; another request may have
			// registered the flight meanwhile.
			fl, joined = s.flights[k.Fingerprint]
			if joined {
				fl.waiters++
			} else {
				// A fresh computation needs a queue admission — unless the
				// request rides a batch Admission that already paid it.
				// Rejection happens before the flight is registered, so an
				// ErrBusy never wedges later requests for the fingerprint.
				holdsToken := false
				if !preAdmitted {
					if s.tokens != nil {
						select {
						case s.tokens <- struct{}{}:
							holdsToken = true
						default:
							s.mu.Unlock()
							s.rejected.Add(1)
							return nil, out, ErrBusy
						}
					}
					s.admitted.Add(1)
				}
				//bcclint:allow(ctxflow) a flight outlives any one caller by design: joiners come and go, and a deadline leaver must not cancel the shared computation (see TableCtx)
				flCtx, cancel := context.WithCancelCause(context.Background())
				fl = &flight{done: make(chan struct{}), ctx: flCtx, cancel: cancel, waiters: 1, holdsToken: holdsToken}
				s.flights[k.Fingerprint] = fl
				go s.compute(k, fl, e, cfg)
			}
			s.mu.Unlock()
		}

		select {
		case <-fl.done:
			if fl.err != nil {
				if errors.Is(fl.err, errAbandoned) {
					// Inherited: this flight was abandoned by *other*
					// requesters. If our own context is also done (both
					// select channels ready — Go picks either), report
					// our error, never the internal sentinel; otherwise
					// retry — the flight is already retired, so the
					// next round is a store hit or a fresh computation.
					if err := ctx.Err(); err != nil {
						return nil, out, err
					}
					continue
				}
				// Any other error, context-flavored or not, is the
				// experiment's own and surfaces.
				return nil, out, fl.err
			}
			out.deliver(fl.table)
			out.Shared = joined
			return fl.table, out, nil
		case <-ctx.Done():
			// This request gives up; the flight lives on for its
			// remaining waiters. The last *disconnecting* leaver cancels
			// the flight's own context (abort a queued computation and
			// release its admission; tell a cooperative estimator to
			// stop); a deadline leaver detaches instead — see above.
			s.mu.Lock()
			fl.waiters--
			if fl.waiters <= 0 && errors.Is(ctx.Err(), context.Canceled) {
				fl.cancel(errAbandoned)
			}
			s.mu.Unlock()
			return nil, out, ctx.Err()
		}
	}
}

// compute owns one flight: queue for a slot, run the experiment,
// persist, retire. It runs on its own goroutine so requester timeouts
// never truncate a computation that someone else still wants.
func (s *Scheduler) compute(k store.Key, fl *flight, e experiments.Experiment, cfg experiments.Config) {
	// finish publishes the result and retires the flight. Retirement
	// and the admission release both happen before done is signalled:
	// a request arriving after the store write hits the store, one
	// arriving after an error recomputes rather than inheriting it
	// forever, and a waiter waking to retry an abandoned flight finds
	// the queue capacity this computation held already free (no
	// spurious ErrBusy).
	finish := func(table *result.Table, err error) {
		fl.table, fl.err = table, err
		s.mu.Lock()
		delete(s.flights, k.Fingerprint)
		s.mu.Unlock()
		if fl.holdsToken {
			<-s.tokens
		}
		close(fl.done)
		fl.cancel(nil)
	}

	s.queued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-fl.ctx.Done():
		// Every requester left while we waited for a slot: release the
		// admission without ever starting the estimator.
		s.queued.Add(-1)
		s.abandoned.Add(1)
		finish(nil, context.Cause(fl.ctx))
		return
	}

	s.computing.Add(1)
	start := time.Now()
	var table *result.Table
	var err error
	// The slot release, metrics, store write, and flight retirement all
	// live in a defer so they run on every way out of this goroutine —
	// normal return, a panic converted below, and runtime.Goexit from
	// inside an estimator (which recover cannot observe). Nothing here
	// may leak the slot, the admission token, or the flight: with
	// parallel=1 any leak wedges the scheduler permanently.
	defer func() {
		elapsed := time.Since(start)
		<-s.sem
		s.computing.Add(-1)
		s.computed.Add(1)
		if s.owns != nil && !s.owns(k.Fingerprint) {
			s.foreign.Add(1)
		}
		s.busyNanos.Add(elapsed.Nanoseconds())
		for {
			max := s.maxNanos.Load()
			if elapsed.Nanoseconds() <= max || s.maxNanos.CompareAndSwap(max, elapsed.Nanoseconds()) {
				break
			}
		}
		if err == nil && table == nil {
			// The estimator unwound without producing anything —
			// runtime.Goexit, or a (nil, nil) return. Surface it as this
			// flight's error so waiters unblock and retries recompute.
			err = fmt.Errorf("sched: experiment %s terminated without a result", e.ID)
		}
		if err == nil && s.backend != nil {
			// A failed (or panicking) Put degrades the cache, not the
			// answer: the computed table is still served, only
			// persistence is lost.
			func() {
				defer func() { _ = recover() }()
				_ = s.backend.Put(k, table)
			}()
		}
		finish(table, err)
	}()
	func() {
		// A panicking experiment becomes an error on this flight, not a
		// process crash: the computation goroutine has no upstream
		// recover (net/http's only covers the request goroutine).
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sched: experiment %s panicked: %v", e.ID, r)
			}
		}()
		runCfg := cfg
		runCfg.Ctx = fl.ctx
		table, err = e.Run(runCfg)
	}()
}

// Flying reports whether a computation for fingerprint is in flight
// right now — registered and not yet retired. It is the probe
// endpoint's cheap answer to "should a non-owner wait instead of
// recomputing": a map lookup, no store traffic, no admission.
func (s *Scheduler) Flying(fingerprint string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.flights[fingerprint]
	return ok
}

// InFlight returns the fingerprints currently being computed or queued,
// sorted — the introspection /stats publishes so fleet peers (and
// operators) can see what this replica is already working on.
func (s *Scheduler) InFlight() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.flights))
	for fp := range s.flights {
		out = append(out, fp)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Metrics is a snapshot of the scheduler's computation traffic.
type Metrics struct {
	// Queued and Computing describe standing work: admitted computations
	// waiting for a slot, and computations running now.
	Queued    int `json:"queued"`
	Computing int `json:"computing"`
	// Parallel is the computation slot count; Capacity is the admission
	// bound (slots + queue depth, 0 when unbounded).
	Parallel int `json:"parallel"`
	Capacity int `json:"capacity"`
	// Admitted counts granted admission decisions: one per fresh
	// single-request flight plus one per Admit batch, however many
	// cells the batch later schedules — the counter the one-admission-
	// per-sweep tests pin. Rejected counts ErrBusy fast-failures;
	// Abandoned counts queued computations whose requesters all left
	// before a slot freed.
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Abandoned uint64 `json:"abandoned"`
	// Computed counts finished estimator runs (successes, failures, and
	// cooperative cancellations alike). The latency fields cover exactly
	// those runs. ComputedForeign is the subset for fingerprints this
	// replica does not own under the fleet assignment (0 without a
	// fleet): the duplicate-CPU cost of dead-owner fallbacks.
	Computed        uint64  `json:"computed"`
	ComputedForeign uint64  `json:"computed_foreign"`
	TotalBusyMS     float64 `json:"total_busy_ms"`
	MeanComputeMS   float64 `json:"mean_compute_ms"`
	MaxComputeMS    float64 `json:"max_compute_ms"`
}

// Metrics reports the scheduler's queue state and compute-latency
// counters.
func (s *Scheduler) Metrics() Metrics {
	m := Metrics{
		Queued:          int(s.queued.Load()),
		Computing:       int(s.computing.Load()),
		Parallel:        s.parallel,
		Admitted:        s.admitted.Load(),
		Rejected:        s.rejected.Load(),
		Abandoned:       s.abandoned.Load(),
		Computed:        s.computed.Load(),
		ComputedForeign: s.foreign.Load(),
	}
	if s.tokens != nil {
		m.Capacity = cap(s.tokens)
	}
	m.TotalBusyMS = float64(s.busyNanos.Load()) / 1e6
	m.MaxComputeMS = float64(s.maxNanos.Load()) / 1e6
	if m.Computed > 0 {
		m.MeanComputeMS = m.TotalBusyMS / float64(m.Computed)
	}
	return m
}
