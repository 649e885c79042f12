package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/result"
	"repro/internal/store"
)

// countingExperiment returns a synthetic registry entry whose Run
// increments calls, optionally blocking on release until the test lets
// it finish.
func countingExperiment(id string, calls *atomic.Int64, started, release chan struct{}) experiments.Experiment {
	return experiments.Experiment{
		ID:    id,
		Title: "synthetic " + id,
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			calls.Add(1)
			if started != nil {
				close(started)
			}
			if release != nil {
				<-release
			}
			t := &experiments.Table{ID: id, Title: "synthetic", Columns: []string{"seed"}}
			t.AddRow(result.Int(int(cfg.Seed)))
			return t, nil
		},
	}
}

func newStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreHitSkipsRecompute is the compute-once contract: the second
// request for a fingerprint performs zero experiment (estimator) calls,
// even on a fresh scheduler sharing the same store directory.
func TestStoreHitSkipsRecompute(t *testing.T) {
	st := newStore(t)
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	cfg := experiments.Config{Seed: 5, Quick: true}

	s1 := New(st, 2)
	tab1, out1, err := s1.Table(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out1.CacheHit || out1.Shared || calls.Load() != 1 {
		t.Fatalf("first request: outcome %+v, calls %d", out1, calls.Load())
	}

	s2 := New(st, 2)
	tab2, out2, err := s2.Table(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit {
		t.Fatalf("second request missed the store: %+v", out2)
	}
	if out2.Tier != "disk" {
		t.Fatalf("hit tier %q, want disk", out2.Tier)
	}
	if calls.Load() != 1 {
		t.Fatalf("second request recomputed: %d estimator calls", calls.Load())
	}
	if !tab1.Equal(tab2) {
		t.Fatal("cached table differs from computed table")
	}

	// A different seed is a different fingerprint: it must compute.
	if _, out3, err := s2.Table(e, experiments.Config{Seed: 6, Quick: true}); err != nil || out3.CacheHit {
		t.Fatalf("distinct seed served from cache: %+v err=%v", out3, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct seed did not compute: %d calls", calls.Load())
	}
}

// TestSingleFlightDedup races 8 identical requests: exactly one
// computation may run, everyone gets the same table, and every
// non-leader is either a shared flight or (if it arrived after
// completion) a store hit.
func TestSingleFlightDedup(t *testing.T) {
	st := newStore(t)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	e := countingExperiment("EX", &calls, started, release)
	cfg := experiments.Config{Seed: 1}
	s := New(st, 4)

	outcomes := make([]Outcome, 8)
	tables := make([]*result.Table, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tables[0], outcomes[0], _ = s.Table(e, cfg)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], outcomes[i], _ = s.Table(e, cfg)
		}(i)
	}
	// Give the followers a moment to join the flight, then let the
	// leader finish. Late arrivals are store hits, so the assertions
	// below hold for any interleaving.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("%d computations for 8 identical requests", calls.Load())
	}
	for i, out := range outcomes {
		if tables[i] == nil || !tables[0].Equal(tables[i]) {
			t.Fatalf("request %d got a different table", i)
		}
		if i > 0 && !out.Shared && !out.CacheHit {
			t.Fatalf("request %d neither shared the flight nor hit the store: %+v", i, out)
		}
	}
}

// TestFailedFlightRetries: an error must not be cached — the next
// request recomputes.
func TestFailedFlightRetries(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			if calls.Add(1) == 1 {
				return nil, boom
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	s := New(newStore(t), 1)
	cfg := experiments.Config{Seed: 3}
	if _, _, err := s.Table(e, cfg); !errors.Is(err, boom) {
		t.Fatalf("first call error = %v, want boom", err)
	}
	tab, out, err := s.Table(e, cfg)
	if err != nil || tab == nil {
		t.Fatalf("retry failed: %v", err)
	}
	if out.CacheHit || out.Shared {
		t.Fatalf("retry did not recompute: %+v", out)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// fanOut requests every id through TableCtx at once, one par.Do shard
// per request, and returns the outcomes in request order.
func fanOut(t *testing.T, s *Scheduler, ids []string, cfg experiments.Config) []Outcome {
	t.Helper()
	outcomes := make([]Outcome, len(ids))
	err := par.Do(len(ids), func(i int) error {
		e, ok := experiments.ByID(ids[i])
		if !ok {
			return fmt.Errorf("missing %s", ids[i])
		}
		_, out, err := s.TableCtx(context.Background(), e, cfg)
		outcomes[i] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

// TestSchedulerMatchesSequentialLoop renders real registry experiments
// through the scheduler at several concurrency levels and requires the
// output bytes to equal the plain sequential loop's.
func TestSchedulerMatchesSequentialLoop(t *testing.T) {
	ids := []string{"E1", "E13"}
	cfg := experiments.Config{Seed: 2019, Quick: true}

	var sequential bytes.Buffer
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tab.Render(&sequential)
	}

	for _, parallel := range []int{1, 2, 8} {
		s := New(newStore(t), parallel)
		var got bytes.Buffer
		for _, out := range fanOut(t, s, ids, cfg) {
			out.Table.Render(&got)
		}
		if !bytes.Equal(sequential.Bytes(), got.Bytes()) {
			t.Fatalf("parallel=%d output differs from sequential loop", parallel)
		}
	}
}

// TestRunDedupsRepeatedIDs: the same id requested three times at once
// computes once (flight or store dedup) and every outcome carries the
// table.
func TestRunDedupsRepeatedIDs(t *testing.T) {
	disk := newStore(t)
	s := New(disk, 4)
	cfg := experiments.Config{Seed: 7, Quick: true}
	outcomes := fanOut(t, s, []string{"E13", "E13", "E13"}, cfg)
	st, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Puts != 1 {
		t.Fatalf("repeated ids stored %d objects, want 1", st.Puts)
	}
	for i, out := range outcomes {
		if out.Table == nil || !outcomes[0].Table.Equal(out.Table) {
			t.Fatalf("outcome %d differs", i)
		}
	}
}

// TestFailedStorePutStillServesTable: losing the cache write must
// degrade persistence, never the answer.
func TestFailedStorePutStillServesTable(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Break the store so every Put fails: replace the objects directory
	// with a plain file (robust even when the test runs as root, unlike
	// permission bits).
	objects := filepath.Join(dir, "objects")
	if err := os.RemoveAll(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objects, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	s := New(st, 1)
	tab, out, err := s.Table(e, experiments.Config{Seed: 4})
	if err != nil || tab == nil {
		t.Fatalf("computed table lost to a failed cache write: %v", err)
	}
	if out.CacheHit || out.Shared {
		t.Fatalf("outcome %+v, want a fresh computation", out)
	}
	// Nothing was cached, so the next request recomputes — still
	// serving answers.
	if _, _, err := s.Table(e, experiments.Config{Seed: 4}); err != nil {
		t.Fatalf("second request failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (no cache, no error)", calls.Load())
	}
}

// TestPanickingExperimentBecomesError: since computations run on
// detached goroutines (requester timeouts must not truncate them), a
// panicking experiment surfaces as this flight's error — not a process
// crash — and must not leak the flight entry or the computation slot.
func TestPanickingExperimentBecomesError(t *testing.T) {
	var calls atomic.Int64
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			if calls.Add(1) == 1 {
				panic("experiment bug")
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	s := New(newStore(t), 1) // parallel=1: a leaked slot would deadlock below
	cfg := experiments.Config{Seed: 8}
	if _, _, err := s.Table(e, cfg); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic surfaced as %v, want a panicked error", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if tab, _, err := s.Table(e, cfg); err != nil || tab == nil {
			t.Errorf("retry after panic failed: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler wedged after a panicking experiment")
	}
}

// TestGoexitingExperimentDoesNotWedgeScheduler: runtime.Goexit inside
// an estimator (which recover cannot observe) must still release the
// slot and retire the flight — with parallel=1 a leak would wedge the
// scheduler forever.
func TestGoexitingExperimentDoesNotWedgeScheduler(t *testing.T) {
	var calls atomic.Int64
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			if calls.Add(1) == 1 {
				runtime.Goexit()
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	s := New(newStore(t), 1, WithQueue(0)) // any leak deadlocks or 429s below
	cfg := experiments.Config{Seed: 17}
	if _, _, err := s.Table(e, cfg); err == nil {
		t.Fatal("Goexit surfaced as success")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if tab, _, err := s.Table(e, cfg); err != nil || tab == nil {
			t.Errorf("retry after Goexit failed: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler wedged after a Goexiting experiment")
	}
}

// panickingPutBackend serves Gets from the embedded backend but panics
// on every Put.
type panickingPutBackend struct{ store.Backend }

func (panickingPutBackend) Put(store.Key, *result.Table) error { panic("broken Put") }

// TestPanickingPutStillServesTable: a Backend whose Put panics degrades
// persistence, never the answer — and never the process.
func TestPanickingPutStillServesTable(t *testing.T) {
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	s := New(panickingPutBackend{newStore(t)}, 1)
	tab, _, err := s.Table(e, experiments.Config{Seed: 18})
	if err != nil || tab == nil {
		t.Fatalf("computed table lost to a panicking cache write: %v", err)
	}
	// Nothing persisted, so the next request recomputes — still serving.
	if _, _, err := s.Table(e, experiments.Config{Seed: 18}); err != nil {
		t.Fatalf("second request failed: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// TestQueueFullRejectsImmediately saturates one computation slot and
// zero waiting room: the next distinct request must fail fast with
// ErrBusy while the in-flight computation completes undisturbed.
func TestQueueFullRejectsImmediately(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slow := countingExperiment("SLOW", &calls, started, release)
	fast := countingExperiment("FAST", &calls, nil, nil)
	s := New(newStore(t), 1, WithQueue(0))

	var wg sync.WaitGroup
	wg.Add(1)
	var slowTab *result.Table
	var slowErr error
	go func() {
		defer wg.Done()
		slowTab, _, slowErr = s.Table(slow, experiments.Config{Seed: 1})
	}()
	<-started

	if _, _, err := s.Table(fast, experiments.Config{Seed: 1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated scheduler returned %v, want ErrBusy", err)
	}
	if m := s.Metrics(); m.Rejected != 1 || m.Computing != 1 || m.Capacity != 1 {
		t.Fatalf("metrics %+v, want 1 rejection / 1 computing / capacity 1", m)
	}

	// The in-flight request is unaffected by the rejection.
	close(release)
	wg.Wait()
	if slowErr != nil || slowTab == nil {
		t.Fatalf("in-flight request failed under saturation: %v", slowErr)
	}
	// With the slot free again the previously rejected work computes.
	if _, _, err := s.Table(fast, experiments.Config{Seed: 1}); err != nil {
		t.Fatalf("post-saturation request failed: %v", err)
	}
}

// TestQueueFullStillServesCacheAndFlights: rejection applies only to
// fresh computations — store hits and flight joins pass a full queue.
func TestQueueFullStillServesCacheAndFlights(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slow := countingExperiment("SLOW", &calls, started, release)
	cached := countingExperiment("CACHED", &calls, nil, nil)
	s := New(newStore(t), 1, WithQueue(0))

	// Warm the cache before saturating.
	if _, _, err := s.Table(cached, experiments.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Table(slow, experiments.Config{Seed: 2})
	}()
	<-started

	// Store hit under saturation.
	if _, out, err := s.Table(cached, experiments.Config{Seed: 2}); err != nil || !out.CacheHit {
		t.Fatalf("cache hit rejected under saturation: %+v err=%v", out, err)
	}
	// Flight join under saturation.
	joined := make(chan error, 1)
	go func() {
		_, _, err := s.Table(slow, experiments.Config{Seed: 2})
		joined <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if err := <-joined; err != nil {
		t.Fatalf("flight join rejected under saturation: %v", err)
	}
}

// TestCanceledQueuedRequestReleasesAdmission: a request canceled while
// its computation waits for a slot must release its queue admission —
// the estimator never runs — and later requests must find room again.
func TestCanceledQueuedRequestReleasesAdmission(t *testing.T) {
	var slowCalls, neverCalls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slow := countingExperiment("SLOW", &slowCalls, started, release)
	never := countingExperiment("NEVER", &neverCalls, nil, nil)
	s := New(newStore(t), 1, WithQueue(1))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Table(slow, experiments.Config{Seed: 3})
	}()
	<-started

	// This request is admitted to the queue (depth 1), then canceled.
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, _, err := s.TableCtx(ctx, never, experiments.Config{Seed: 3})
		queuedErr <- err
	}()
	for s.Metrics().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queuedErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued request returned %v", err)
	}
	// The abandoned computation must drain without running.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Abandoned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned queued computation never released its admission")
		}
		time.Sleep(time.Millisecond)
	}
	if neverCalls.Load() != 0 {
		t.Fatal("abandoned computation ran its estimator")
	}

	// The released admission has room for new work while SLOW still
	// computes (capacity 2 = 1 slot + 1 queue; only SLOW holds one).
	var other atomic.Int64
	otherStarted := make(chan struct{})
	otherRelease := make(chan struct{})
	queued := countingExperiment("QUEUED", &other, otherStarted, otherRelease)
	admitted := make(chan error, 1)
	go func() {
		_, _, err := s.Table(queued, experiments.Config{Seed: 3})
		admitted <- err
	}()
	// It must be admitted (queued), not rejected.
	for s.Metrics().Queued == 0 {
		select {
		case err := <-admitted:
			t.Fatalf("replacement request finished early: %v", err)
		default:
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-otherStarted
	close(otherRelease)
	wg.Wait()
	if err := <-admitted; err != nil {
		t.Fatalf("replacement request failed: %v", err)
	}
}

// TestCancellationReachesEstimator: once every requester abandons a
// flight, the computation's context — carried into the estimator as
// Config.Ctx — must report cancellation, and a cooperative estimator's
// early return must not be cached.
func TestCancellationReachesEstimator(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	canceled := make(chan struct{})
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			if calls.Add(1) == 1 {
				close(started)
				// Poll Config.Err the way long experiment loops do.
				deadline := time.Now().Add(5 * time.Second)
				for cfg.Err() == nil {
					if time.Now().After(deadline) {
						return nil, errors.New("cancellation never reached the estimator")
					}
					time.Sleep(time.Millisecond)
				}
				close(canceled)
				return nil, cfg.Err()
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	disk := newStore(t)
	s := New(disk, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.TableCtx(ctx, e, experiments.Config{Seed: 9})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned requester returned %v", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("estimator never observed Config.Ctx cancellation")
	}
	// The canceled partial run must not have been cached; the retry
	// computes fresh and succeeds.
	if tab, out, err := s.Table(e, experiments.Config{Seed: 9}); err != nil || tab == nil || out.CacheHit {
		t.Fatalf("retry after cancellation: %+v err=%v", out, err)
	}
}

// TestTimedOutRequesterDoesNotTruncateSharedFlight: when one of two
// requesters times out, the flight keeps its remaining waiter, runs to
// completion, and persists.
func TestTimedOutRequesterDoesNotTruncateSharedFlight(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	e := countingExperiment("EX", &calls, started, release)
	disk := newStore(t)
	s := New(disk, 1)
	cfg := experiments.Config{Seed: 10}

	patientErr := make(chan error, 1)
	go func() {
		_, _, err := s.Table(e, cfg)
		patientErr <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := s.TableCtx(ctx, e, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out joiner returned %v", err)
	}
	close(release)
	if err := <-patientErr; err != nil {
		t.Fatalf("patient requester failed after a peer timed out: %v", err)
	}
	if _, ok := disk.Get(context.Background(), store.KeyFor("EX", result.Params{Seed: 10})); !ok {
		t.Fatal("completed flight was not persisted after a peer timed out")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestJoinerSurvivesAbandonedFlight: a request that joins a flight in
// the window after its other requesters all disconnected (the flight's
// context is canceled but the flight is not yet retired) must not
// inherit context.Canceled — it retries and gets a real table.
func TestJoinerSurvivesAbandonedFlight(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	canceledSeen := make(chan struct{})
	holdFinish := make(chan struct{})
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			if calls.Add(1) == 1 {
				close(started)
				deadline := time.Now().Add(5 * time.Second)
				for cfg.Err() == nil {
					if time.Now().After(deadline) {
						return nil, errors.New("owner cancellation never arrived")
					}
					time.Sleep(time.Millisecond)
				}
				// Hold the flight in its canceled-but-unretired window so
				// the joiner can attach deterministically.
				close(canceledSeen)
				<-holdFinish
				return nil, cfg.Err()
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	s := New(newStore(t), 2)
	cfg := experiments.Config{Seed: 14}

	ctx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := s.TableCtx(ctx, e, cfg)
		ownerErr <- err
	}()
	<-started
	cancel()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner returned %v", err)
	}
	<-canceledSeen

	// The flight is canceled but still registered; join it now.
	joinerDone := make(chan struct{})
	var joinerTab *result.Table
	var joinerErr error
	go func() {
		defer close(joinerDone)
		joinerTab, _, joinerErr = s.Table(e, cfg)
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner attach
	close(holdFinish)
	select {
	case <-joinerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never returned")
	}
	if joinerErr != nil || joinerTab == nil {
		t.Fatalf("live joiner inherited the abandoned flight's fate: %v", joinerErr)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (canceled run + joiner's retry)", calls.Load())
	}
}

// TestSoleDeadlineLeaverDetaches: the last requester leaving on a
// deadline must NOT cancel the flight — the computation completes and
// persists, so the 504 client's retry is a cache hit instead of a
// livelock (cooperative estimators would otherwise never finish under
// a server timeout shorter than their runtime).
func TestSoleDeadlineLeaverDetaches(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool
	e := experiments.Experiment{
		ID: "EX",
		Run: func(cfg experiments.Config) (*experiments.Table, error) {
			calls.Add(1)
			close(started)
			<-release
			// A cooperative estimator would abort here if the deadline
			// leaver had canceled the flight.
			if cfg.Err() != nil {
				sawCancel.Store(true)
				return nil, cfg.Err()
			}
			tab := &experiments.Table{ID: "EX", Columns: []string{"x"}}
			tab.AddRow(result.Int(1))
			return tab, nil
		},
	}
	disk := newStore(t)
	s := New(disk, 1)
	cfg := experiments.Config{Seed: 15}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := s.TableCtx(ctx, e, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out requester returned %v", err)
	}
	<-started
	close(release)

	// The detached computation must complete and persist.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := disk.Get(context.Background(), store.KeyFor("EX", result.Params{Seed: 15})); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline-abandoned computation never persisted")
		}
		time.Sleep(time.Millisecond)
	}
	if sawCancel.Load() {
		t.Fatal("deadline leaver canceled the flight's context")
	}
	// The retry is a cache hit: zero further estimator calls.
	if _, out, err := s.Table(e, cfg); err != nil || !out.CacheHit {
		t.Fatalf("retry after 504: %+v err=%v", out, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestTieredBackendReportsTier: a scheduler over a tier stack surfaces
// which tier answered (the serving layer's X-Cache-Tier header).
func TestTieredBackendReportsTier(t *testing.T) {
	// A minimal tierGetter double keeps this test independent of the
	// tier package's import graph.
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	cfg := experiments.Config{Seed: 11}
	s := New(namedBackend{Backend: newStore(t), tier: "memory"}, 1)
	if _, _, err := s.Table(e, cfg); err != nil {
		t.Fatal(err)
	}
	_, out, err := s.Table(e, cfg)
	if err != nil || !out.CacheHit || out.Tier != "memory" {
		t.Fatalf("outcome %+v err=%v, want a memory-tier hit", out, err)
	}
}

// namedBackend wraps a backend and reports hits under a fixed tier name
// via the optional GetTier refinement.
type namedBackend struct {
	store.Backend
	tier string
}

func (n namedBackend) GetTier(ctx context.Context, k store.Key) (*result.Table, string, bool) {
	t, ok := n.Backend.Get(ctx, k)
	return t, n.tier, ok
}

// countingBackend counts Get calls on top of a real backend.
type countingBackend struct {
	store.Backend
	gets atomic.Int64
}

func (c *countingBackend) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	c.gets.Add(1)
	return c.Backend.Get(ctx, k)
}

// TestFlightJoinSkipsBackendLookup: a request for a fingerprint whose
// flight is already running joins it without touching the backend — a
// lookup can cost a remote-tier round trip (seconds against a dead
// peer), which identical concurrent requests must not each pay.
func TestFlightJoinSkipsBackendLookup(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	e := countingExperiment("EX", &calls, started, release)
	backend := &countingBackend{Backend: newStore(t)}
	s := New(backend, 2)
	cfg := experiments.Config{Seed: 16}

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.Table(e, cfg)
	}()
	<-started
	lookupsBefore := backend.gets.Load()

	joinerDone := make(chan error, 1)
	go func() {
		_, out, err := s.Table(e, cfg)
		if err == nil && !out.Shared {
			err = errors.New("joiner did not share the flight")
		}
		joinerDone <- err
	}()
	// Give the joiner time to attach; it must not have hit the backend.
	time.Sleep(30 * time.Millisecond)
	if got := backend.gets.Load(); got != lookupsBefore {
		t.Fatalf("flight join performed %d extra backend lookups", got-lookupsBefore)
	}
	close(release)
	<-leaderDone
	if err := <-joinerDone; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsLatency(t *testing.T) {
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	s := New(nil, 1)
	if _, _, err := s.Table(e, experiments.Config{Seed: 12}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Computed != 1 || m.MeanComputeMS < 0 || m.MaxComputeMS < m.MeanComputeMS {
		t.Fatalf("latency metrics inconsistent: %+v", m)
	}
	if m.Queued != 0 || m.Computing != 0 {
		t.Fatalf("idle scheduler reports standing work: %+v", m)
	}
	if m.Capacity != 0 {
		t.Fatalf("unbounded scheduler reports capacity %d", m.Capacity)
	}
}

// TestAlreadyCanceledContext fails fast without touching the queue.
func TestAlreadyCanceledContext(t *testing.T) {
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	s := New(nil, 1, WithQueue(0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.TableCtx(ctx, e, experiments.Config{Seed: 13}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context returned %v", err)
	}
	if calls.Load() != 0 {
		t.Fatal("canceled request ran the estimator")
	}
	if m := s.Metrics(); m.Rejected != 0 {
		t.Fatalf("canceled request counted as a queue rejection: %+v", m)
	}
}

// TestOutcomeCarriesEncodedBytes: every successful outcome — computed,
// store hit, and flight share alike — carries the table's memoized wire
// encoding, byte-identical to CanonicalJSON + '\n', so serving layers
// write cached bytes instead of re-encoding per request.
func TestOutcomeCarriesEncodedBytes(t *testing.T) {
	st := newStore(t)
	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	cfg := experiments.Config{Seed: 5, Quick: true}

	s := New(st, 2)
	tab, out, err := s.Table(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := tab.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := append(canonical, '\n')
	if !bytes.Equal(out.Encoded, want) {
		t.Fatalf("computed outcome Encoded = %q, want %q", out.Encoded, want)
	}

	// The hit path returns the same memoized bytes with zero raw
	// encodes (the memory-free scheduler here reads the disk tier: the
	// decode allocates a fresh table, whose encode is paid once and
	// memoized on that pointer).
	tab2, out2, err := s.Table(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.CacheHit || !bytes.Equal(out2.Encoded, want) {
		t.Fatalf("hit outcome: hit=%v Encoded=%q", out2.CacheHit, out2.Encoded)
	}
	before := result.Encodes()
	if _, err := tab2.EncodedJSON(); err != nil {
		t.Fatal(err)
	}
	if raw := result.Encodes() - before; raw != 0 {
		t.Fatalf("re-reading a delivered table's encoding cost %d raw encodes, want 0", raw)
	}

	// A shared flight delivers the bytes to the joiner too.
	started, release := make(chan struct{}), make(chan struct{})
	eb := countingExperiment("EB", &calls, started, release)
	join := make(chan Outcome, 1)
	go func() {
		_, o, _ := s.Table(eb, cfg)
		join <- o
	}()
	<-started
	done := make(chan Outcome, 1)
	go func() {
		_, o, _ := s.Table(eb, cfg)
		done <- o
	}()
	// Both requests are on the flight; release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	oA, oB := <-join, <-done
	if len(oA.Encoded) == 0 || !bytes.Equal(oA.Encoded, oB.Encoded) {
		t.Fatalf("flight outcomes carry different encodings: %q vs %q", oA.Encoded, oB.Encoded)
	}
}

// TestInFlightIntrospection: Flying/InFlight expose exactly the live
// flights — the fleet probe's data source — and empty out once the
// flight retires.
func TestInFlightIntrospection(t *testing.T) {
	s := New(nil, 2)
	var calls atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	e := countingExperiment("EX", &calls, started, release)
	cfg := experiments.Config{Seed: 5, Quick: true}
	fp := store.KeyFor("EX", cfg.Params()).Fingerprint

	if s.Flying(fp) || len(s.InFlight()) != 0 {
		t.Fatal("idle scheduler reports flights")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := s.Table(e, cfg); err != nil {
			t.Error(err)
		}
	}()
	<-started
	if !s.Flying(fp) {
		t.Fatal("running flight not reported by Flying")
	}
	if got := s.InFlight(); len(got) != 1 || got[0] != fp {
		t.Fatalf("InFlight = %v, want [%s]", got, fp)
	}
	close(release)
	<-done
	if s.Flying(fp) || len(s.InFlight()) != 0 {
		t.Fatal("retired flight still reported")
	}
}

// TestOwnerAwareMetrics: WithOwner counts non-owned computations
// (dead-owner fallbacks) without refusing them.
func TestOwnerAwareMetrics(t *testing.T) {
	cfgA := experiments.Config{Seed: 1, Quick: true}
	cfgB := experiments.Config{Seed: 2, Quick: true}
	owned := store.KeyFor("EX", cfgA.Params()).Fingerprint
	s := New(nil, 2, WithOwner(func(fp string) bool { return fp == owned }))

	var calls atomic.Int64
	e := countingExperiment("EX", &calls, nil, nil)
	if _, _, err := s.Table(e, cfgA); err != nil { // owned
		t.Fatal(err)
	}
	if _, _, err := s.Table(e, cfgB); err != nil { // foreign — must still run
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("foreign computation was refused: %d calls", calls.Load())
	}
	m := s.Metrics()
	if m.Computed != 2 || m.ComputedForeign != 1 {
		t.Fatalf("metrics %+v, want computed=2 foreign=1", m)
	}
}
