// Package breaker implements per-dependency circuit breakers for the
// serving stack's remote dependencies (shared object bucket, fleet
// owners).
//
// Every remote dependency already degrades on failure — a dead owner
// is a local compute, a hung bucket is a miss — but without memory:
// each request re-discovers the outage from scratch, and the discovery
// is priced in timeouts (seconds per cold lookup against a black-holed
// owner). A
// breaker remembers. After Failures consecutive errors it opens, and an
// open breaker answers Allow()=false in nanoseconds — the caller
// short-circuits straight to its fallback (the next tier, or local
// compute) without touching the dependency. After Cooldown one probe is
// let through (half-open); its success closes the breaker and normal
// traffic resumes, its failure re-opens for another cooldown.
//
// # State machine
//
//	closed ──(Failures consecutive errors)──▶ open
//	open ──(Cooldown elapsed; next Allow is the probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open
//
// Success in the closed state resets the consecutive-failure count, so
// a dependency that merely flaps below the threshold never opens the
// breaker — sporadic failures are what the per-request degradation
// already handles well.
//
// Callers pair Allow with Record: Allow()=true grants the call (and, in
// half-open, claims the single probe slot), and the caller must then
// Record the outcome. A caller that cannot complete its call after a
// half-open Allow should Record the failure rather than abandon the
// slot, or the breaker would stay half-open with its probe forever
// outstanding.
package breaker

import (
	"sort"
	"sync"
	"time"
)

// State is a breaker's position in the state machine.
type State int

const (
	// Closed: the dependency is believed healthy; all calls pass.
	Closed State = iota
	// Open: the dependency is believed down; calls short-circuit.
	Open
	// HalfOpen: cooldown elapsed; one probe is in flight, everyone
	// else still short-circuits.
	HalfOpen
)

// String returns the state's /stats spelling.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Options tunes a breaker. The zero value yields the defaults.
type Options struct {
	// Failures is how many consecutive failures open the breaker
	// (default 5).
	Failures int
	// Cooldown is how long an open breaker waits before admitting the
	// half-open probe (default 10s).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a fake to walk
	// the cooldown without sleeping.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Failures <= 0 {
		o.Failures = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 10 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Breaker is one dependency's circuit breaker. Safe for concurrent use.
type Breaker struct {
	name string
	opts Options

	mu          sync.Mutex
	state       State
	consecutive int       // consecutive failures while closed
	openedAt    time.Time // when the breaker last opened
	probing     bool      // half-open: the single probe is outstanding
	lastErr     string
	lastChange  time.Time

	// Counters (under mu; read via Stats).
	successes     uint64
	failures      uint64
	opens         uint64
	shortCircuits uint64
	probes        uint64
	recoveries    uint64
}

// New returns a closed breaker named name (the dependency it guards —
// "objstore", "owner:<url>") with the given options.
func New(name string, opts Options) *Breaker {
	o := opts.withDefaults()
	return &Breaker{name: name, opts: o, lastChange: o.Now()}
}

// Name returns the dependency name the breaker guards.
func (b *Breaker) Name() string { return b.name }

// Allow reports whether a call to the dependency may proceed. False
// means short-circuit: take the fallback now, spend no time on the
// dependency. A true return in the half-open state claims the single
// probe slot; the caller must Record the outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.opts.Now().Sub(b.openedAt) >= b.opts.Cooldown {
			b.state = HalfOpen
			b.probing = true
			b.probes++
			b.lastChange = b.opts.Now()
			return true
		}
		b.shortCircuits++
		return false
	default: // HalfOpen
		if b.probing {
			b.shortCircuits++
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

// Record reports a call's outcome: nil is success, anything else a
// failure of the dependency (callers must NOT record their own
// cancellation as the dependency's failure — classify first).
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.opts.Now()
	if err == nil {
		b.successes++
		b.consecutive = 0
		if b.state == HalfOpen {
			// The probe came back healthy: re-admit the dependency.
			b.state = Closed
			b.probing = false
			b.recoveries++
			b.lastChange = now
		}
		return
	}
	b.failures++
	b.consecutive++
	b.lastErr = err.Error()
	switch b.state {
	case HalfOpen:
		// The probe failed: back to a full cooldown.
		b.state = Open
		b.probing = false
		b.openedAt = now
		b.opens++
		b.lastChange = now
	case Closed:
		if b.consecutive >= b.opts.Failures {
			b.state = Open
			b.openedAt = now
			b.opens++
			b.lastChange = now
		}
	}
}

// State returns the breaker's current state, advancing open → half-open
// is NOT done here (only Allow moves the machine, so observers never
// steal the probe slot).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats is one breaker's /stats block.
type Stats struct {
	// State is "closed", "open", or "half-open".
	State string `json:"state"`
	// Consecutive is the current consecutive-failure count (resets on
	// any success).
	Consecutive int `json:"consecutive"`
	// Successes and Failures count recorded outcomes.
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	// Opens counts closed/half-open → open transitions; Recoveries
	// counts half-open → closed ones.
	Opens      uint64 `json:"opens"`
	Recoveries uint64 `json:"recoveries"`
	// ShortCircuits counts calls refused while open (the requests that
	// did NOT pay a timeout); Probes counts half-open admissions.
	ShortCircuits uint64 `json:"short_circuits"`
	Probes        uint64 `json:"probes"`
	// LastError is the most recent recorded failure ("" if none yet).
	LastError string `json:"last_error,omitempty"`
	// SinceChangeMS is how long the breaker has been in its current
	// state.
	SinceChangeMS float64 `json:"since_change_ms"`
}

// Stats snapshots the breaker's counters.
func (b *Breaker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		State:         b.state.String(),
		Consecutive:   b.consecutive,
		Successes:     b.successes,
		Failures:      b.failures,
		Opens:         b.opens,
		Recoveries:    b.recoveries,
		ShortCircuits: b.shortCircuits,
		Probes:        b.probes,
		LastError:     b.lastErr,
		SinceChangeMS: float64(b.opts.Now().Sub(b.lastChange).Nanoseconds()) / 1e6,
	}
}

// Set is a named registry of breakers sharing one Options template: the
// serving stack creates one Set and every dependency — the object
// bucket (get and put separately), each fleet owner — gets its
// breaker from it, so /healthz, /stats, and the X-Degraded header see
// every dependency in one place.
type Set struct {
	opts Options

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewSet returns an empty registry whose breakers share opts.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, m: map[string]*Breaker{}}
}

// Get returns the breaker named name, creating it (closed) on first
// use.
func (s *Set) Get(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[name]; ok {
		return b
	}
	b := New(name, s.opts)
	s.m[name] = b
	return b
}

// Open returns the sorted names of breakers currently NOT closed — the
// dependency list the X-Degraded header carries. Half-open counts:
// the dependency is still being probed, so responses are still being
// served in degraded mode.
func (s *Set) Open() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name, b := range s.m {
		if b.State() != Closed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots every registered breaker, keyed by name.
func (s *Set) Stats() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.m))
	for name, b := range s.m {
		out[name] = b.Stats()
	}
	return out
}
