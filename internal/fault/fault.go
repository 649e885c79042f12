// Package fault is deterministic fault injection for the serving
// stack's remote dependencies: wrappers that make an object bucket, a
// store backend, or an HTTP transport fail on purpose — with latency,
// errors, hangs-until-deadline, and payload corruption drawn from a
// seeded spec — so the degradation matrix (objstore down, peer
// black-holed, owner flapping) is provable on demand in tests, in CI,
// and against a live dev server instead of waiting for production to
// supply the outage.
//
// # Specs
//
// A Spec is parsed from the compact form the -chaos flag takes:
//
//		err=0.3,lat=200ms,corrupt=0.05,timeout=0.1,seed=7,for=30s
//
//	  - err:     fraction of calls that fail with ErrInjected
//	  - lat:     fixed latency added to every call (context-aware)
//	  - timeout: fraction of calls that hang until the caller's context
//	    expires — the black-hole fault, the one that prices an
//	    unprotected dependency at one full deadline per request
//	  - corrupt: fraction of calls whose payload bytes are flipped
//	  - seed:    the decision stream seed (default 1); equal specs make
//	    equal decisions in sequence
//	  - for:     the fault window — after this much time from Arm the
//	    injector goes quiet and the dependency heals, which is how CI
//	    drives breaker recovery without an admin endpoint
//
// A Plan maps dependency targets to specs ("objstore:err=1;peer:lat=6s"),
// with a bare spec applying to every target.
//
// # Determinism
//
// Decisions are drawn from one seeded PCG stream per injector, in call
// order. Single-threaded tests see exactly reproducible fault
// sequences; concurrent callers see a reproducible multiset (the
// stream is mutex-serialized, only the interleaving varies).
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error every injected failure wraps, so tests (and
// curious operators reading breaker last-error fields) can tell a drill
// from a real outage.
var ErrInjected = errors.New("fault: injected failure")

// Spec describes one dependency's fault profile. The zero value
// injects nothing.
type Spec struct {
	// Err is the fraction of calls failing with ErrInjected [0,1].
	Err float64
	// Timeout is the fraction of calls that block until the caller's
	// context is done, then return its error [0,1].
	Timeout float64
	// Corrupt is the fraction of calls whose payload is damaged [0,1].
	Corrupt float64
	// Latency is added to every call, honoring the caller's context.
	Latency time.Duration
	// Seed seeds the decision stream (0 is treated as 1).
	Seed uint64
	// For bounds the fault window from Arm time; zero means forever.
	For time.Duration
}

// Zero reports whether the spec injects nothing at all.
func (s Spec) Zero() bool {
	return s.Err == 0 && s.Timeout == 0 && s.Corrupt == 0 && s.Latency == 0
}

// String renders the spec in its parseable form (normalized field
// order), for logs and /stats.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("err", s.Err)
	if s.Latency != 0 {
		parts = append(parts, "lat="+s.Latency.String())
	}
	add("timeout", s.Timeout)
	add("corrupt", s.Corrupt)
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	}
	if s.For != 0 {
		parts = append(parts, "for="+s.For.String())
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Parse parses the compact spec form: comma-separated key=value pairs
// from {err, lat, timeout, corrupt, seed, for}. Rates must be in
// [0,1]; durations use Go syntax. The empty string and "none" (what
// String prints for it) are the zero Spec.
func Parse(s string) (Spec, error) {
	var out Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return out, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "err", "timeout", "corrupt":
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails both
				return out, fmt.Errorf("fault: %s=%q: want a rate in [0,1]", k, v)
			}
			switch k {
			case "err":
				out.Err = rate
			case "timeout":
				out.Timeout = rate
			case "corrupt":
				out.Corrupt = rate
			}
		case "lat", "for":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return out, fmt.Errorf("fault: %s=%q: want a non-negative duration", k, v)
			}
			if k == "lat" {
				out.Latency = d
			} else {
				out.For = d
			}
		case "seed":
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return out, fmt.Errorf("fault: seed=%q: want a uint64", v)
			}
			out.Seed = seed
		default:
			return out, fmt.Errorf("fault: unknown spec key %q (want err, lat, timeout, corrupt, seed, for)", k)
		}
	}
	return out, nil
}

// Targets a Plan may address, matching the serving stack's dependency
// names (and breaker names).
const (
	TargetObjstore = "objstore"
	TargetPeer     = "peer"
	TargetFleet    = "fleet" // owner probes and proxies
)

var knownTargets = map[string]bool{TargetObjstore: true, TargetPeer: true, TargetFleet: true}

// Plan maps dependency targets to their fault specs.
type Plan map[string]Spec

// ParsePlan parses a -chaos value: either one bare Spec applied to
// every target, or semicolon-separated "target:spec" sections, e.g.
//
//	err=0.5                             every dependency flaps
//	objstore:err=1;peer:lat=6s,seed=3   bucket down, peer black-holed
//
// The empty string and "none" (what String prints for it) are the empty
// plan.
func ParsePlan(s string) (Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	plan := Plan{}
	if !strings.Contains(s, ":") {
		spec, err := Parse(s)
		if err != nil {
			return nil, err
		}
		for target := range knownTargets {
			plan[target] = spec
		}
		return plan, nil
	}
	for _, section := range strings.Split(s, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		target, rest, ok := strings.Cut(section, ":")
		target = strings.TrimSpace(target)
		if !ok || !knownTargets[target] {
			return nil, fmt.Errorf("fault: unknown chaos target in %q (want objstore, peer, or fleet)", section)
		}
		spec, err := Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("fault: target %s: %w", target, err)
		}
		if _, dup := plan[target]; dup {
			return nil, fmt.Errorf("fault: duplicate chaos target %q", target)
		}
		plan[target] = spec
	}
	return plan, nil
}

// String renders the plan in parseable form, targets sorted.
func (p Plan) String() string {
	if len(p) == 0 {
		return "none"
	}
	targets := make([]string, 0, len(p))
	for t := range p {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	parts := make([]string, 0, len(targets))
	for _, t := range targets {
		parts = append(parts, t+":"+p[t].String())
	}
	return strings.Join(parts, ";")
}

// decision is one call's injected behavior, drawn before the call.
type decision struct {
	latency time.Duration
	hang    bool // block until the caller's context is done
	err     bool // fail with ErrInjected
	corrupt bool // damage the payload
}

// Injector draws per-call decisions from a seeded stream. Safe for
// concurrent use. The zero-window clock starts at Arm (called by the
// constructor); after Spec.For elapses every decision is a no-op —
// the dependency has "healed".
type Injector struct {
	spec Spec
	now  func() time.Time

	mu      sync.Mutex
	rng     *rand.Rand
	armedAt time.Time

	// Counters for /stats and test assertions.
	calls, injectedErrs, injectedHangs, corruptions uint64
}

// NewInjector returns an armed injector over spec.
func NewInjector(spec Spec) *Injector { return newInjector(spec, time.Now) }

// newInjector lets tests supply a fake clock for the For window.
func newInjector(spec Spec, now func() time.Time) *Injector {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{
		spec:    spec,
		now:     now,
		rng:     rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)),
		armedAt: now(),
	}
}

// Spec returns the injector's fault profile.
func (i *Injector) Spec() Spec { return i.spec }

// Active reports whether the fault window is still open.
func (i *Injector) Active() bool {
	if i == nil {
		return false
	}
	if i.spec.For == 0 {
		return !i.spec.Zero()
	}
	i.mu.Lock()
	armed := i.armedAt
	i.mu.Unlock()
	return !i.spec.Zero() && i.now().Sub(armed) < i.spec.For
}

// Stats is the injector's /stats block.
type Stats struct {
	Spec        string `json:"spec"`
	Active      bool   `json:"active"`
	Calls       uint64 `json:"calls"`
	Errors      uint64 `json:"errors"`
	Hangs       uint64 `json:"hangs"`
	Corruptions uint64 `json:"corruptions"`
}

// Stats snapshots the injector's decision counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return Stats{
		Spec:   i.spec.String(),
		Active: i.activeLocked(),
		Calls:  i.calls, Errors: i.injectedErrs,
		Hangs: i.injectedHangs, Corruptions: i.corruptions,
	}
}

func (i *Injector) activeLocked() bool {
	if i.spec.Zero() {
		return false
	}
	return i.spec.For == 0 || i.now().Sub(i.armedAt) < i.spec.For
}

// decide draws the next decision from the stream. Rates are rolled in
// a fixed order (hang, err, corrupt) so equal specs replay equal
// sequences; latency applies to every in-window call.
func (i *Injector) decide() decision {
	if i == nil {
		return decision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.calls++
	if !i.activeLocked() {
		return decision{}
	}
	d := decision{latency: i.spec.Latency}
	// Each rate consumes one roll whether or not it fires, and a fired
	// hang/err still rolls the rest — the stream position depends only
	// on the call count, never on which faults happened to fire.
	rollHang := i.rng.Float64()
	rollErr := i.rng.Float64()
	rollCorrupt := i.rng.Float64()
	if rollHang < i.spec.Timeout {
		d.hang = true
		i.injectedHangs++
	}
	if rollErr < i.spec.Err {
		d.err = true
		i.injectedErrs++
	}
	if rollCorrupt < i.spec.Corrupt {
		d.corrupt = true
		i.corruptions++
	}
	return d
}

// corruptBytes returns a damaged copy of data: the middle byte is
// rewritten by a map with no fixed point (3b+1 mod 256) that is also
// not an involution — corrupting twice must not restore the original,
// or a corrupted write read back through a corrupting Get would come
// out valid and the fault would be invisible end to end. The original
// slice is never modified (callers may hold it).
func corruptBytes(data []byte) []byte {
	cp := make([]byte, len(data))
	copy(cp, data)
	if len(cp) == 0 {
		return []byte{0xff}
	}
	cp[len(cp)/2] = cp[len(cp)/2]*3 + 1
	return cp
}
