// Fleet serving: the owner-first resolution path for replicas that
// share one logical cache.
//
// With a Fleet configured, every fingerprint has exactly one owner
// replica (rendezvous hashing — internal/fleet), and a replica that
// receives a request for a fingerprint it does not own tries, in
// order, before computing anything itself:
//
//  1. its local tiers and the shared object bucket (LookupShared) —
//     the owner's write-through lands tables there, so most non-owner
//     requests resolve without bothering any replica;
//  2. a cheap HEAD probe of the owner — 200 "cached" (fetch it with a
//     cached=only GET), 202 "inflight" (the owner is computing it right
//     now: wait with backoff and re-check instead of starting a second
//     computation), 404 "cold" (proxy the full GET so the owner
//     computes it once, under its own single-flight);
//  3. and on ANY owner failure — probe error, fetch miss, proxy error,
//     context expiry — the ordinary local compute path, so a dead owner
//     degrades to exactly today's single-replica behavior.
//
// Both owner GETs — the cached=only fetch and the proxy — go through
// one function (fetchOwner) that trusts nothing the owner sends until
// it checks out: the X-Fingerprint must name the requested key, and the
// body must hash to the response's Repr-Digest (RFC 9530) and open as
// the requested table. A damaged or foreign body is a miss, so it falls
// back to local compute and can never be cached here under the
// fingerprint.
//
// The proxied GET carries an X-Fleet-Proxy header naming the caller; a
// request bearing that header is never proxied onward, so disagreeing
// ownership views (a misconfigured fleet) cannot form forwarding
// cycles — at worst both replicas compute, which is the pre-fleet
// status quo.
//
// With a breaker registry configured (Server.Breakers), each owner gets
// its own circuit breaker ("owner:<url>"): repeated probe/fetch/proxy
// failures open it, and an open breaker makes step 2 a microsecond
// no-op — the request falls straight back to local compute instead of
// re-paying the probe timeout to re-discover a dead owner. One request
// per cooldown probes the owner (half-open) and a success re-admits it.
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/breaker"
	"repro/internal/result"
	"repro/internal/store"
)

const (
	// headerServedBy names the replica whose store or computation
	// produced the body — this replica, or the owner it was fetched
	// from. Set on every /tables/{id} response when a fleet is
	// configured; cmd/bccload aggregates it into a per-target mix.
	headerServedBy = "X-Served-By"
	// headerFleetState is the probe verdict: cached, inflight, or cold.
	headerFleetState = "X-Fleet-State"
	// headerFleetProxy marks a GET as proxied on behalf of another
	// replica (value: the caller's base URL). Its presence is the loop
	// guard: such a request is answered locally, never re-proxied.
	headerFleetProxy = "X-Fleet-Proxy"
)

const (
	probeCached   = "cached"
	probeInflight = "inflight"
	probeCold     = "cold"
)

// probeTimeout bounds one HEAD probe round trip, and ownerFetchTimeout
// one cached=only fetch. Both answer from the owner's local tiers, so
// an owner slower than this is effectively down and the caller should
// fall back to local compute rather than stall its own request on
// diagnosis. (Variables only so tests can shorten them.)
var (
	probeTimeout      = 2 * time.Second
	ownerFetchTimeout = 5 * time.Second
)

// maxOwnerBytes caps a table body fetched from an owner: canonical
// tables are a few KB, so anything near this is damage or abuse.
const maxOwnerBytes = 16 << 20

// defaultFleetClient is the pooled transport for probes, fetches and
// proxies when the embedder does not supply one. No overall Timeout: a
// proxied GET legitimately waits for the owner's computation, and is
// bounded by the request context instead (probes and cached=only
// fetches get their own short deadlines).
var defaultFleetClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
	},
}

// fleetCounters tracks how non-owned requests were resolved; /stats
// reports them so an operator can see whether the fleet is actually
// sharing work (shared_hits and wait_hits high) or flapping into
// fallbacks (owner down or misconfigured).
type fleetCounters struct {
	sharedHits   atomic.Uint64 // resolved from local tiers or the shared bucket
	ownerFetches atomic.Uint64 // cached=only fetches from the owner that hit
	proxied      atomic.Uint64 // full GETs proxied to a cold owner
	waits        atomic.Uint64 // requests that waited on an owner's in-flight computation
	waitHits     atomic.Uint64 // waits resolved via the shared bucket while waiting
	fallbacks    atomic.Uint64 // owner path failed; computed locally instead
	probeErrors  atomic.Uint64 // probes that errored (network, status, timeout)
	// ownerShortCircuits counts resolutions that skipped the owner
	// entirely because its breaker was open — instant fallbacks that
	// cost microseconds instead of a probe timeout.
	ownerShortCircuits atomic.Uint64
}

// FleetStats is the /stats "fleet" payload.
type FleetStats struct {
	Self         string   `json:"self"`
	Members      []string `json:"members"`
	SharedHits   uint64   `json:"shared_hits"`
	OwnerFetches uint64   `json:"owner_fetches"`
	Proxied      uint64   `json:"proxied"`
	Waits        uint64   `json:"waits"`
	WaitHits     uint64   `json:"wait_hits"`
	Fallbacks    uint64   `json:"fallbacks"`
	ProbeErrors  uint64   `json:"probe_errors"`
	// OwnerShortCircuits counts owner resolutions refused by an open
	// per-owner breaker (a subset of Fallbacks).
	OwnerShortCircuits uint64 `json:"owner_short_circuits"`
}

func (s *Server) fleetStats() FleetStats {
	return FleetStats{
		Self:               s.Fleet.Self(),
		Members:            s.Fleet.Members(),
		SharedHits:         s.fleetC.sharedHits.Load(),
		OwnerFetches:       s.fleetC.ownerFetches.Load(),
		Proxied:            s.fleetC.proxied.Load(),
		Waits:              s.fleetC.waits.Load(),
		WaitHits:           s.fleetC.waitHits.Load(),
		Fallbacks:          s.fleetC.fallbacks.Load(),
		ProbeErrors:        s.fleetC.probeErrors.Load(),
		OwnerShortCircuits: s.fleetC.ownerShortCircuits.Load(),
	}
}

// ownerBreaker returns the per-owner breaker (nil without a registry).
// Each owner gets its own — "owner:<url>" in the shared Set — because
// one dead replica must not mark every other owner dead.
func (s *Server) ownerBreaker(owner string) *breaker.Breaker {
	if s.Breakers == nil {
		return nil
	}
	return s.Breakers.Get("owner:" + owner)
}

// recordOwner feeds one owner round trip's outcome (nil: a healthy
// answer) to the owner's breaker. Only the owner's own failures count:
// this request's context dying — client gone, serving deadline hit —
// says nothing about the owner, so it records nothing either way.
func (s *Server) recordOwner(ctx context.Context, owner string, err error) {
	if ob := s.ownerBreaker(owner); ob != nil && ctx.Err() == nil {
		ob.Record(err)
	}
}

func (s *Server) fleetClient() *http.Client {
	if s.FleetClient != nil {
		return s.FleetClient
	}
	return defaultFleetClient
}

// handleProbe is HEAD /tables/{id}: the cross-replica cache probe. It
// answers from this replica's local tiers and in-flight set only — it
// never computes, never reads the bucket, never contacts anyone — so a
// fleet's probe traffic costs the owner a map lookup, not work.
//
//	200  cached locally (ETag and X-Fingerprint identify the bytes)
//	202  a computation for this fingerprint is in flight right now
//	404  cold: not cached, not in flight
//
// The verdict is also spelled out in X-Fleet-State for humans and
// scripts (HEAD bodies are empty by definition).
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	_, cfg, ok := s.resolveTableRequest(w, r)
	if !ok {
		return
	}
	key := store.KeyFor(r.PathValue("id"), cfg.Params())
	if _, _, ok := s.Stack.CachedLocal(r.Context(), key); ok {
		w.Header().Set("ETag", etagFor(key.Fingerprint))
		w.Header().Set("X-Fingerprint", key.Fingerprint)
		w.Header().Set(headerFleetState, probeCached)
		w.WriteHeader(http.StatusOK)
		return
	}
	if s.Sched.Flying(key.Fingerprint) {
		w.Header().Set(headerFleetState, probeInflight)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	w.Header().Set(headerFleetState, probeCold)
	w.WriteHeader(http.StatusNotFound)
}

// fleetResolve resolves a non-owned fingerprint owner-first. It returns
// ok=false when the owner path failed in any way — the caller falls
// back to the ordinary local compute path (the degradation contract:
// a dead or slow owner costs a fleet nothing but the sharing).
func (s *Server) fleetResolve(ctx context.Context, k store.Key) (tab *result.Table, tierName string, ownerHit bool, servedBy string, ok bool) {
	// The cheapest resolution first: the owner's write-through may have
	// already landed the table in the shared bucket (or an earlier fetch
	// in our local tiers) — reading it costs no replica any work.
	if t, name, hit := s.Stack.LookupShared(ctx, k); hit {
		s.fleetC.sharedHits.Add(1)
		return t, name, true, s.Fleet.Self(), true
	}
	owner := s.Fleet.Owner(k.Fingerprint)
	ob := s.ownerBreaker(owner)
	if ob != nil && !ob.Allow() {
		// The owner is remembered as down: skip the probe entirely and
		// fall back to local compute in microseconds, instead of paying
		// the probe timeout to re-discover the outage per request. When
		// the cooldown elapses, exactly one request's Allow claims the
		// half-open probe and takes the full owner path as usual.
		s.fleetC.ownerShortCircuits.Add(1)
		s.fleetC.fallbacks.Add(1)
		return nil, "", false, "", false
	}
	wait := backoff.Default.Start(s.Seed)
	waiting := false
	for {
		state, err := s.probeOwner(ctx, owner, k)
		s.recordOwner(ctx, owner, err)
		if err != nil {
			s.fleetC.probeErrors.Add(1)
			s.fleetC.fallbacks.Add(1)
			return nil, "", false, "", false
		}
		switch state {
		case probeCached:
			if t, _ := s.fetchOwner(ctx, owner, k, false); t != nil {
				s.fleetC.ownerFetches.Add(1)
				s.Stack.BackfillLocal(k, t)
				return t, "fleet", true, owner, true
			}
			// Probed cached but the fetch missed (evicted in the gap, or
			// a degraded owner): compute locally rather than loop.
			s.fleetC.fallbacks.Add(1)
			return nil, "", false, "", false
		case probeInflight:
			// The owner is computing this fingerprint right now. Starting
			// a second computation here is exactly the waste the fleet
			// exists to prevent — wait with backoff, bounded by the
			// request context, re-checking the shared bucket (the
			// flight's write-through lands there) between probes.
			if !waiting {
				waiting = true
				s.fleetC.waits.Add(1)
			}
			// Sleep one policy step (capped exponential with jitter),
			// aborting the wait the instant the request context dies —
			// a disconnected client must release its goroutine within
			// one backoff step, not ride out the owner's computation.
			if err := backoff.Sleep(ctx, wait.Next()); err != nil {
				s.fleetC.fallbacks.Add(1)
				return nil, "", false, "", false
			}
			if t, name, hit := s.Stack.LookupShared(ctx, k); hit {
				s.fleetC.waitHits.Add(1)
				return t, name, true, s.Fleet.Self(), true
			}
		default: // cold
			// Nobody has it and nobody is computing it: proxy the full
			// GET so the computation happens on the owner — its
			// single-flight dedups our proxy against the owner's own
			// concurrent requests (and every other non-owner's proxy),
			// and its write-through publishes the result to the bucket
			// for the whole fleet.
			t, hit := s.fetchOwner(ctx, owner, k, true)
			if t == nil {
				s.fleetC.fallbacks.Add(1)
				return nil, "", false, "", false
			}
			s.fleetC.proxied.Add(1)
			s.Stack.BackfillLocal(k, t)
			return t, "fleet", hit, owner, true
		}
	}
}

// probeOwner asks the owner whether it holds (or is computing) k, via
// the cheap HEAD endpoint, under its own short deadline.
func (s *Server) probeOwner(ctx context.Context, owner string, k store.Key) (string, error) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/tables/%s?seed=%d&quick=%t",
		owner, url.PathEscape(k.ID), k.Params.Seed, k.Params.Quick)
	req, err := http.NewRequestWithContext(pctx, http.MethodHead, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := s.fleetClient().Do(req)
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxOwnerBytes))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return probeCached, nil
	case http.StatusAccepted:
		return probeInflight, nil
	case http.StatusNotFound:
		return probeCold, nil
	default:
		return "", fmt.Errorf("probe %s: unexpected status %d", owner, resp.StatusCode)
	}
}

// fetchOwner GETs k's table from owner and verifies it before it can
// enter the local tiers: with compute false, the cached=only fetch of a
// table the owner's probe reported cached; with compute true, the full
// GET proxied to a cold owner — the one fleet path that may cause work,
// on the one replica entitled to do it. Any failure is a miss (nil) and
// an owner-breaker failure; the owner's clean cached=only 404 is a miss
// and a healthy answer. hit reports whether the owner served the table
// from its store — a proxied miss was computed just now, and the
// response's X-Cache should say so.
func (s *Server) fetchOwner(ctx context.Context, owner string, k store.Key, compute bool) (tab *result.Table, hit bool) {
	tab, hit, err := s.readOwner(ctx, owner, k, compute)
	s.recordOwner(ctx, owner, err)
	return tab, hit
}

// readOwner is fetchOwner's round trip. The owner must answer 200 with
// this key's X-Fingerprint and a Repr-Digest, and the body must hash to
// that digest and open as table k.ID at this schema version; the
// verified bytes are then wrapped as they are (result.FromWire), so a
// fetch costs neither a decode nor an encode, and its digest is the one
// just checked. A cached=only fetch runs under ownerFetchTimeout as
// well as ctx; a proxied GET waits out the owner's computation under
// ctx alone.
func (s *Server) readOwner(ctx context.Context, owner string, k store.Key, compute bool) (*result.Table, bool, error) {
	u := fmt.Sprintf("%s/tables/%s?seed=%d&quick=%t",
		owner, url.PathEscape(k.ID), k.Params.Seed, k.Params.Quick)
	if !compute {
		u += "&cached=only"
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ownerFetchTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, err
	}
	if compute {
		req.Header.Set(headerFleetProxy, s.Fleet.Self())
	}
	resp, err := s.fleetClient().Do(req)
	if err != nil {
		return nil, false, err
	}
	// Drain before closing on every path, so the connection goes back
	// into the keep-alive pool instead of costing the next fetch a
	// handshake.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxOwnerBytes))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound && !compute {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("owner %s: status %d", owner, resp.StatusCode)
	}
	// The body carries the id but not the seed/quick params; the owner
	// computes X-Fingerprint from the params it parsed, so a proxy that
	// strips or re-keys the query string is caught here.
	if fp := resp.Header.Get("X-Fingerprint"); fp != k.Fingerprint {
		return nil, false, fmt.Errorf("owner %s: X-Fingerprint %q, want %s", owner, fp, k.Fingerprint)
	}
	sum, err := parseReprDigest(resp.Header.Get(headerReprDigest))
	if err != nil {
		return nil, false, fmt.Errorf("owner %s: %w", owner, err)
	}
	// A body cut short by the cap fails the digest like any damage.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxOwnerBytes))
	if err == nil {
		err = result.VerifyDigest(body, sum)
	}
	var tab *result.Table
	if err == nil {
		tab, err = result.FromWire(k.ID, body, sum)
	}
	if err != nil {
		return nil, false, fmt.Errorf("owner %s: %w", owner, err)
	}
	return tab, resp.Header.Get("X-Cache") == "hit", nil
}
