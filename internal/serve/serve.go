// Package serve implements bccserve's HTTP API over the tiered result
// store and the concurrent scheduler. It lives below cmd/bccserve so
// the handler can be driven in-process — by the root Benchmark_ServeHit
// harness, by tests, and by any future embedding — while the command
// keeps only flag parsing and server lifecycle (listening, signals,
// graceful drain).
//
// # The encode-free hit path
//
// Tables are immutable content-addressed objects, so their encoded
// views are too: the canonical JSON (and lazily the markdown) is
// computed once per table (result.Table.EncodedJSON, memoized on the
// table object every tier shares) and every later response writes those
// stored bytes. A memory-tier hit therefore performs zero encodes —
// the property Benchmark_ServeHit measures and the race-mode serving
// test pins down with result.Encodes. A disk or bucket hit arrives as
// the stored, checksum-verified wire bytes, so a JSON response from
// those tiers performs zero decodes as well; only the markdown view
// decodes the rows, once per table.
//
// # ETag is the fingerprint
//
// A table's fingerprint names its bytes (equal fingerprints ⇒
// byte-equal canonical encodings), which makes it a valid strong
// validator: responses carry ETag: "<fingerprint>", and a request whose
// If-None-Match matches is answered 304 Not Modified before any store
// lookup — the client already holds the exact representation, so not
// even a memory-tier read is owed. The two formats never collide
// because format selection lives in the URL (?format=md), which is part
// of every HTTP cache key.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/remote"
	"repro/internal/store/tier"
)

// Server holds the serving wiring. The registry indirection keeps
// handlers testable against synthetic experiments; the stack's per-tier
// handles feed /stats (tier.NewStack assembles it for the CLI and the
// server alike).
type Server struct {
	// Sched schedules misses; its backend is normally Stack.Backend.
	Sched *sched.Scheduler
	// Stack is the tier assembly; its per-tier handles feed /stats and
	// the cached=only local-lookup path.
	Stack tier.Stack
	// Registry lists the experiments this server answers for
	// (experiments.All in production).
	Registry func() []experiments.Experiment
	// Seed and Quick are the defaults when a request omits ?seed=/?quick=.
	Seed  uint64
	Quick bool
	// Workers is the per-computation goroutine budget.
	Workers int
	// Timeout bounds each request's computation (0: none); exceeding it
	// answers 504. For sweeps it bounds each CELL, and an exceeded cell
	// is a "timeout" row (the stream's status is already committed).
	Timeout time.Duration
	// SweepMaxCells caps the grid size one POST /sweep may name
	// (0: sweep.DefaultMaxCells). Oversized grids are 400s — the spec
	// is the client's to shrink, not a capacity condition to retry.
	SweepMaxCells int
	// Fleet is the static replica set this server belongs to (nil: no
	// fleet — single-replica behavior). When set, requests for
	// fingerprints this replica does not own are resolved owner-first
	// (shared bucket, probe, wait, proxy — see fleet.go) and fall back
	// to local compute only when the owner path fails.
	Fleet *fleet.Fleet
	// FleetClient issues owner probes and proxied GETs (nil: a pooled
	// default with keep-alives and no overall timeout — probes carry
	// their own short deadline, proxies run under the request context).
	FleetClient *http.Client
	// Breakers is the dependency circuit-breaker registry (nil: no
	// breaking). It should be the same Set handed to tier.Config, so the
	// peer and objstore breakers the tiers feed and the per-owner
	// breakers the fleet path feeds all surface together in /healthz,
	// /stats, and the X-Degraded header.
	Breakers *breaker.Set

	// fleetReaders lazily caches one cached=only reader per owner.
	fleetMu      sync.Mutex
	fleetReaders map[string]*remote.Tier
	fleetC       fleetCounters
}

// Handler returns the HTTP API: /healthz, /tables, /tables/{id},
// /sweep, /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /tables", s.handleList)
	mux.HandleFunc("GET /tables/{id}", s.handleTable)
	// The HEAD pattern is method-more-specific than the GET one, so it
	// wins for HEAD requests: a probe costs a local lookup plus an
	// in-flight check, never a computation (the GET pattern would have
	// served HEAD through the full table path, computing on miss).
	mux.HandleFunc("HEAD /tables/{id}", s.handleProbe)
	// The batch endpoint: one admission decision per grid, NDJSON rows
	// as cells complete (sweep.go).
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON marshals payload before any header is committed, so an
// encoding failure becomes a proper 500 instead of a silently truncated
// 200 (handleList and handleStats both burned on the
// json.NewEncoder(w) pattern, whose errors vanished into a committed
// response).
func writeJSON(w http.ResponseWriter, payload any) {
	body, err := json.Marshal(payload)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// params extracts seed/quick from the query, falling back to the server
// defaults.
func (s *Server) params(r *http.Request) (experiments.Config, error) {
	cfg := experiments.Config{Seed: s.Seed, Quick: s.Quick, Workers: s.Workers}
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q", v)
		}
		cfg.Seed = seed
	}
	if v := q.Get("quick"); v != "" {
		quick, err := strconv.ParseBool(v)
		if err != nil {
			return cfg, fmt.Errorf("bad quick %q", v)
		}
		cfg.Quick = quick
	}
	return cfg, nil
}

// healthDep is one dependency's line in the /healthz readiness view.
type healthDep struct {
	State     string `json:"state"`
	LastError string `json:"last_error,omitempty"`
}

// handleHealthz is the readiness view. "ok" means every dependency
// breaker is closed; "degraded" lists the open ones with their last
// error. The HTTP status is 200 either way — an open breaker means a
// *dependency* is down, not this replica: it still answers every
// request (that is the breaker's whole point), so a load balancer must
// not pull it. Alerting reads the body (or /stats).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.Breakers == nil {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	payload := map[string]any{"status": "ok"}
	if open := s.Breakers.Open(); len(open) > 0 {
		payload["status"] = "degraded"
		payload["degraded"] = open
	}
	deps := map[string]healthDep{}
	for name, st := range s.Breakers.Stats() {
		deps[name] = healthDep{State: st.State, LastError: st.LastError}
	}
	if len(deps) > 0 {
		payload["dependencies"] = deps
	}
	writeJSON(w, payload)
}

// setDegraded stamps X-Degraded with the open-breaker list on a
// response that is being served anyway: the answer is as good as the
// degraded dependencies allow (usually identical — local tiers and
// compute still work), and the header tells clients and load tests
// exactly which dependencies were bypassed to produce it.
func (s *Server) setDegraded(w http.ResponseWriter) {
	if s.Breakers == nil {
		return
	}
	if open := s.Breakers.Open(); len(open) > 0 {
		w.Header().Set("X-Degraded", strings.Join(open, ","))
	}
}

// listEntry is one row of GET /tables.
type listEntry struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	cfg, err := s.params(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entries := []listEntry{}
	for _, e := range s.Registry() {
		key := store.KeyFor(e.ID, cfg.Params())
		var isCached bool
		if st := s.Stack.Disk; st != nil {
			// A store that cannot be read must be loud: swallowing the
			// error here would advertise a broken replica as all-cold,
			// which peers and operators take at face value.
			if isCached, err = st.Has(key); err != nil {
				httpError(w, http.StatusInternalServerError, "reading store: %v", err)
				return
			}
		}
		// The memory tier counts too — a disk-less server would
		// otherwise advertise a permanently cold replica while
		// cached=only happily serves from L0.
		if !isCached && s.Stack.Mem != nil {
			isCached = s.Stack.Mem.Contains(key)
		}
		entries = append(entries, listEntry{
			ID:          e.ID,
			Title:       e.Title,
			Fingerprint: key.Fingerprint,
			Cached:      isCached,
		})
	}
	writeJSON(w, entries)
}

// retryAfterSeconds estimates how long a 429'd client should back off:
// the standing work ahead of it (queued + running computations) drained
// at one mean computation per parallel slot, clamped to [1s, 60s]. The
// old one-mean estimate ignored queue depth entirely, so under a deep
// queue every retry landed straight in another 429.
func retryAfterSeconds(m sched.Metrics) int {
	pending := float64(m.Queued + m.Computing)
	if pending < 1 {
		pending = 1
	}
	parallel := float64(m.Parallel)
	if parallel < 1 {
		parallel = 1
	}
	secs := int(math.Ceil(pending * m.MeanComputeMS / parallel / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// etagFor is the strong validator for a fingerprint: the fingerprint
// *is* the content address, so the quoted form is the entity tag.
func etagFor(fingerprint string) string { return `"` + fingerprint + `"` }

// ifNoneMatchHits reports whether an If-None-Match header value matches
// etag: any comma-separated member equal to the tag (a W/ prefix is
// ignored — RFC 9110's weak comparison, which If-None-Match mandates).
// The wildcard is deliberately NOT a match: "*" asks "does any current
// representation exist", which this pre-lookup fast path cannot answer
// truthfully — a wildcard request falls through to normal processing
// and gets the real 200/404/500 instead of a possibly-lying 304.
func ifNoneMatchHits(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag {
			return true
		}
	}
	return false
}

// resolveTableRequest validates the {id} path segment against the
// registry and the seed/quick query params, writing the error response
// itself when invalid. Shared by the GET table handler and the HEAD
// probe so both reject unknown experiments and malformed params
// identically.
func (s *Server) resolveTableRequest(w http.ResponseWriter, r *http.Request) (experiments.Experiment, experiments.Config, bool) {
	id := r.PathValue("id")
	for _, e := range s.Registry() {
		if e.ID == id {
			cfg, err := s.params(r)
			if err != nil {
				httpError(w, http.StatusBadRequest, "%v", err)
				return experiments.Experiment{}, cfg, false
			}
			return e, cfg, true
		}
	}
	httpError(w, http.StatusNotFound, "unknown experiment %q", id)
	return experiments.Experiment{}, experiments.Config{}, false
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	exp, cfg, ok := s.resolveTableRequest(w, r)
	if !ok {
		return
	}
	s.setDegraded(w)
	id := exp.ID
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "md" {
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or md)", format)
		return
	}
	cachedOnly := false
	switch v := r.URL.Query().Get("cached"); v {
	case "", "any":
	case "only":
		cachedOnly = true
	default:
		httpError(w, http.StatusBadRequest, "unknown cached mode %q (want only)", v)
		return
	}

	key := store.KeyFor(id, cfg.Params())
	etag := etagFor(key.Fingerprint)
	if inm := r.Header.Get("If-None-Match"); inm != "" && ifNoneMatchHits(inm, etag) {
		// The fingerprint is the content address: a client that holds
		// bytes for this tag holds the current representation, so 304
		// is owed before any store lookup — the cheapest hit there is.
		w.Header().Set("ETag", etag)
		w.Header().Set("X-Fingerprint", key.Fingerprint)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	var table, tierName, cacheHit = (*experiments.Table)(nil), "", false
	var encoded []byte // wire-form JSON when the scheduler resolved it
	servedBy := ""     // the replica whose store/compute answered (fleet only)
	if cachedOnly {
		// The replica-warming wire contract: answer from this replica's
		// LOCAL tiers or say 404 — no computation and no onward peer
		// lookup, so peer topologies (cycles included) cannot amplify a
		// miss into a storm of mutual cached=only requests.
		tab, name, ok := s.Stack.CachedLocal(r.Context(), key)
		if !ok {
			w.Header().Set("X-Cache", "miss")
			httpError(w, http.StatusNotFound, "%s not cached for seed=%d quick=%t", id, cfg.Seed, cfg.Quick)
			return
		}
		table, tierName, cacheHit = tab, name, true
	} else {
		ctx := r.Context()
		if s.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.Timeout)
			defer cancel()
		}
		// Fleet path: a fingerprint this replica does not own is the
		// owner's to compute — resolve it from the shared bucket or the
		// owner (probe / wait / proxy, see fleet.go) before falling back
		// to local compute. A request already proxied on another
		// replica's behalf (the loop-guard header) is always answered
		// locally, so ownership disagreements cannot forward forever.
		if table == nil && s.Fleet != nil && !s.Fleet.Owns(key.Fingerprint) &&
			r.Header.Get(headerFleetProxy) == "" {
			if tab, name, hit, by, ok := s.fleetResolve(ctx, key); ok {
				table, tierName, cacheHit, servedBy = tab, name, hit, by
			}
		}
		if table == nil {
			tab, out, err := s.Sched.TableCtx(ctx, exp, cfg)
			switch {
			case errors.Is(err, sched.ErrBusy):
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.Sched.Metrics())))
				httpError(w, http.StatusTooManyRequests, "compute queue full, retry later")
				return
			case errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil:
				// Only the request's own expired deadline is a 504; an
				// estimator failing with its own DeadlineExceeded-flavored
				// error (an internal network timeout, say) is a plain 500 —
				// nothing was persisted, so "retry for the cached table"
				// would be a lie.
				httpError(w, http.StatusGatewayTimeout, "computing %s exceeded the %s deadline", id, s.Timeout)
				return
			case errors.Is(err, context.Canceled):
				if r.Context().Err() != nil {
					// The client went away; nobody reads this response.
					return
				}
				// Defensive: the scheduler retries inherited flight
				// cancellations, so a live client should never see this.
				httpError(w, http.StatusInternalServerError, "computing %s: %v", id, err)
				return
			case err != nil:
				httpError(w, http.StatusInternalServerError, "computing %s: %v", id, err)
				return
			}
			table, tierName, cacheHit, encoded = tab, out.Tier, out.CacheHit, out.Encoded
		}
	}

	// The body is the table's memoized encoded view: stored bytes,
	// resolved before any header is committed so an encoding failure
	// can still become a proper 500. On the hit path nothing below
	// encodes anything — the bytes were computed when the table first
	// entered a tier (see package doc).
	var body []byte
	contentType := "application/json"
	if format == "md" {
		// A tier hands back undecoded wire bytes; the markdown view is
		// the first typed read, and a table that fails to decode is a
		// 500, never an empty render.
		var err error
		if body, err = table.EncodedMarkdown(); err != nil {
			httpError(w, http.StatusInternalServerError, "rendering %s: %v", id, err)
			return
		}
		contentType = "text/markdown; charset=utf-8"
	} else if body = encoded; body == nil {
		var err error
		body, err = table.EncodedJSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encoding %s: %v", id, err)
			return
		}
	}
	cache := "miss"
	if cacheHit {
		cache = "hit"
		if tierName != "" {
			w.Header().Set("X-Cache-Tier", tierName)
		}
	}
	if s.Fleet != nil {
		if servedBy == "" {
			servedBy = s.Fleet.Self()
		}
		w.Header().Set(headerServedBy, servedBy)
	}
	w.Header().Set("X-Cache", cache)
	w.Header().Set("X-Fingerprint", key.Fingerprint)
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	payload := map[string]any{
		"sched": s.Sched.Metrics(),
	}
	if st := s.Stack.Disk; st != nil {
		payload["dir"] = st.Dir()
		stats, err := st.Stats()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "reading store: %v", err)
			return
		}
		payload["store"] = stats
	} else {
		payload["store"] = nil
	}
	if s.Stack.Mem != nil {
		payload["memory"] = s.Stack.Mem.Stats()
	}
	if s.Stack.Peer != nil {
		payload["remote"] = s.Stack.Peer.Stats()
	}
	if s.Stack.Obj != nil {
		payload["objstore"] = s.Stack.Obj.Stats()
	}
	if s.Stack.Tiered != nil {
		payload["tiers"] = s.Stack.Tiered.Stats()
	}
	// The in-flight fingerprint set is what lets fleet peers (and
	// operators) see a computation happening without asking for one.
	payload["inflight"] = s.Sched.InFlight()
	if s.Fleet != nil {
		payload["fleet"] = s.fleetStats()
	}
	if s.Breakers != nil {
		payload["breakers"] = s.Breakers.Stats()
	}
	writeJSON(w, payload)
}
