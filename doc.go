// Package repro is a from-scratch Go reproduction of "Broadcast Congested
// Clique: Planted Cliques and Pseudorandom Generators" (Chen & Grossman,
// PODC 2019, arXiv:1905.07780).
//
// The repository contains, as independently usable subsystems:
//
//   - a Broadcast Congested Clique simulator (BCAST(1) and BCAST(log n))
//     with sequential, turn-relaxed, and channel-concurrent engines;
//   - the paper's pseudorandom generator — the first PRG that fools a
//     distributed message-passing model — with its BCAST(1) construction
//     protocol, the Corollary 7.1 derandomization transform, and the
//     Theorem 8.1 seed-optimality attack;
//   - the planted-clique machinery: the A_rand/A_C/A_k distributions, the
//     Section 3/4 lower-bound framework with exact and Monte-Carlo
//     transcript-distance measurement — both run on a sharded worker-pool
//     engine whose results are bit-identical for every worker count
//     (per-sample rng streams, rank-range enumeration, integer-count
//     merges over interned transcript keys) — natural detector protocols,
//     and the Appendix B O(n/k·polylog n)-round recovery protocol;
//   - the average-case rank hardness and time-hierarchy protocols
//     (Theorems 1.4 and 1.5) with Kolchin's rank-law constants;
//   - Newman's theorem in BCAST(1) (Appendix A);
//   - the result subsystem: typed experiment tables with a canonical
//     JSON schema and fingerprint content addresses (internal/result);
//     a tiered compute-once cache behind the store.Backend contract —
//     in-memory hot-table LRU (internal/store/memlru), a
//     corruption-tolerant on-disk store (internal/store), a writable
//     shared object bucket (internal/store/objstore), and their
//     fallthrough/backfill composition (internal/store/tier); a
//     concurrent single-flight scheduler with bounded admission and
//     per-request context cancellation (internal/sched); and the
//     bccserve HTTP API (internal/serve behind cmd/bccserve) that
//     serves cached tables from the fastest tier as stored bytes (the
//     hit path never re-encodes; ETag is the content-address
//     fingerprint, If-None-Match answers 304), computes misses on
//     demand behind a bounded queue (429 + Retry-After, per-request
//     timeouts), drains gracefully on SIGTERM, and shares one cache
//     across a fleet of replicas (owner fetches checked against a
//     Repr-Digest) — with cmd/bccload as the matching load generator;
//   - substrate packages: GF(2) bit vectors and linear algebra
//     (internal/bitvec, internal/f2), finite distributions with
//     total-variation distance, string-interned integer-keyed variants,
//     mergeable shard accumulators, and k-subset enumeration/unranking
//     (internal/dist), information theory (internal/info), Boolean
//     Fourier analysis (internal/fourier), deterministic splittable PRNG
//     streams (internal/rng), and the worker-pool sharding substrate
//     (internal/par).
//
// The facade in repro.go re-exports the most commonly used entry points;
// the full API lives in the internal packages, and the per-theorem
// experiment harness is internal/experiments (its registry,
// experiments.All, indexes E1..E18; driven by cmd/experiments, the
// bccserve server, and the root benchmarks — all sharing one corpus via
// the BCC_STORE environment variable). ARCHITECTURE.md holds the layer
// diagram, the load-bearing contracts (worker-count invariance,
// Workers-free fingerprints, byte-identical canonical JSON), and the
// tier-degradation rules; docs/api.md is the serving API reference;
// README.md documents the result schema and store layout; ROADMAP.md
// tracks the system inventory and open items; BENCH_DIST.json,
// BENCH_LOWERBOUND.json, BENCH_STORE.json, and BENCH_SERVE.json hold
// the performance baselines for the hot measurement and serving paths.
package repro
