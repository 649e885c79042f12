// Command bcclint is the repository's static-analysis suite: four
// analyzers that mechanize the prose contracts of ARCHITECTURE.md —
// bit-determinism of the fingerprint-feeding packages (detpure),
// request-context threading on the serving plane (ctxflow), the
// every-failure-is-a-miss tier boundary (missdegrade), and
// index-disjoint writes in worker closures (sharddiscipline).
//
// It speaks the go vet vettool protocol (internal/analysis/driver), so
// the whole suite runs over the tree with the build system handling
// loading and caching. It takes no flags:
//
//	go build -o /tmp/bcclint ./cmd/bcclint
//	go vet -vettool=/tmp/bcclint ./...
//
// Deliberate, explained exceptions are waived per-line with a reasoned
// //bcclint:allow(<analyzer>) directive; see docs/lint.md for the
// catalogue of analyzers, the contracts they guard, and the escape
// hatch grammar.
package main

import (
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detpure"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/missdegrade"
	"repro/internal/analysis/sharddiscipline"
)

func main() {
	driver.Main(
		detpure.Analyzer,
		ctxflow.Analyzer,
		missdegrade.Analyzer,
		sharddiscipline.Analyzer,
	)
}
