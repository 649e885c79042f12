// Package ctxflow mechanizes the context-threading contract of the
// serving plane (serve, sched, store and its tiers, fleet, sweep):
// every outbound wait — a Backend.Get, an ObjectClient round trip, an
// HTTP request to a peer or owner — must be bounded by the
// context.Context of the request that caused it, threaded down from an
// enclosing parameter. Minting a fresh root context at the call site
// severs that chain: a hung dependency then stalls past the serving
// timeout and a disconnected client keeps burning compute.
//
// The analyzer flags the two ways the chain gets severed:
//
//   - context.Background() / context.TODO() anywhere in a covered
//     non-test file. The rare legitimate roots (a flight whose
//     lifetime is deliberately decoupled from any single caller, a
//     write-through that must survive the request that triggered it)
//     carry a reasoned //bcclint:allow(ctxflow) directive;
//   - context-free HTTP entry points (http.NewRequest, http.Get,
//     client.Get/Head/Post/PostForm) — use NewRequestWithContext and
//     Client.Do so the request carries the caller's context.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/bcc"
	"repro/internal/analysis/driver"
)

// coveredPkgs are the serving-plane packages where every outbound call
// happens on behalf of a request.
var coveredPkgs = []string{
	"internal/serve",
	"internal/sched",
	"internal/store",
	"internal/store/memlru",
	"internal/store/objstore",
	"internal/store/tier",
	"internal/fleet",
	"internal/sweep",
}

// ctxFreeHTTP are the net/http entry points that build or send a
// request with no context attached.
var ctxFreeHTTP = map[string]string{
	"NewRequest": "http.NewRequestWithContext",
	"Get":        "http.NewRequestWithContext + Client.Do",
	"Head":       "http.NewRequestWithContext + Client.Do",
	"Post":       "http.NewRequestWithContext + Client.Do",
	"PostForm":   "http.NewRequestWithContext + Client.Do",
}

// Analyzer requires serving-plane lookups and outbound HTTP to thread
// the request context from an enclosing parameter, never a fresh root
// context.
var Analyzer = &driver.Analyzer{Name: "ctxflow", Run: run}

func run(pass *driver.Pass) {
	allow := bcc.NewAllower(pass)
	if !bcc.PathMatches(pass.Pkg.Path(), coveredPkgs...) {
		return
	}
	for _, f := range pass.Files {
		if bcc.IsTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "context":
				switch fn.Name() {
				case "Background":
					allow.Reportf(call.Pos(),
						"context.Background() on the serving plane severs the request context; thread the ctx parameter down instead")
				case "TODO":
					allow.Reportf(call.Pos(),
						"context.TODO() on the serving plane: thread the request context from an enclosing parameter")
				}
			case "net/http":
				want, bad := ctxFreeHTTP[fn.Name()]
				if !bad {
					return true
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() != nil && !isHTTPClient(sig.Recv().Type()) {
					return true
				}
				allow.Reportf(call.Pos(),
					"%s sends a request with no context; use %s so the round trip is bounded by the caller's deadline",
					fn.Name(), want)
			}
			return true
		})
	}
}

func isHTTPClient(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Client" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}
