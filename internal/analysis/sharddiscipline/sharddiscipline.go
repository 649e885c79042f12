// Package sharddiscipline mechanizes the sharded-write contract that
// makes the parallel engines bit-identical at every worker count
// (internal/mat's package doc states it; every sharded measurement
// loop relies on it): inside a worker closure handed to par.Do,
// par.Map, mat.ParRange, or Dense.ApplyRows, every write must land in
// state owned by that worker's indices — an element of a captured
// slice indexed by a closure-local variable (the span/loop index), or
// storage declared inside the closure. Writes that two workers could
// both reach are flagged:
//
//   - assigning or ++/-- on a captured scalar (a shared accumulator —
//     the classic lost-update race, and even "benign" races reorder
//     float reductions and break bit-determinism);
//   - writing a captured slice element whose index involves no
//     closure-local variable (every worker hits the same element);
//   - writing into a captured map (concurrent map writes fault, and
//     iteration order would differ anyway);
//   - writing through a captured pointer or a captured struct's field.
//
// Reads of captured state are free — instances, matrices, and spans
// are shared read-only inputs. Writes the analyzer cannot prove
// disjoint but a human can carry a reasoned
// //bcclint:allow(sharddiscipline) directive.
package sharddiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/bcc"
	"repro/internal/analysis/driver"
)

// coveredPkgs are internal/mat plus every package running sharded
// measurement loops over par.
var coveredPkgs = []string{
	"internal/mat",
	"internal/recover",
	"internal/dist",
	"internal/lowerbound",
	"internal/cliquefind",
	"internal/core",
	"internal/newman",
	"internal/rankprot",
}

// Analyzer requires every write inside a par.Do/par.Map/mat.ParRange/
// Dense.ApplyRows worker closure to be index-disjoint: no captured
// scalars, no captured map writes, no slice writes at a
// closure-invariant index.
var Analyzer = &driver.Analyzer{Name: "sharddiscipline", Run: run}

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
			if !ok || !isShardRunner(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkWorker(pass, allow, lit)
				}
			}
			return true
		})
	}
}

// isShardRunner recognizes the worker fan-out entry points: par.Do,
// par.Map, mat.ParRange, and the ApplyRows method of mat.Dense —
// whether package-qualified or called from their own package.
func isShardRunner(pass *driver.Pass, call *ast.CallExpr) bool {
	var callee *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		callee = fun.Sel
	case *ast.Ident:
		callee = fun
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[callee].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch {
	case bcc.PathMatches(fn.Pkg().Path(), "internal/par") && (fn.Name() == "Do" || fn.Name() == "Map"):
		return true
	case bcc.PathMatches(fn.Pkg().Path(), "internal/mat") && (fn.Name() == "ParRange" || fn.Name() == "ApplyRows"):
		return true
	}
	return false
}

// checkWorker walks one worker closure and flags writes that are not
// index-disjoint. Locality is positional: an object declared inside
// the closure's source range (parameters included) is worker-owned.
func checkWorker(pass *driver.Pass, allow *bcc.Allower, lit *ast.FuncLit) {
	lo, hi := lit.Pos(), lit.End()
	local := func(id *ast.Ident) bool {
		return id.Name == "_" || bcc.DeclaredWithin(pass, id, lo, hi)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, allow, lhs, n.Tok.String(), local)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, allow, n.X, n.Tok.String(), local)
		}
		return true
	})
}

func checkWrite(pass *driver.Pass, allow *bcc.Allower, lhs ast.Expr, op string, local func(*ast.Ident) bool) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if !local(lhs) {
			allow.Reportf(lhs.Pos(),
				"worker closure writes captured variable %s (%s): every output element must be written by exactly one goroutine — accumulate per-shard and merge outside",
				lhs.Name, op)
		}
	case *ast.IndexExpr:
		base, ok := rootIdent(lhs.X)
		if !ok || local(base) {
			return // writing closure-local storage (or unresolvable) is the worker's own business
		}
		if _, isMap := pass.TypesInfo.TypeOf(lhs.X).Underlying().(*types.Map); isMap {
			allow.Reportf(lhs.Pos(),
				"worker closure writes captured map %s: concurrent map writes fault and iteration order is random — write a per-shard slice instead",
				base.Name)
			return
		}
		if !exprUsesLocal(lhs.Index, local) {
			allow.Reportf(lhs.Pos(),
				"worker closure writes %s at an index with no closure-local variable: every worker hits the same element; index by the span/loop variable",
				base.Name)
		}
	case *ast.StarExpr:
		if base, ok := rootIdent(lhs.X); ok && !local(base) {
			allow.Reportf(lhs.Pos(),
				"worker closure writes through captured pointer %s: the target is shared across workers", base.Name)
		}
	case *ast.SelectorExpr:
		// Only flag field writes on captured values; method-value and
		// package-qualified selectors never appear as assignment targets.
		if base, ok := rootIdent(lhs.X); ok && !local(base) {
			allow.Reportf(lhs.Pos(),
				"worker closure writes field %s.%s of a captured value: shared across workers — give each shard its own struct and merge outside",
				base.Name, lhs.Sel.Name)
		}
	}
}

// rootIdent peels selectors, indexes, stars, and parens down to the
// leftmost identifier of an lvalue expression.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// exprUsesLocal reports whether any identifier in e is closure-local —
// the (deliberately permissive) index-disjointness witness.
func exprUsesLocal(e ast.Expr, local func(*ast.Ident) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != "_" && local(id) {
			found = true
		}
		return !found
	})
	return found
}
