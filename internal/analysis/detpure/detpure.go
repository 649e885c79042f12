// Package detpure mechanizes the bit-determinism contract of the
// fingerprint-feeding packages: every byte of a fingerprinted table
// must be a pure function of (ID, Seed, Quick), worker-invariant and
// host-invariant. Three drift classes have historically threatened it
// and are forbidden here:
//
//   - wall clocks (time.Now / time.Since / time.Until) — a timestamp in
//     a compute path makes two runs of the same cell differ;
//   - math/rand (v1 or v2) — the only sanctioned randomness is the
//     repository's own seeded streams (rng.New / rng.Shard), whose
//     derivation is pure in (seed, index); global or ad-hoc sources
//     break worker invariance and replayability;
//   - map iteration feeding ordered output — ranging over a map while
//     appending to a slice, writing a builder, or adding table rows
//     leaks Go's randomized iteration order into serialized bytes.
//     Collecting the keys (`ks = append(ks, k)` in a key-only range)
//     and sorting them is the required idiom and is not flagged.
//
// Deliberate exceptions (operator-facing wall time that never enters a
// table, for example) carry a reasoned //bcclint:allow(detpure)
// directive; see internal/analysis/bcc and docs/lint.md.
package detpure

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/bcc"
	"repro/internal/analysis/driver"
)

// coveredPkgs are the fingerprint-feeding packages: everything whose
// computation lands in a result.Table's canonical bytes.
var coveredPkgs = []string{
	"internal/dist",
	"internal/lowerbound",
	"internal/experiments",
	"internal/result",
	"internal/mat",
	"internal/recover",
	"internal/cliquefind",
	"internal/rankprot",
	"internal/newman",
	"internal/core",
}

// wallFuncs are the forbidden time package functions. time.Sleep is
// not here: it wastes wall clock but cannot change a computed byte.
var wallFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Analyzer forbids wall clocks, math/rand, and map-order-dependent
// output in the fingerprint-feeding packages (the bit-determinism
// contract).
var Analyzer = &driver.Analyzer{Name: "detpure", Run: run}

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
			switch n := n.(type) {
			case *ast.ImportSpec:
				checkImport(pass, allow, n)
			case *ast.CallExpr:
				checkWallClock(pass, allow, n)
			case *ast.RangeStmt:
				checkMapRange(pass, allow, n)
			}
			return true
		})
	}
}

func checkImport(pass *driver.Pass, allow *bcc.Allower, spec *ast.ImportSpec) {
	switch spec.Path.Value {
	case `"math/rand"`, `"math/rand/v2"`:
		allow.Reportf(spec.Pos(),
			"import of %s in a fingerprint-feeding package: use the seeded rng streams (rng.New / rng.Shard) instead",
			spec.Path.Value)
	}
}

func checkWallClock(pass *driver.Pass, allow *bcc.Allower, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallFuncs[fn.Name()] {
		return
	}
	allow.Reportf(call.Pos(),
		"time.%s in a fingerprint-feeding package: a computed table must be a pure function of (ID, Seed, Quick)",
		fn.Name())
}

// checkMapRange flags a range over a map whose body builds ordered
// output: appends, builder/buffer writes, Fprint-family calls, or
// writes into a slice element. The one blessed shape is the sorted-keys
// gather — a key-only range appending exactly the key.
func checkMapRange(pass *driver.Pass, allow *bcc.Allower, rng *ast.RangeStmt) {
	if _, ok := pass.TypesInfo.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeKeyObject(pass, rng)
	keyOnly := rng.Value == nil || isBlank(rng.Value)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltinAppend(pass, n) {
				if keyOnly && appendsOnlyKey(pass, n, keyObj) {
					return true // the sorted-keys idiom's gather step
				}
				allow.Reportf(n.Pos(),
					"append inside a range over a map: iteration order leaks into the result; collect the keys, sort, then build")
				return true
			}
			if name, ok := orderedSink(pass, n); ok {
				allow.Reportf(n.Pos(),
					"%s inside a range over a map writes output in iteration order; iterate sorted keys instead", name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					switch pass.TypesInfo.TypeOf(ix.X).Underlying().(type) {
					case *types.Slice, *types.Array, *types.Pointer:
						allow.Reportf(lhs.Pos(),
							"slice element written inside a range over a map: element order follows iteration order; iterate sorted keys instead")
					}
				}
			}
		}
		return true
	})
}

func rangeKeyObject(pass *driver.Pass, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isBuiltinAppend(pass *driver.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendsOnlyKey reports whether every appended element is exactly the
// range key identifier.
func appendsOnlyKey(pass *driver.Pass, call *ast.CallExpr, key types.Object) bool {
	if key == nil || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := arg.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != key {
			return false
		}
	}
	return true
}

// orderedSink recognizes calls that emit ordered output: methods of
// builders/buffers/tables (WriteString, WriteByte, WriteRune, Write,
// AddRow) and the fmt.Fprint family.
func orderedSink(pass *driver.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name(), true
		}
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return "", false
	}
	switch fn.Name() {
	case "WriteString", "WriteByte", "WriteRune", "Write", "AddRow":
		return fn.Name(), true
	}
	return "", false
}
