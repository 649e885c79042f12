// Package missdegrade mechanizes the tier degradation contract
// (ARCHITECTURE.md: "every failure is a miss"): a store tier — disk,
// memory, shared bucket, HTTP peer, or their composition — degrades,
// it never fails a lookup and never takes the process down. Concretely,
// in the store packages:
//
//   - no exported function or method may return a *result.Table
//     together with an error. The tier boundary's shape is
//     (table, bool): transport errors, damage, and timeouts all
//     collapse to a miss before they cross it. A (table, error)
//     signature is a raw transport error waiting to leak past the
//     boundary. Unexported helpers may carry errors — they live
//     inside the boundary, where Get folds them into a miss;
//   - no panic on the serving path — a damaged envelope or a hung
//     bucket must degrade the lookup, not crash the replica. The rare
//     construction-time misconfiguration guard (unreachable once a
//     tier is serving) carries a reasoned //bcclint:allow(missdegrade)
//     directive;
//   - no log.Fatal* / os.Exit — same contract, stronger failure.
//
// The ObjectClient layer sits *below* the boundary (its Get/Put return
// ([]byte, error) by design); only table-shaped results are gated.
package missdegrade

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/bcc"
	"repro/internal/analysis/driver"
)

// coveredPkgs are the tier implementations bound by the degradation
// contract.
var coveredPkgs = []string{
	"internal/store",
	"internal/store/memlru",
	"internal/store/objstore",
	"internal/store/tier",
}

// Analyzer makes store tiers degrade to a miss, never fail or die: it
// forbids (*result.Table, error) signatures, panic, log.Fatal, and
// os.Exit in the store packages.
var Analyzer = &driver.Analyzer{Name: "missdegrade", Run: run}

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
			case *ast.FuncDecl:
				checkSignature(pass, allow, n)
			case *ast.CallExpr:
				checkCall(pass, allow, n)
			}
			return true
		})
	}
}

// checkSignature flags any exported function or method whose results
// carry both a *result.Table and an error — the shape that lets a raw
// transport error cross the tier boundary.
func checkSignature(pass *driver.Pass, allow *bcc.Allower, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	var hasTable, hasErr bool
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if isResultTable(t) {
			hasTable = true
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			hasErr = true
		}
	}
	if hasTable && hasErr {
		allow.Reportf(fd.Name.Pos(),
			"%s returns a table and an error: the tier boundary is (table, bool) — a transport failure must degrade to a miss, never propagate raw",
			fd.Name.Name)
	}
}

func isResultTable(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Table" && obj.Pkg() != nil &&
		bcc.PathMatches(obj.Pkg().Path(), "internal/result")
}

func checkCall(pass *driver.Pass, allow *bcc.Allower, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			allow.Reportf(call.Pos(),
				"panic in a store tier: a tier degrades to a miss, it never takes the serving path down")
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		switch {
		case fn.Pkg().Path() == "log" && (fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"),
			fn.Pkg().Path() == "os" && fn.Name() == "Exit":
			allow.Reportf(call.Pos(),
				"%s.%s in a store tier: a tier degrades to a miss, it never takes the process down",
				fn.Pkg().Name(), fn.Name())
		}
	}
}
