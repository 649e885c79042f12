// Package driver runs bcclint's analyzers. It holds the little of the
// go/analysis model the suite needs — an Analyzer is a name and a Run
// over one type-checked package, reporting positioned messages — and
// Main, which speaks cmd/go's vettool protocol so `go vet -vettool`
// does the package loading, export data and caching:
//
//	-V=full    print the executable's identity, which keys vet's cache
//	-flags     print the tool's flags as JSON; there are none
//	x/vet.cfg  analyze the one package the JSON config describes
//
// The config reader follows vetConfig in cmd/go (internal/work/exec.go).
// Only the gc toolchain's export data is read.
package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
)

// An Analyzer checks one contract over one package at a time.
type Analyzer struct {
	// Name is the analyzer's identity in //bcclint:allow(<name>) waivers.
	Name string
	// Run inspects the package and reports violations through the pass.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one violation: where, and what is wrong.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo returns the type-checker record every Pass carries, with
// each map the analyzers may consult allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:        map[ast.Expr]types.TypeAndValue{},
		Defs:         map[*ast.Ident]types.Object{},
		Uses:         map[*ast.Ident]types.Object{},
		Implicits:    map[ast.Node]types.Object{},
		Instances:    map[*ast.Ident]types.Instance{},
		Scopes:       map[ast.Node]*types.Scope{},
		Selections:   map[*ast.SelectorExpr]*types.Selection{},
		FileVersions: map[*ast.File]string{},
	}
}

// config is the part of cmd/go's per-package vet config the driver reads.
type config struct {
	ImportPath  string            // package path
	GoVersion   string            // language version, such as "go1.22"
	GoFiles     []string          // absolute paths of the package's Go files
	ImportMap   map[string]string // import path in source -> package path
	PackageFile map[string]string // package path -> export data file
	VetxOnly    bool              // a dependency's run: facts only, no diagnostics
	VetxOutput  string            // where to write the (empty) facts file
}

// Main is the vettool entry point: it answers cmd/go's protocol
// queries, or analyzes the package of one config file with every
// analyzer in registration order, printing diagnostics to stderr as
// file:line:col: message. It exits 1 if anything was reported or the
// package failed to load, 0 otherwise.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(run(args[0], analyzers))
	default:
		log.Fatalf("run me through the go command: go vet -vettool=$(which %s) [packages]", progname)
	}
}

// printVersion prints the line cmd/go parses from -V=full: a devel
// version whose buildID is the executable's content hash, so vet's
// cache turns over exactly when the tool changes.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", exe, h.Sum(nil))
}

// run analyzes the package described by the config file and returns
// the exit code.
func run(cfgFile string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		log.Fatalf("package has no files: %s", cfg.ImportPath)
	}
	// The analyzers derive no facts, so the facts file cmd/go caches for
	// the packages importing this one is empty, and a dependency's run
	// (VetxOnly) has nothing more to do.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatalf("failed to export analysis facts: %v", err)
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			log.Fatal(err)
		}
		files = append(files, f)
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return gc.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		log.Fatal(err)
	}

	exit := 0
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
				exit = 1
			},
		})
	}
	return exit
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
