// Package atest is the repository's analysistest: it runs a bcclint
// analyzer over GOPATH-style fixture packages under testdata/src and
// checks the diagnostics against // want comments, the same fixture
// grammar golang.org/x/tools/go/analysis/analysistest uses. Fixtures
// load from source, in process and offline, so an analyzer's tests
// need neither the go command nor export data. CheckTree applies the
// same grammar to diagnostics that come from outside the process: the
// vettool run over a fixture tree (cmd/bcclint's tests).
//
// # Fixture layout and grammar
//
// A fixture package lives at testdata/src/<import/path>/*.go relative
// to the calling test's package directory. Import paths are honored:
// a fixture at testdata/src/repro/internal/store/ typechecks as
// package path "repro/internal/store", which is how fixtures land
// inside an analyzer's covered-package gate, and fixtures may import
// one another by those paths. Standard-library imports resolve
// through the stdlib source importer (offline; cgo disabled).
//
// A diagnostic expectation is a trailing comment on the offending
// line:
//
//	_ = time.Now() // want `time\.Now in a fingerprint-feeding package`
//
// Each quoted or backquoted string is a regexp that must match a
// diagnostic reported on that line; diagnostics with no matching want
// and wants with no matching diagnostic both fail the test.
package atest

import (
	"cmp"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
)

func init() {
	// The stdlib source importer follows go/build's default context;
	// with cgo enabled it would try to run the cgo tool on package net.
	// The pure-Go variants are all the fixtures need.
	build.Default.CgoEnabled = false
}

// Run loads the fixture package at pkgpath (under testdata/src, GOPATH
// layout, relative to the calling test's directory), runs the analyzer
// over it, and compares diagnostics against the fixture's // want
// comments.
func Run(t *testing.T, a *driver.Analyzer, pkgpath string) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		loaded:   map[string]*loadedPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	pkg, err := l.load(pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}

	var found []Finding
	a.Run(&driver.Pass{
		Analyzer:  a,
		Fset:      l.fset,
		Files:     pkg.files,
		Pkg:       pkg.pkg,
		TypesInfo: pkg.info,
		Report: func(d driver.Diagnostic) {
			found = append(found, Finding{Pos: l.fset.Position(d.Pos), Message: d.Message})
		},
	})
	check(t, l.fset, pkg.files, found)
}

// A Finding is a diagnostic resolved to its source position, the form
// the vettool prints (file:line:col: message).
type Finding struct {
	Pos     token.Position
	Message string
}

// CheckTree matches findings against the // want comments of every Go
// file under root: each want must be met by a finding on its line, and
// each finding must meet a want.
func CheckTree(t *testing.T, root string, found []Finding) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check(t, fset, files, found)
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader resolves fixture packages from testdata/src and everything
// else from the standard library source importer. It memoizes so
// diamond imports typecheck against one *types.Package identity.
type loader struct {
	testdata string
	fset     *token.FileSet
	std      types.Importer
	loaded   map[string]*loadedPkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(l.testdata, "src", filepath.FromSlash(path)); isDir(dir) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(pkgpath string) (*loadedPkg, error) {
	if p, ok := l.loaded[pkgpath]; ok {
		return p, nil
	}
	dir := filepath.Join(l.testdata, "src", filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := driver.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(pkgpath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, files: files, info: info}
	l.loaded[pkgpath] = p
	return p, nil
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// want is one expectation: a regexp on a specific file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

var wantRE = regexp.MustCompile("(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// check matches findings against the // want comments of files.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, found []Finding) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				body = strings.TrimSpace(body)
				body, ok = strings.CutPrefix(body, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(body, -1) {
					text := q
					if q[0] == '"' {
						var err error
						if text, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, q, err)
						}
					} else {
						text = strings.Trim(q, "`")
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, text, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: text})
				}
			}
		}
	}

	slices.SortStableFunc(found, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	for _, d := range found {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.text)
		}
	}
}
