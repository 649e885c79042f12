package main

import (
	"bufio"
	"bytes"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/atest"
)

// TestVettoolSelfCheck builds the real binary and drives it through
// `go vet -vettool` over the testdata/selfcheck module — the same
// self-check CI runs. A clean covered package must pass (the positive
// control: the tool is not failing on everything), and the package
// with the seeded time.Now violation must fail with that diagnostic
// (the negative control: a silently-broken vettool cannot rot green).
func TestVettoolSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "bcclint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bcclint: %v\n%s", err, out)
	}
	selfcheck, err := filepath.Abs(filepath.Join("testdata", "selfcheck"))
	if err != nil {
		t.Fatal(err)
	}

	control := exec.Command("go", "vet", "-vettool="+bin, "./internal/result/")
	control.Dir = selfcheck
	if out, err := control.CombinedOutput(); err != nil {
		t.Fatalf("positive control: vettool failed on a clean covered package: %v\n%s", err, out)
	}

	seeded := exec.Command("go", "vet", "-vettool="+bin, "./internal/dist/")
	seeded.Dir = selfcheck
	out, err := seeded.CombinedOutput()
	if err == nil {
		t.Fatalf("seeded violation passed the vettool; self-check is broken:\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now in a fingerprint-feeding package") {
		t.Fatalf("seeded violation failed for the wrong reason:\n%s", out)
	}
}

// TestVettoolFixtures drives every analyzer's fixture tree through the
// real binary and `go vet -vettool`, not the in-process harness: each
// testdata/src/repro tree becomes a module of its own, and the
// diagnostics go vet prints must be exactly the tree's // want set.
// All analyzers run on every tree, so a fixture that trips a
// neighbouring analyzer fails here too.
func TestVettoolFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and shells out to go vet")
	}
	trees, err := filepath.Glob(filepath.Join("..", "..", "internal", "analysis", "*", "testdata", "src", "repro"))
	if err != nil || len(trees) == 0 {
		t.Fatalf("no fixture trees found (%v)", err)
	}
	bin := filepath.Join(t.TempDir(), "bcclint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bcclint: %v\n%s", err, out)
	}
	for _, tree := range trees {
		name := filepath.Base(filepath.Dir(filepath.Dir(filepath.Dir(tree))))
		t.Run(name, func(t *testing.T) {
			mod := t.TempDir()
			copyTree(t, tree, mod)
			if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
			vet.Dir = mod
			var stderr bytes.Buffer
			vet.Stderr = &stderr
			if err := vet.Run(); err == nil {
				t.Errorf("go vet exited 0 over a tree of seeded violations")
			}
			atest.CheckTree(t, mod, parseVetOutput(t, mod, stderr.Bytes()))
		})
	}
}

var diagLine = regexp.MustCompile(`^(.+):(\d+):(\d+): (.+)$`)

// parseVetOutput reads go vet's stderr: a "# <package>" header before
// each package's diagnostics, then one file:line:col: message line per
// diagnostic, with file relative to dir. Any other line fails the test.
func parseVetOutput(t *testing.T, dir string, out []byte) []atest.Finding {
	t.Helper()
	var found []atest.Finding
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			continue
		}
		m := diagLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unexpected go vet output line %q in:\n%s", line, out)
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		found = append(found, atest.Finding{
			Pos:     token.Position{Filename: filepath.Join(dir, m[1]), Line: lineNo, Column: col},
			Message: m[4],
		})
	}
	return found
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
