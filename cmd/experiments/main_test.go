package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/result"
)

// TestMain strips BCC_STORE from the environment so the hermetic tests
// below never leak into (or read from) a developer's shared corpus;
// TestBCCStoreEnvSelectsStore opts back in with t.Setenv.
func TestMain(m *testing.M) {
	os.Unsetenv("BCC_STORE")
	os.Exit(m.Run())
}

// cheapID returns the experiment the CLI tests exercise: the exact E5
// enumeration normally, the fast Monte-Carlo E13 under -short (CI race
// runs).
func cheapID() string {
	if testing.Short() {
		return "E13"
	}
	return "E5"
}

func TestRunSingleExperiment(t *testing.T) {
	id := cheapID()
	var sb strings.Builder
	if err := run([]string{"-quick", "-seed", "3", "-only", id}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "### "+id) {
		t.Fatalf("output missing %s table:\n%s", id, out)
	}
	if strings.Contains(out, "### E1 ") {
		t.Fatal("-only did not filter")
	}
}

func TestRunMultipleSelected(t *testing.T) {
	ids := "E5,E13"
	if testing.Short() {
		ids = "E3,E13"
	}
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", ids}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range strings.Split(ids, ",") {
		if !strings.Contains(out, "### "+id) {
			t.Fatalf("missing %s", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-only", "E99"}, &sb); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	id := cheapID()
	path := filepath.Join(t.TempDir(), "out.md")
	var sb strings.Builder
	if err := run([]string{"-quick", "-only", id, "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "### "+id) {
		t.Fatal("file output missing table")
	}
	if sb.Len() != 0 {
		t.Fatal("stdout written despite -o")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunBadFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-format", "xml", "-only", cheapID()}, &sb); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunJSONFormat(t *testing.T) {
	id := cheapID()
	var sb strings.Builder
	if err := run([]string{"-quick", "-seed", "3", "-only", id, "-format", "json"}, &sb); err != nil {
		t.Fatal(err)
	}
	table, err := result.DecodeJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("output is not a canonical table: %v\n%s", err, sb.String())
	}
	if table.ID != id || len(table.Rows) == 0 {
		t.Fatalf("decoded table malformed: id=%s rows=%d", table.ID, len(table.Rows))
	}
}

// TestStoreSkipsRecompute swaps the registry for a counting experiment
// and runs the CLI twice against one store directory: the second run
// must perform zero estimator calls and still print the identical
// table.
func TestStoreSkipsRecompute(t *testing.T) {
	calls := 0
	registry = func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID:    "EX",
			Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				calls++
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)))
				return tab, nil
			},
		}}
	}
	defer func() { registry = experiments.All }()

	dir := t.TempDir()
	var first, second strings.Builder
	if err := run([]string{"-seed", "11", "-store", dir}, &first); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("first run made %d estimator calls, want 1", calls)
	}
	if err := run([]string{"-seed", "11", "-store", dir}, &second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("second run recomputed: %d estimator calls, want 1", calls)
	}
	if first.String() != second.String() {
		t.Fatal("cached rerun printed different bytes")
	}
	// A different seed misses and computes.
	var third strings.Builder
	if err := run([]string{"-seed", "12", "-store", dir}, &third); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("new seed did not compute: %d calls", calls)
	}
}

// syntheticRegistry installs a counting one-experiment registry and
// returns the counter; the caller must run under the returned restore.
func syntheticRegistry(t *testing.T) *int {
	t.Helper()
	calls := new(int)
	registry = func() []experiments.Experiment {
		return []experiments.Experiment{{
			ID:    "EX",
			Title: "synthetic",
			Run: func(cfg experiments.Config) (*experiments.Table, error) {
				*calls++
				tab := &experiments.Table{ID: "EX", Title: "synthetic",
					Claim: "c", Columns: []string{"seed"}, Shape: "holds"}
				tab.AddRow(result.Int(int(cfg.Seed)))
				return tab, nil
			},
		}}
	}
	t.Cleanup(func() { registry = experiments.All })
	return calls
}

// TestBCCStoreEnvSelectsStore: with BCC_STORE set and no -store flag,
// runs share the environment-selected corpus — the second run performs
// zero estimator calls.
func TestBCCStoreEnvSelectsStore(t *testing.T) {
	calls := syntheticRegistry(t)
	t.Setenv("BCC_STORE", t.TempDir())
	var first, second strings.Builder
	if err := run([]string{"-seed", "21"}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "21"}, &second); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("BCC_STORE runs made %d estimator calls, want 1", *calls)
	}
	if first.String() != second.String() {
		t.Fatal("store-backed rerun printed different bytes")
	}
	// An explicit -store overrides the environment.
	var third strings.Builder
	if err := run([]string{"-seed", "21", "-store", t.TempDir()}, &third); err != nil {
		t.Fatal(err)
	}
	if *calls != 2 {
		t.Fatalf("-store override did not compute: %d calls", *calls)
	}
}

// TestObjstoreSkipsLocalCompute: with -objstore pointed at a bucket
// another run has warmed, the CLI reads the table from the bucket and
// performs zero local estimator calls, even over a cold -store.
func TestObjstoreSkipsLocalCompute(t *testing.T) {
	calls := syntheticRegistry(t)
	bucket := t.TempDir()
	var first, second strings.Builder
	if err := run([]string{"-seed", "31", "-store", t.TempDir(), "-objstore", bucket}, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "31", "-store", t.TempDir(), "-objstore", bucket}, &second); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("bucket-backed runs made %d estimator calls, want 1", *calls)
	}
	if first.String() != second.String() || !strings.Contains(second.String(), "### EX") {
		t.Fatalf("bucket-served output differs from the computed one:\n%s\nvs\n%s", first.String(), second.String())
	}
}
