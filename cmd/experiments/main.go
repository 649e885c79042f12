// Command experiments regenerates the paper-reproduction tables
// (E1..E18, the internal/experiments registry), printing each as
// GitHub-flavoured markdown (default) or newline-delimited canonical
// JSON (-format json, one table object per line — the schema served by
// cmd/bccserve).
//
// With -store DIR the run goes through the content-addressed result
// store: tables whose fingerprint (experiment id, seed, quick, schema
// version) is already cached are served from disk without recomputing,
// and fresh computations are persisted for every later run — including
// the bccserve HTTP server pointed at the same directory. -store
// defaults to the BCC_STORE environment variable, so repeated local
// sweeps and benchmark runs amortize against one shared corpus without
// repeating the flag.
//
// The store can be tiered like the server's: -mem N puts an in-memory
// hot table in front of the directory (useful when one sweep revisits
// ids), and -objstore DIR reads and writes the fleet's shared bucket
// before computing anything locally — a sweep against a warm fleet's
// bucket costs object reads, not estimator runs.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-workers N] [-only E7[,E8,...]]
//	            [-format md|json] [-store DIR] [-mem N] [-objstore DIR]
//	            [-o FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/store/tier"
)

// registry is swapped by tests to count estimator invocations.
var registry = experiments.All

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced trial counts (wider error bars)")
	seed := fs.Uint64("seed", 2019, "master random seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"goroutine pool size for the measurement engines (tables are identical for any value)")
	only := fs.String("only", "", "comma-separated experiment ids to run (default: all)")
	format := fs.String("format", "md", "output format: md (markdown) or json (one canonical table per line)")
	storeDir := fs.String("store", os.Getenv("BCC_STORE"),
		"result-store directory: serve cached tables and persist fresh ones (default $BCC_STORE)")
	memSize := fs.Int("mem", 0, "in-memory hot-table LRU capacity in tables (0 disables)")
	memBytes := fs.Int64("mem-bytes", 0, "approximate byte cap for the in-memory LRU (0: entries-only)")
	objDir := fs.String("objstore", "", "shared object-store directory (the fleet's writable shared tier; a shared volume path)")
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "md" && *format != "json" {
		return fmt.Errorf("unknown format %q (want md or json)", *format)
	}

	w := stdout
	if *outPath != "" {
		file, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	// The same memory → disk → objstore assembly bccserve serves from.
	stack, err := tier.NewStack(tier.Config{
		MemCapacity: *memSize, MemMaxBytes: *memBytes,
		Dir: *storeDir, ObjstoreDir: *objDir,
	})
	if err != nil {
		return err
	}
	scheduler := sched.New(stack.Backend, 1)

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Workers: *workers}
	ran := 0
	for _, e := range registry() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		table, _, err := scheduler.Table(e, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *format == "json" {
			err = table.EncodeJSON(w)
		} else {
			err = table.Render(w)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", *only)
	}
	return nil
}
