// Command perfbench is the repository's serving benchmark. It runs each
// workload against bccserve on loopback, checks every answer, and prints
// a report per workload whose last line is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see workload.go):
//
//	tier_churn  192 cheap quick-mode tables, three times L0, requested
//	            cyclically over one keep-alive connection: every answer
//	            an L1 disk hit plus an L0 backfill.
//	cold_sweep  POST /sweep grids of all 20 ids at a fresh seed each,
//	            back to back on one connection, every cell computed; a
//	            second connection reads hot tables meanwhile.
//
// With -trace 0 the metrics are the end-to-end ones, measured against
// the bccserve binary as a child process. With -trace 1 the same
// untraced pass runs first, then a traced pass against the same stack
// assembled in this process with every layer boundary timed from
// outside (tiers as store.Backend, each Experiment.Run, the
// http.Handler); the metrics are then the per-layer ones, and the report
// prints the traced pass's ops_per_s and p50_ms next to the untraced
// pass's, which is the cost of tracing.
//
// Run it through run.sh, which builds both binaries from the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := benchmark(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// benchmark parses flags, runs the workloads, and returns the exit code:
// 0 when every check passed, 1 on a correctness failure or regime
// violation (the result line is still printed), 2 when a run could not
// be carried out, 130 when interrupted (no result line).
func benchmark(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload: tier_churn, cold_sweep, or all of them in turn")
	seed := fs.Uint64("seed", 1, "workload seed; every table seed derives from it")
	seconds := fs.Int("seconds", 35, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: add the traced in-process pass and report per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bccserve", "", "bccserve binary built from the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	if *seconds < 1 || *trace != 0 && *trace != 1 || *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds ≥ 1, -trace 0|1 and -bccserve")
		return 2
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	removeStale(base)
	scratch := filepath.Join(base, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(scratch)
	worst := 0
	for _, w := range ws {
		r := &run{
			w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
			bin:     *bin,
			scratch: filepath.Join(scratch, w.name),
		}
		if err := os.MkdirAll(r.scratch, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		code, err := r.execute(ctx, *trace == 1, *root, stdout)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "perfbench: interrupted")
				return 130
			}
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		worst = max(worst, code)
	}
	return worst
}

// removeStale deletes run directories left by runs that no longer exist
// (a run killed outright cannot clean up after itself; its server died
// with it).
func removeStale(base string) {
	dirs, _ := filepath.Glob(filepath.Join(base, "run-*"))
	for _, d := range dirs {
		pid := strings.TrimPrefix(filepath.Base(d), "run-")
		if _, err := os.Stat("/proc/" + pid); os.IsNotExist(err) {
			os.RemoveAll(d)
		}
	}
}

// execute runs the passes and prints the report.
func (r *run) execute(ctx context.Context, withTrace bool, root string, out io.Writer) (int, error) {
	refs, err := references(ctx, r.cells())
	if err != nil {
		return 0, err
	}
	r.refs = refs
	u, err := r.untracedPass(ctx)
	if err != nil {
		return 0, err
	}
	var tr *traced
	if withTrace {
		t, err := r.tracedPass(ctx)
		if err != nil {
			return 0, err
		}
		tr = &t
	}

	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%t\n", r.w.name, r.seed, r.dur.Seconds(), withTrace)
	envJSON, _ := json.Marshal(collectEnv(root, r))
	fmt.Fprintf(out, "env %s\n", envJSON)

	total := u.win.total()
	bad := u.violated
	e2e := r.endToEndMetrics(u)
	fmt.Fprintln(out, "end-to-end (bccserve child process):")
	printMetrics(out, e2e)
	r.printDetail(out, "untraced", u.win, u.e2e, bad)
	metrics := e2e
	if tr != nil {
		t := tr.win.total()
		total.add(t)
		bad = append(bad, tr.bad...)
		fmt.Fprintf(out, "tracing overhead: ops_per_s %.6g traced vs %.6g untraced (×%.3f), p50_ms %.6g traced vs %.6g untraced (×%.3f)\n",
			tr.e2e.opsPerS, u.e2e.opsPerS, ratio(tr.e2e.opsPerS, u.e2e.opsPerS),
			tr.e2e.p50, u.e2e.p50, ratio(tr.e2e.p50, u.e2e.p50))
		r.printDetail(out, "traced", tr.win, tr.e2e, tr.bad)
		metrics = append(tr.layers,
			metric{name: "error_ratio", value: ratio(float64(t.failed), float64(t.attempted)), count: t.attempted},
			metric{name: "trace.ops_per_s", value: tr.e2e.opsPerS, count: tr.win.ops()},
			metric{name: "trace.p50_ms", value: tr.e2e.p50, count: tr.e2e.samples},
			metric{name: "trace.untraced_ops_per_s", value: u.e2e.opsPerS, count: u.win.ops()},
			metric{name: "trace.untraced_p50_ms", value: u.e2e.p50, count: u.e2e.samples},
		)
		fmt.Fprintln(out, "per-layer (traced in-process pass):")
		printMetrics(out, metrics)
	}

	correct := total.failed == 0 && len(bad) == 0
	for _, reason := range total.reasons {
		fmt.Fprintln(out, "FAILED:", reason)
	}
	for _, v := range bad {
		fmt.Fprintln(out, "REGIME VIOLATION:", v)
	}
	if err := writeResult(out, correct, total, metrics); err != nil {
		return 0, err
	}
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// endToEndMetrics are the untraced pass's metrics. p99_ms is left out
// when no slice has ten samples beyond it.
func (r *run) endToEndMetrics(u untraced) []metric {
	e := u.e2e
	ms := []metric{
		{name: "setup_s", value: median(u.setups), count: len(u.setups)},
		{name: "ops_per_s", value: e.opsPerS, count: e.slices},
		{name: "p50_ms", value: e.p50, count: e.latSlices},
	}
	if e.p99ok {
		ms = append(ms, metric{name: "p99_ms", value: e.p99, count: e.latSlices})
	}
	return append(ms,
		metric{name: "grid_s", value: e.gridS, count: e.grids},
		metric{name: "cpu_ms_per_op", value: e.cpuPerOp, count: e.slices},
		metric{name: "maxrss_mb", value: e.peakRSS / 1e6, count: e.slices},
	)
}

// printDetail prints how a pass's traffic went: operations, sources,
// failures and the regime guard.
func (r *run) printDetail(out io.Writer, pass string, win window, e endToEnd, bad []string) {
	t := win.total()
	fmt.Fprintf(out, "  %s: %d operations checked, %d failed, error_ratio %g; answers by source %s\n",
		pass, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)), sources(t.sources))
	if r.w.sweep {
		fmt.Fprintf(out, "  %s: %d grids, %d probe GETs, sched.computed +%d\n",
			pass, len(win.sweeps.grids), len(win.gets.samples), win.computed)
	}
	fmt.Fprintf(out, "  %s: figures are medians over %d slices (%d with latency samples; %d more left out for host steal over %g%%), %d operations in the median slice, %d latency samples in all\n",
		pass, e.slices, e.latSlices, e.stolen, maxSteal*100, e.perSlice, e.samples)
	if !e.p99ok {
		fmt.Fprintf(out, "  %s: no slice has ten samples beyond its p99; p99 not reported\n", pass)
	}
	if len(bad) == 0 {
		fmt.Fprintf(out, "  %s: regime ok\n", pass)
	}
}

func sources(m map[string]int) string {
	var parts []string
	for k, v := range m {
		if k == "" {
			k = "none"
		}
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-28s %14.6g %-6s n=%d\n", m.name, m.value, unitOf(m.name), m.count)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeResult prints the result line the benchmark's caller parses.
func writeResult(out io.Writer, correct bool, t tally, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a number: %v", m.name, m.value)
		}
		metrics[m.name] = value{m.value, unitOf(m.name)}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(1, t.attempted), t.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
