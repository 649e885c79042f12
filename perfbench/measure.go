package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sliceLen splits a GET window into slices; end-to-end figures are
// medians over slices, so a burst of noise from outside the benchmark
// moves one slice, not the result. The sweep workload's slices are its
// grids.
const sliceLen = time.Second

// run holds one benchmark invocation's inputs.
type run struct {
	w        workload
	seed     uint64
	dur      time.Duration
	bin      string // the bccserve binary
	scratch  string // per-run directory for stores and buckets
	refs     map[string][]byte
	ops      atomic.Int64 // operation ids, unique across the run
	lastArgs []string     // the measured server's command line
}

// cells is what the run's references cover: the GET working set, or
// the sweep workload's first grid (the one its probe reads and its
// cached=only check fetches).
func (r *run) cells() []cell {
	if r.w.sweep {
		return gridCells(r.w.grid(r.seed, 0))
	}
	return gridCells(r.w.workingSet(r.seed))
}

// setupReps is how many times a run sets the server up; setup_s is the
// median. Sweep set-up is only a process start, so it repeats more.
func (r *run) setupReps() int {
	if r.w.sweep {
		return 31
	}
	return 3
}

// ready brings a server at base to the workload's starting state: it
// answers /healthz and, for tier_churn, holds the whole working
// set (computed through one priming sweep). The sweep workload starts
// on an empty store.
func (r *run) ready(ctx context.Context, base string) error {
	if err := healthy(ctx, base); err != nil {
		return err
	}
	if r.w.sweep {
		return nil
	}
	return prime(ctx, base, r.w.workingSet(r.seed), &r.ops)
}

// mark is a slice boundary: when it fell (ns since the window's origin),
// the host's stolen CPU time so far and, against the bccserve child, its
// CPU time so far and its peak RSS since the previous mark.
type mark struct {
	at      int64
	steal   time.Duration
	cpu     time.Duration
	peakRSS int64
}

// maxSteal is the share of a slice's CPU capacity the hypervisor may
// steal before the slice is left out of the medians: such a slice times
// the neighbours on the host, not the program. On a 2-CPU host, slices
// with 1.5% or more stolen showed a p99 half again as long.
const maxSteal = 0.01

// window is one measured stretch of load and what was checked after it.
type window struct {
	gets     getLoad   // the GET load, or cold_sweep's hot-read probe
	sweeps   sweepLoad // cold_sweep only
	marks    []mark    // slice boundaries
	verify   tally     // cold_sweep: the first grid re-read with cached=only
	computed uint64    // sched.computed delta across the window
}

// hooks, each optional, run at the window's edges, right before the
// first request and right after the last response; read fills a mark's
// process readings.
type hooks struct {
	before, after func()
	read          func(*mark) error
}

// measure drives the workload against base for r.dur and checks every
// answer.
func (r *run) measure(ctx context.Context, base string, h hooks) (window, error) {
	var win window
	c0, err := computedCount(ctx, base)
	if err != nil {
		return win, err
	}
	if h.before != nil {
		h.before()
	}
	origin := time.Now()
	var readErr error
	addMark := func() {
		m := mark{at: int64(time.Since(origin)), steal: stealTime()}
		if h.read != nil {
			readErr = firstErr(readErr, h.read(&m))
		}
		win.marks = append(win.marks, m)
	}
	addMark()
	if !r.w.sweep {
		stop, ticked := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ticked)
			t := time.NewTicker(sliceLen)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					addMark()
				case <-stop:
					return
				}
			}
		}()
		timeUp := make(chan struct{})
		deadline := time.AfterFunc(r.dur, func() { close(timeUp) })
		win.gets = runGets(ctx, base, r.cells(), r.refs, origin, 0, timeUp, &r.ops)
		deadline.Stop()
		close(stop)
		<-ticked
	} else {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		win.sweeps = runSweeps(ctx, base, r.w, r.seed, origin, r.dur, &r.ops, func(g int) {
			addMark()
			if g == 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					win.gets = runGets(ctx, base, r.cells(), r.refs, origin, probeThink, stop, &r.ops)
				}()
			}
		})
		close(stop)
		wg.Wait()
	}
	if h.after != nil {
		h.after()
	}
	if err := firstErr(ctx.Err(), readErr); err != nil {
		return win, err
	}
	c1, err := computedCount(ctx, base)
	if err != nil {
		return win, err
	}
	win.computed = c1 - c0
	if r.w.sweep {
		win.verify = fetchCachedOnly(ctx, base, r.cells(), r.refs, &r.ops)
	}
	return win, nil
}

// ops is the window's operation count: GETs, or sweep cells.
func (win window) ops() int {
	if win.sweeps.grids != nil {
		return win.sweeps.attempted
	}
	return win.gets.attempted
}

// total merges every check of the window: failed or incorrect
// operations against those attempted.
func (win window) total() tally {
	var t tally
	t.add(win.gets.tally)
	t.add(win.sweeps.tally)
	t.add(win.verify)
	return t
}

// passTimes is, per complete pass over a working set of n cells, the
// seconds from its first request out to its last answer in.
func passTimes(ss []sample, n int) []float64 {
	type pass struct {
		lo, hi int64
		count  int
	}
	passes := map[int]*pass{}
	for _, s := range ss {
		p := passes[s.pos/n]
		if p == nil {
			p = &pass{lo: s.start, hi: s.end}
			passes[s.pos/n] = p
		}
		p.lo, p.hi, p.count = min(p.lo, s.start), max(p.hi, s.end), p.count+1
	}
	var out []float64
	for _, p := range passes {
		if p.count == n {
			out = append(out, float64(p.hi-p.lo)/1e9)
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd is the user-visible side of one window: each figure is the
// median over the window's slices.
type endToEnd struct {
	opsPerS   float64
	p50, p99  float64 // ms
	p99ok     bool    // some slice had ten samples beyond its p99
	samples   int     // latency samples in the window
	gridS     float64
	grids     int     // grids or passes behind gridS
	cpuPerOp  float64 // ms; 0 without process readings
	peakRSS   float64 // bytes; 0 without process readings
	slices    int     // slices behind the medians
	stolen    int     // slices left out for host steal
	perSlice  int     // median operations per slice
	latSlices int     // slices with enough samples for p50
}

func (r *run) endToEnd(win window) endToEnd {
	e := endToEnd{samples: len(win.gets.samples)}
	var opsPerS, p50s, p99s, cpus, rss, counts, grids []float64
	if r.w.sweep {
		for _, g := range win.sweeps.grids {
			grids = append(grids, float64(g.end-g.start)/1e9)
		}
	} else {
		grids = passTimes(win.gets.samples, len(r.cells()))
	}
	cellsPerGrid := len(r.cells())
	keep := calmSlices(win.marks)
	e.stolen = len(win.marks) - 1 - len(keep)
	for _, i := range keep {
		lo, hi := win.marks[i].at, win.marks[i+1].at
		var ok, failed []float64
		for _, s := range win.gets.samples {
			if s.start >= lo && s.start < hi {
				if s.ok {
					ok = append(ok, s.latencyMS())
				} else {
					failed = append(failed, s.latencyMS())
				}
			}
		}
		n := len(ok) + len(failed)
		if r.w.sweep {
			n = cellsPerGrid
		}
		secs := float64(hi-lo) / 1e9
		opsPerS = append(opsPerS, float64(n)/secs)
		counts = append(counts, float64(n))
		if v, supported := percentile(ok, failed, 0.50); supported {
			p50s = append(p50s, v)
		}
		if v, supported := percentile(ok, failed, 0.99); supported {
			p99s = append(p99s, v)
		}
		if n > 0 {
			cpus = append(cpus, float64((win.marks[i+1].cpu-win.marks[i].cpu).Microseconds())/1e3/float64(n))
		}
		rss = append(rss, float64(win.marks[i+1].peakRSS))
	}
	e.slices, e.latSlices = len(opsPerS), len(p50s)
	e.opsPerS, e.perSlice = median(opsPerS), int(median(counts))
	e.p50, e.p99, e.p99ok = median(p50s), median(p99s), len(p99s) > 0
	e.gridS, e.grids = median(grids), len(grids)
	e.cpuPerOp, e.peakRSS = median(cpus), median(rss)
	return e
}

// calmSlices lists the slices (by their first mark) in which the host
// stole at most maxSteal of the CPU capacity, or, when fewer than a
// quarter are that calm, the quarter from which it stole least.
func calmSlices(marks []mark) []int {
	n := len(marks) - 1
	if n < 1 {
		return nil
	}
	stolen := func(i int) float64 {
		wall := float64(marks[i+1].at - marks[i].at)
		return float64(marks[i+1].steal-marks[i].steal) / (wall * float64(runtime.NumCPU()))
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen(order[a]) < stolen(order[b]) })
	keep := 0
	for keep < n && stolen(order[keep]) <= maxSteal {
		keep++
	}
	keep = max(keep, (n+3)/4)
	calm := order[:keep]
	sort.Ints(calm)
	return calm
}

// regime lists how the window's traffic left the workload's regime:
// tier_churn must be answered from disk only, and every cold_sweep cell
// must be computed, its probe reading memory only.
func (r *run) regime(win window) []string {
	var bad []string
	wantTier := r.w.tier
	if r.w.sweep {
		wantTier = "memory"
		for status, n := range win.sweeps.sources {
			if status != "computed" && n > 0 {
				bad = append(bad, fmt.Sprintf("%d sweep cells %s, want every cell computed", n, status))
			}
		}
		if cells := uint64(win.sweeps.attempted); win.computed != cells {
			bad = append(bad, fmt.Sprintf("sched.compute_ratio %d/%d, want 1.0", win.computed, cells))
		}
	}
	for tier, n := range win.gets.sources {
		if tier != wantTier && n > 0 {
			bad = append(bad, fmt.Sprintf("%d GETs answered by tier %q, want %q", n, tier, wantTier))
		}
	}
	sort.Strings(bad)
	return bad
}

// untraced is the end-to-end pass against the bccserve binary.
type untraced struct {
	setups   []float64 // seconds, one per set-up
	win      window
	e2e      endToEnd
	violated []string
}

// untracedPass sets bccserve up setupReps times (each from exec to a
// primed, ready server on fresh directories), keeps the last one, and
// measures the window against it.
func (r *run) untracedPass(ctx context.Context) (untraced, error) {
	var u untraced
	var srv *child
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < r.setupReps(); i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		dir := filepath.Join(r.scratch, fmt.Sprintf("untraced-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return u, err
		}
		args := serverArgs(dir)
		start := time.Now()
		c, err := startServer(ctx, r.bin, args)
		if err != nil {
			return u, err
		}
		srv = c
		if err := r.ready(ctx, c.url); err != nil {
			return u, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		u.setups = append(u.setups, time.Since(start).Seconds())
		r.lastArgs = args
	}
	read := func(m *mark) error {
		var err1, err2 error
		m.cpu, err1 = srv.cpuTime()
		m.peakRSS, err2 = srv.peakRSS()
		return firstErr(firstErr(err1, err2), srv.resetPeakRSS())
	}
	win, err := r.measure(ctx, srv.url, hooks{read: read})
	if err != nil {
		return u, fmt.Errorf("reading bccserve: %w", err)
	}
	u.win = win
	u.e2e = r.endToEnd(win)
	u.violated = r.regime(win)
	return u, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
