package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/experiments"
	"repro/internal/result"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/store/objstore"
	"repro/internal/store/tier"
	"repro/internal/sweep"
)

// tspan is one timed call at a layer boundary. req is the client
// operation it served (0 when no request claimed its fingerprint).
type tspan struct {
	req   int64
	layer string // "serve", "memlru.get", "store.put", "experiments.E5.run", ...
	fp    string
	ok    bool // a Get hit, or a Run without error
	interval
}

// recorder keeps spans in memory. Tier and experiment calls carry no
// request identity, so a span is attributed through its fingerprint:
// while a request is being served it claims the fingerprints it asks
// for (one table, or a sweep's whole grid). No two concurrent requests
// of a workload share a fingerprint, so the attribution is exact.
type recorder struct {
	origin time.Time
	on     atomic.Bool // spans are kept only inside the window

	mu     sync.Mutex
	spans  []tspan
	claims map[string]int64 // fingerprint → op being served
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), claims: map[string]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// record closes a span that started at start. A span for a fingerprint
// is attributed to the request claiming it.
func (r *recorder) record(layer, fp string, req, start int64, ok bool) {
	if !r.on.Load() {
		return
	}
	end := r.now()
	r.mu.Lock()
	if fp != "" {
		req = r.claims[fp]
	}
	r.spans = append(r.spans, tspan{req: req, layer: layer, fp: fp, ok: ok, interval: interval{start, end}})
	r.mu.Unlock()
}

func (r *recorder) claim(fps []string, op int64) {
	r.mu.Lock()
	for _, fp := range fps {
		r.claims[fp] = op
	}
	r.mu.Unlock()
}

func (r *recorder) release(fps []string, op int64) {
	r.mu.Lock()
	for _, fp := range fps {
		if r.claims[fp] == op {
			delete(r.claims, fp)
		}
	}
	r.mu.Unlock()
}

// handler times the whole HTTP handler: the "serve" span of each request.
func (r *recorder) handler(h http.Handler, defaults experiments.Config) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, _ := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
		fps := requestFingerprints(req, defaults)
		r.claim(fps, op)
		start := r.now()
		h.ServeHTTP(w, req)
		r.record("serve", "", op, start, true)
		r.release(fps, op)
	})
}

// requestFingerprints names the tables a request asks for: one for
// GET /tables/{id}, the whole grid for POST /sweep.
func requestFingerprints(req *http.Request, defaults experiments.Config) []string {
	q := req.URL.Query()
	if id, ok := strings.CutPrefix(req.URL.Path, "/tables/"); ok {
		cfg := defaults
		if v, err := strconv.ParseUint(q.Get("seed"), 10, 64); err == nil {
			cfg.Seed = v
		}
		if v, err := strconv.ParseBool(q.Get("quick")); err == nil {
			cfg.Quick = v
		}
		return []string{cfg.Fingerprint(id)}
	}
	if req.URL.Path == "/sweep" {
		spec, err := sweep.ParseQuery(q)
		if err != nil {
			return nil
		}
		var fps []string
		for _, c := range spec.Cells() {
			fps = append(fps, experiments.Config{Seed: c.Seed, Quick: c.Quick}.Fingerprint(c.ID))
		}
		return fps
	}
	return nil
}

// tracedBackend times one tier's Get and Put from outside.
type tracedBackend struct {
	store.Backend
	rec   *recorder
	layer string
}

func (b tracedBackend) Get(ctx context.Context, k store.Key) (*result.Table, bool) {
	start := b.rec.now()
	t, ok := b.Backend.Get(ctx, k)
	b.rec.record(b.layer+".get", k.Fingerprint, 0, start, ok)
	return t, ok
}

func (b tracedBackend) Put(k store.Key, t *result.Table) error {
	start := b.rec.now()
	err := b.Backend.Put(k, t)
	b.rec.record(b.layer+".put", k.Fingerprint, 0, start, err == nil)
	return err
}

// registry times every experiment's Run.
func (r *recorder) registry() func() []experiments.Experiment {
	exps := experiments.All()
	for i := range exps {
		id, run := exps[i].ID, exps[i].Run
		exps[i].Run = func(cfg experiments.Config) (*experiments.Table, error) {
			start := r.now()
			t, err := run(cfg)
			r.record("experiments."+id+".run", cfg.Fingerprint(id), 0, start, err == nil)
			return t, err
		}
	}
	return func() []experiments.Experiment { return exps }
}

// inproc is the serving stack assembled in this process with bccserve's
// default settings, every layer boundary timed.
type inproc struct {
	url   string
	hs    *http.Server
	serve chan error
}

// Defaults mirrored from cmd/bccserve's flags.
const (
	defaultSeed     = 2019
	defaultParallel = 2
	defaultQueue    = 16
)

// startTraced assembles L0 memory, L1 disk and L2 bucket under dir the
// way tier.NewStack does for bccserve, then recomposes the same three
// tier objects, each wrapped in a timer, and serves the stack on a
// loopback port.
func startTraced(dir string, rec *recorder) (*inproc, error) {
	breakers := breaker.NewSet(breaker.Options{Failures: 5, Cooldown: 10 * time.Second})
	st, err := tier.NewStack(tier.Config{
		MemCapacity:        memCapacity,
		Dir:                filepath.Join(dir, "store"),
		ObjstoreDir:        filepath.Join(dir, "bucket"),
		ObjstorePutTimeout: objstore.DefaultPutTimeout,
		Breakers:           breakers,
	})
	if err != nil {
		return nil, err
	}
	st.Tiered = tier.New(
		tracedBackend{st.Mem, rec, "memlru"},
		tracedBackend{st.Disk, rec, "store"},
		tracedBackend{st.Obj, rec, "objstore"},
	)
	st.Backend = st.Tiered
	workers := max(1, runtime.GOMAXPROCS(0)/defaultParallel)
	srv := &serve.Server{
		Sched:    sched.New(st.Backend, defaultParallel, sched.WithQueue(defaultQueue)),
		Stack:    st,
		Registry: rec.registry(),
		Seed:     defaultSeed,
		Workers:  workers,
		Breakers: breakers,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defaults := experiments.Config{Seed: defaultSeed}
	p := &inproc{
		url: "http://" + ln.Addr().String(),
		hs: &http.Server{
			Handler:           rec.handler(srv.Handler(), defaults),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		serve: make(chan error, 1),
	}
	go func() { p.serve <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if p.hs.Shutdown(ctx) != nil {
		p.hs.Close()
	}
	<-p.serve
}

// traced is the per-layer pass.
type traced struct {
	win    window
	e2e    endToEnd
	layers []metric
	bad    []string
}

// tracedPass runs the workload once against the in-process stack.
func (r *run) tracedPass(ctx context.Context) (traced, error) {
	var tr traced
	dir := filepath.Join(r.scratch, "traced")
	if err := os.RemoveAll(dir); err != nil {
		return tr, err
	}
	rec := newRecorder()
	p, err := startTraced(dir, rec)
	if err != nil {
		return tr, err
	}
	defer p.stop()
	if err := r.ready(ctx, p.url); err != nil {
		return tr, fmt.Errorf("traced set-up: %w", err)
	}
	var m0, m1 runtime.MemStats
	var enc0, enc1 uint64
	win, err := r.measure(ctx, p.url, hooks{
		before: func() {
			runtime.ReadMemStats(&m0)
			enc0 = result.Encodes()
			rec.on.Store(true)
		},
		after: func() {
			rec.on.Store(false)
			enc1 = result.Encodes()
			runtime.ReadMemStats(&m1)
		},
	})
	if err != nil {
		return tr, err
	}
	tr.win, tr.e2e, tr.bad = win, r.endToEnd(win), r.regime(win)
	ops := float64(max(1, win.ops()))
	tr.layers = layerMetrics(rec, win)
	tr.layers = append(tr.layers,
		metric{name: "result.encodes_per_op", value: float64(enc1-enc0) / ops, count: win.ops()},
		metric{name: "go.allocs_per_op", value: float64(m1.Mallocs-m0.Mallocs) / ops, count: win.ops()},
		metric{name: "go.bytes_per_op", value: float64(m1.TotalAlloc-m0.TotalAlloc) / ops, count: win.ops()},
	)
	return tr, nil
}

// layerStat accumulates one layer's spans.
type layerStat struct {
	count, hits int
	total       int64 // ns
}

func (s layerStat) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

// layerMetrics turns the window's spans into the per-layer metrics.
func layerMetrics(rec *recorder, win window) []metric {
	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()

	stats := map[string]*layerStat{}
	children := map[int64][]interval{}
	serveDur := map[int64]int64{}
	runMS := map[string]float64{} // fingerprint → Run duration
	var runTotal int64
	for _, s := range spans {
		st := stats[s.layer]
		if st == nil {
			st = &layerStat{}
			stats[s.layer] = st
		}
		st.count++
		st.total += s.end - s.start
		if s.ok {
			st.hits++
		}
		switch {
		case s.layer == "serve":
			serveDur[s.req] = s.end - s.start
		case s.req != 0:
			children[s.req] = append(children[s.req], s.interval)
		}
		if strings.HasPrefix(s.layer, "experiments.") {
			runMS[s.fp] = float64(s.end-s.start) / 1e6
			runTotal += s.end - s.start
		}
	}
	get := func(layer string) layerStat {
		if st := stats[layer]; st != nil {
			return *st
		}
		return layerStat{}
	}

	// Self time: each handler span minus what its tier and experiment
	// spans cover.
	var selfSum int64
	selfN := 0
	for _, s := range spans {
		if s.layer == "serve" && s.req != 0 {
			selfSum += selfTime(s.interval, children[s.req])
			selfN++
		}
	}
	// Transport: client latency minus handler time, per GET.
	var transSum int64
	transN := 0
	for _, s := range win.gets.samples {
		if d, ok := serveDur[s.op]; ok && s.ok {
			transSum += (s.end - s.start) - d
			transN++
		}
	}
	// Scheduler: queue and lookup wait per computed cell, and how full
	// the parallel slots were across the grids.
	var waitSum float64
	waitN := 0
	for _, row := range win.sweeps.rows {
		if ms, ok := runMS[row.Fingerprint]; ok && row.Status == "computed" {
			waitSum += row.LatencyMS - ms
			waitN++
		}
	}
	var gridNS int64
	for _, g := range win.sweeps.grids {
		gridNS += g.end - g.start
	}
	ops := max(1, win.ops())
	mem := get("memlru.get")
	out := []metric{
		{name: "http.transport_us", value: meanOf(float64(transSum)/1e3, transN), count: transN},
		{name: "serve.self_us", value: meanOf(float64(selfSum)/1e3, selfN), count: selfN},
		{name: "memlru.get_us", value: mem.meanUS(), count: mem.count},
		{name: "memlru.hit_ratio", value: meanOf(float64(mem.hits), mem.count), count: mem.count},
		{name: "memlru.put_us", value: get("memlru.put").meanUS(), count: get("memlru.put").count},
		{name: "store.get_us", value: get("store.get").meanUS(), count: get("store.get").count},
		{name: "store.gets_per_op", value: float64(get("store.get").count) / float64(ops), count: ops},
		{name: "store.put_us", value: get("store.put").meanUS(), count: get("store.put").count},
		{name: "objstore.get_us", value: get("objstore.get").meanUS(), count: get("objstore.get").count},
		{name: "objstore.put_us", value: get("objstore.put").meanUS(), count: get("objstore.put").count},
	}
	for _, id := range allIDs() {
		st := get("experiments." + id + ".run")
		out = append(out, metric{name: "experiments." + id + ".run_ms", value: st.meanUS() / 1e3, count: st.count})
	}
	slotUtil := 0.0
	if gridNS > 0 {
		slotUtil = float64(runTotal) / (float64(gridNS) * defaultParallel)
	}
	out = append(out,
		metric{name: "sched.wait_ms", value: meanOf(waitSum, waitN), count: waitN},
		metric{name: "sched.slot_util", value: slotUtil, count: len(win.sweeps.grids)},
		metric{name: "sched.compute_ratio", value: float64(win.computed) / float64(ops), count: ops},
	)
	return out
}

// meanOf is sum/n, or 0 for no samples.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
