package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/sweep"
)

// opHeader carries the client's operation id, so the traced run can join
// a client-side latency to the handler span that served it.
const opHeader = "X-Perfbench-Op"

// probeThink is the pause between a response and the next request of
// cold_sweep's hot-read probe: at most 500 GETs per second, a few percent
// of one CPU, and enough samples in one grid's time for a p99 with ten
// samples beyond it.
const probeThink = 2 * time.Millisecond

// sample is one operation as the client saw it. Times are nanoseconds
// since the window's origin.
type sample struct {
	op         int64
	pos        int
	start, end int64
	ok         bool
}

func (s sample) latencyMS() float64 { return float64(s.end-s.start) / 1e6 }

// tally counts a load's operations, failures, and where answers came
// from: X-Cache-Tier for GETs, the row status for sweep cells.
type tally struct {
	attempted, failed int
	sources           map[string]int
	reasons           []string // the first few failure reasons
}

func (t *tally) fail(reason string) {
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.sources == nil {
		t.sources = map[string]int{}
	}
	for k, v := range o.sources {
		t.sources[k] += v
	}
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// client is one keep-alive connection to the server under test.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches one table and checks it: status 200, the X-Fingerprint
// the cell's key names, and a body byte-equal to want. It returns the
// answering tier whatever the outcome.
func (c *client) get(ctx context.Context, op int64, cl cell, query string, want []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+cl.path+query, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	tier := resp.Header.Get("X-Cache-Tier")
	switch {
	case err != nil:
		return tier, fmt.Errorf("%s: reading body: %w", cl.path, err)
	case resp.StatusCode != http.StatusOK:
		return tier, fmt.Errorf("%s: status %d", cl.path, resp.StatusCode)
	case resp.Header.Get("X-Fingerprint") != cl.fp:
		return tier, fmt.Errorf("%s: X-Fingerprint %q, want %q", cl.path, resp.Header.Get("X-Fingerprint"), cl.fp)
	case want == nil || !bytes.Equal(c.buf.Bytes(), want):
		return tier, fmt.Errorf("%s: body differs from the in-process reference", cl.path)
	}
	return tier, nil
}

// sweep POSTs spec and returns its cell rows and summary.
func (c *client) sweep(ctx context.Context, op int64, spec sweep.Spec) ([]sweep.Result, sweep.Summary, error) {
	var sum sweep.Summary
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+sweepPath(spec), nil)
	if err != nil {
		return nil, sum, err
	}
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, sum, fmt.Errorf("POST /sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rows []sweep.Result
	dec := json.NewDecoder(resp.Body)
	for {
		var row struct {
			Cell    *sweep.Result  `json:"cell"`
			Summary *sweep.Summary `json:"summary"`
		}
		if err := dec.Decode(&row); err != nil {
			return rows, sum, fmt.Errorf("POST /sweep: stream ended without a summary: %w", err)
		}
		if row.Cell != nil {
			rows = append(rows, *row.Cell)
		}
		if row.Summary != nil {
			return rows, *row.Summary, nil
		}
	}
}

// checkGrid checks one sweep's rows against the grid it asked for:
// every cell answered once with its fingerprint and a success status,
// and a summary that counts the whole grid. It returns the tally with
// one operation per cell.
func checkGrid(cells []cell, rows []sweep.Result, sum sweep.Summary, err error) tally {
	t := tally{attempted: len(cells), sources: map[string]int{}}
	if err != nil {
		for range cells {
			t.fail(err.Error())
		}
		return t
	}
	want := map[string]bool{}
	for _, c := range cells {
		want[c.fp] = true
	}
	for _, r := range rows {
		t.sources[r.Status]++
		switch {
		case !want[r.Fingerprint]:
			t.fail(fmt.Sprintf("sweep row %s seed %d: unexpected or repeated fingerprint %s", r.ID, r.Seed, r.Fingerprint))
		case r.Status == "error" || r.Status == "timeout" || r.Status == "canceled":
			t.fail(fmt.Sprintf("sweep row %s seed %d: %s %s", r.ID, r.Seed, r.Status, r.Error))
		}
		delete(want, r.Fingerprint)
	}
	for range want {
		t.fail("sweep: a grid cell got no row")
	}
	if sum.Cells != len(cells) {
		t.fail(fmt.Sprintf("sweep summary counts %d cells, grid has %d", sum.Cells, len(cells)))
	}
	return t
}

// getLoad is the result of a GET load: one sample per request.
type getLoad struct {
	samples []sample
	tally
}

// runGets drives one closed-loop connection through seq, cyclically,
// pausing think between a response and the next request, until stop is
// closed.
func runGets(ctx context.Context, base string, seq []cell, refs map[string][]byte, origin time.Time, think time.Duration, stop <-chan struct{}, ops *atomic.Int64) getLoad {
	c := newClient(base)
	defer c.close()
	g := getLoad{tally: tally{sources: map[string]int{}}}
	for pos := 0; ; pos++ {
		select {
		case <-stop:
			return g
		case <-ctx.Done():
			return g
		default:
		}
		cl := seq[pos%len(seq)]
		op := ops.Add(1)
		start := int64(time.Since(origin))
		tier, err := c.get(ctx, op, cl, "", refs[cl.fp])
		end := int64(time.Since(origin))
		g.attempted++
		g.sources[tier]++
		if err != nil {
			g.fail(err.Error())
		}
		g.samples = append(g.samples, sample{op: op, pos: pos, start: start, end: end, ok: err == nil})
		if think > 0 {
			select {
			case <-stop:
				return g
			case <-ctx.Done():
				return g
			case <-time.After(think):
			}
		}
	}
}

// sweepLoad is the result of back-to-back sweeps: one sample per grid
// (POST to summary), every row, and one tallied operation per cell.
type sweepLoad struct {
	grids []sample
	rows  []sweep.Result
	tally
}

// runSweeps POSTs grid after grid on one connection until dur has
// passed since origin; a grid in progress at the deadline completes.
// after(g) runs once grid g's summary has arrived.
func runSweeps(ctx context.Context, base string, w workload, seed uint64, origin time.Time, dur time.Duration, ops *atomic.Int64, after func(g int)) sweepLoad {
	c := newClient(base)
	defer c.close()
	var s sweepLoad
	s.sources = map[string]int{}
	for g := 0; ctx.Err() == nil && time.Since(origin) < dur; g++ {
		spec := w.grid(seed, g)
		op := ops.Add(1)
		start := int64(time.Since(origin))
		rows, sum, err := c.sweep(ctx, op, spec)
		end := int64(time.Since(origin))
		t := checkGrid(gridCells(spec), rows, sum, err)
		s.tally.add(t)
		s.rows = append(s.rows, rows...)
		s.grids = append(s.grids, sample{op: op, pos: g, start: start, end: end, ok: err == nil && t.failed == 0})
		after(g)
	}
	return s
}

// prime computes spec on the server through one sweep: the GET
// workloads' set-up. Every cell must be freshly computed.
func prime(ctx context.Context, base string, spec sweep.Spec, ops *atomic.Int64) error {
	c := newClient(base)
	defer c.close()
	rows, sum, err := c.sweep(ctx, ops.Add(1), spec)
	t := checkGrid(gridCells(spec), rows, sum, err)
	if t.failed > 0 {
		return fmt.Errorf("priming sweep: %s", t.reasons[0])
	}
	if n := t.sources["computed"]; n != len(rows) {
		return fmt.Errorf("priming sweep: %d of %d cells computed, want all (store not empty?)", n, len(rows))
	}
	return nil
}

// healthy waits for GET /healthz to answer 200.
func healthy(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	return nil
}

// computedCount reads sched.computed from GET /stats.
func computedCount(ctx context.Context, base string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Sched struct {
			Computed *uint64 `json:"computed"`
		} `json:"sched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("/stats: %w", err)
	}
	if st.Sched.Computed == nil {
		return 0, errors.New("/stats: no sched.computed")
	}
	return *st.Sched.Computed, nil
}

// fetchCachedOnly GETs each cell with cached=only (the server may not
// compute) and checks it against refs.
func fetchCachedOnly(ctx context.Context, base string, cells []cell, refs map[string][]byte, ops *atomic.Int64) tally {
	c := newClient(base)
	defer c.close()
	t := tally{sources: map[string]int{}}
	for _, cl := range cells {
		t.attempted++
		tier, err := c.get(ctx, ops.Add(1), cl, "&cached=only", refs[cl.fp])
		t.sources[tier]++
		if err != nil {
			t.fail("cached=only " + err.Error())
		}
	}
	return t
}
