// Command bccload drives a running bccserve with concurrent HTTP load
// and reports what the serving path actually sustains: requests per
// second, latency quantiles, the X-Cache/X-Cache-Tier mix, and error
// counts. It exists to turn the store microbenchmarks ("a memory hit is
// ~32ns") into an end-to-end number over real sockets — the load half
// of BENCH_SERVE.json.
//
// Usage:
//
//	bccload [-url http://127.0.0.1:8344[,http://127.0.0.1:8345,...]]
//	        [-c 8] [-duration 10s] [-ids E13,E1] [-seed N] [-quick]
//	        [-format json|md] [-warm] [-json]
//
// -url takes one or more comma-separated base URLs; requests rotate
// round-robin across them, which is how a fleet run is driven — point
// bccload at every replica and the report's per-target section shows
// each replica's X-Served-By and X-Cache-Tier mix (who actually
// answered, and from which tier — the observable proof that the fleet
// behaves as one logical cache).
//
// The target corpus is warmed first (one priming request per id per
// target, so the measured window is the hit path; -warm=false skips it
// to measure cold traffic). With no -ids the generator asks the first
// server's /tables listing and sweeps every registered experiment.
// Workers rotate through the ids round-robin; every response body is
// read in full.
//
// -json emits the machine-readable report on stdout (the CI load-smoke
// leg greps it); the default is a human summary. The exit status is
// non-zero when any request failed, so scripts need no JSON parsing to
// gate on a clean run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sweep"
)

func main() {
	rep, jsonOut, err := cli(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bccload:", err)
		os.Exit(1)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		rep.print(os.Stdout)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "bccload: %d of %d requests failed\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
}

// cli parses args and runs the load; stdout receives progress lines
// (the report itself is the caller's to print).
func cli(args []string, stdout io.Writer) (*Report, bool, error) {
	fs := flag.NewFlagSet("bccload", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8344",
		"comma-separated bccserve base URLs; requests round-robin across them")
	c := fs.Int("c", 8, "concurrent workers")
	duration := fs.Duration("duration", 10*time.Second, "measured window length")
	ids := fs.String("ids", "", "comma-separated experiment ids (default: every id the server's /tables lists)")
	seed := fs.Uint64("seed", 2019, "table seed passed as ?seed=")
	quick := fs.Bool("quick", false, "request quick-mode tables (?quick=true)")
	format := fs.String("format", "json", "table format to request: json or md")
	warm := fs.Bool("warm", true, "prime each id once before the measured window (hit-path load)")
	sweepSpec := fs.String("sweep", "",
		"mixed-workload mode: a sweep spec in the compact grammar (e.g. 'ids=E13&seeds=1-4&quick=true'); one worker issues POST /sweep grids while the rest keep up the single-table load")
	jsonOut := fs.Bool("json", false, "emit the machine-readable JSON report on stdout")
	if err := fs.Parse(args); err != nil {
		return nil, false, err
	}
	opts := Options{
		Concurrency: *c, Duration: *duration,
		Seed: *seed, Quick: *quick, Format: *format, Warm: *warm,
		SweepSpec: *sweepSpec,
	}
	for _, u := range strings.Split(*url, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			opts.URLs = append(opts.URLs, u)
		}
	}
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opts.IDs = append(opts.IDs, id)
			}
		}
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "bccload: %d workers against %s for %s\n",
			opts.Concurrency, strings.Join(opts.URLs, ", "), opts.Duration)
	}
	rep, err := Run(opts)
	return rep, *jsonOut, err
}

// Options configures one load run.
type Options struct {
	// URLs are the bccserve base URLs (no trailing slashes); requests
	// rotate round-robin across them.
	URLs []string
	// Concurrency is the worker count; each worker issues requests
	// back-to-back over keep-alive connections.
	Concurrency int
	// Duration is the measured window (the warm pass is outside it).
	Duration time.Duration
	// IDs are the experiment ids to rotate through; empty means
	// discover every id from the server's /tables listing.
	IDs []string
	// Seed/Quick/Format shape the table requests.
	Seed   uint64
	Quick  bool
	Format string
	// Warm primes each id once before measuring.
	Warm bool
	// SweepSpec, when non-empty, turns on the mixed workload: one
	// worker repeatedly POSTs /sweep with this spec (compact grammar)
	// while the remaining workers keep the single-table load going —
	// the realistic shape of production traffic, where grids and
	// single cells hit the same scheduler and must dedup against each
	// other.
	SweepSpec string
}

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// TargetMix is one target's slice of the run: how many requests it
// received, who actually answered them (X-Served-By — under a fleet, a
// replica may serve bytes fetched from the owner), and from which
// cache tier. This is the observable evidence that a fleet behaves as
// one logical cache: every target should show hits, whoever computed.
type TargetMix struct {
	Requests uint64            `json:"requests"`
	Errors   uint64            `json:"errors"`
	ServedBy map[string]uint64 `json:"served_by"`
	Cache    map[string]uint64 `json:"cache"`
	Tiers    map[string]uint64 `json:"tiers"`
}

// Report is the machine-readable outcome of a load run.
type Report struct {
	URL         string   `json:"url"`
	Concurrency int      `json:"concurrency"`
	DurationSec float64  `json:"duration_sec"`
	IDs         []string `json:"ids"`
	Format      string   `json:"format"`

	// PerTarget breaks the run down by base URL (only when more than
	// one target was given; a single-target run keeps the flat report).
	PerTarget map[string]*TargetMix `json:"per_target,omitempty"`

	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	RPS      float64 `json:"rps"`
	// Bytes is the summed body size of successful responses.
	Bytes uint64 `json:"bytes"`

	LatencyMS Quantiles `json:"latency_ms"`
	// Cache counts responses by X-Cache value ("hit"/"miss"; "none"
	// when the header is absent, e.g. an error body).
	Cache map[string]uint64 `json:"cache"`
	// Tiers counts hit responses by X-Cache-Tier ("memory", "disk",
	// "objstore", "fleet").
	Tiers map[string]uint64 `json:"tiers"`
	// Status counts responses by HTTP status code.
	Status map[string]uint64 `json:"status"`
	// Degraded counts responses carrying an X-Degraded header, by its
	// value (the open-breaker list, e.g. "objstore,owner:<url>") — how much of
	// the run was served while a dependency was being bypassed. Absent
	// header: not counted (the common, healthy case).
	Degraded map[string]uint64 `json:"degraded,omitempty"`

	// Mixed-mode (-sweep) accounting: Sweeps counts completed POST
	// /sweep requests, SweepCells their streamed cell rows by status
	// ("hit"/"computed"/"shared"/...), and SweepErrors the sweeps that
	// failed outright (non-200, transport error, malformed NDJSON, or
	// a stream whose summary did not match its rows). SweepErrors also
	// count toward Errors, so the exit status still gates on a fully
	// clean run.
	Sweeps      uint64            `json:"sweeps,omitempty"`
	SweepCells  map[string]uint64 `json:"sweep_cells,omitempty"`
	SweepErrors uint64            `json:"sweep_errors,omitempty"`
}

// print writes the human summary.
func (r *Report) print(w io.Writer) {
	fmt.Fprintf(w, "requests   %d in %.2fs  (%.0f req/s, %d errors)\n",
		r.Requests, r.DurationSec, r.RPS, r.Errors)
	fmt.Fprintf(w, "latency    p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms  mean %.3fms\n",
		r.LatencyMS.P50, r.LatencyMS.P90, r.LatencyMS.P99, r.LatencyMS.Max, r.LatencyMS.Mean)
	fmt.Fprintf(w, "cache      %v\n", r.Cache)
	fmt.Fprintf(w, "tiers      %v\n", r.Tiers)
	fmt.Fprintf(w, "status     %v\n", r.Status)
	if len(r.Degraded) > 0 {
		fmt.Fprintf(w, "degraded   %v\n", r.Degraded)
	}
	if r.Sweeps > 0 || r.SweepErrors > 0 {
		fmt.Fprintf(w, "sweeps     %d (%d errors) cells=%v\n", r.Sweeps, r.SweepErrors, r.SweepCells)
	}
	fmt.Fprintf(w, "bytes      %d (%.1f MB/s)\n", r.Bytes, float64(r.Bytes)/r.DurationSec/1e6)
	if len(r.PerTarget) > 0 {
		targets := make([]string, 0, len(r.PerTarget))
		for t := range r.PerTarget {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		for _, t := range targets {
			m := r.PerTarget[t]
			fmt.Fprintf(w, "target     %s  requests=%d errors=%d served_by=%v tiers=%v\n",
				t, m.Requests, m.Errors, m.ServedBy, m.Tiers)
		}
	}
}

// listEntry mirrors bccserve's /tables row (the fields bccload needs).
type listEntry struct {
	ID string `json:"id"`
}

// sample is one request's outcome, recorded per worker and merged after
// the window closes.
type sample struct {
	latency  time.Duration
	status   int
	cache    string
	tier     string
	servedBy string
	degraded string
	target   string
	bytes    int
	failed   bool
}

// Run executes one load run: resolve ids, warm, fan out workers for the
// window, merge and summarize.
func Run(o Options) (*Report, error) {
	if o.Concurrency < 1 {
		o.Concurrency = 1
	}
	if len(o.URLs) == 0 {
		return nil, fmt.Errorf("no target URLs")
	}
	if o.Format != "json" && o.Format != "md" {
		return nil, fmt.Errorf("unknown format %q (want json or md)", o.Format)
	}
	client := &http.Client{
		Transport: &http.Transport{
			// Every worker keeps its connection alive; without this the
			// default per-host idle cap (2) forces most workers into a
			// TCP handshake per request and the run measures connection
			// setup, not the serving path.
			MaxIdleConns:        o.Concurrency * 2,
			MaxIdleConnsPerHost: o.Concurrency * 2,
		},
		Timeout: 30 * time.Second,
	}

	ids := o.IDs
	if len(ids) == 0 {
		var err error
		if ids, err = discoverIDs(client, o); err != nil {
			return nil, err
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids to load (server listed none)")
	}

	if o.Warm {
		// Every target is primed, not just the first: under a fleet the
		// point is measuring each replica's hit path, and under plain
		// multi-target load a cold second replica would pollute the
		// window with its first computations.
		for _, base := range o.URLs {
			for _, id := range ids {
				s := fetch(client, base, tableURL(o, base, id))
				if s.failed || s.status != http.StatusOK {
					return nil, fmt.Errorf("warming %s on %s: status %d", id, base, s.status)
				}
			}
		}
	}

	// Mixed mode: validate the sweep spec client-side so a typo fails
	// the run immediately instead of producing a window of 400s.
	sweepQuery := ""
	if o.SweepSpec != "" {
		spec, err := sweep.ParseQueryString(o.SweepSpec)
		if err != nil {
			return nil, err
		}
		sweepQuery = spec.Canonical().Query()
	}

	// Workers record into private slices (no shared state in the hot
	// loop) and stop at the deadline; the elapsed clock spans first
	// request to last response.
	perWorker := make([][]sample, o.Concurrency)
	var sweepSamples []sweepSample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.Duration)
	for w := 0; w < o.Concurrency; w++ {
		if w == 0 && sweepQuery != "" {
			// Worker 0 is the grid half of the mixed workload: whole
			// sweeps back to back while the other workers keep the
			// single-table load flowing against the same scheduler.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					base := o.URLs[i%len(o.URLs)]
					sweepSamples = append(sweepSamples, postSweep(client, base, sweepQuery))
				}
			}()
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := make([]sample, 0, 4096)
			for i := w; time.Now().Before(deadline); i++ {
				// Targets rotate fastest, ids once per full target cycle,
				// so every (target, id) pair gets traffic regardless of
				// how the two list lengths divide.
				base := o.URLs[i%len(o.URLs)]
				id := ids[(i/len(o.URLs))%len(ids)]
				samples = append(samples, fetch(client, base, tableURL(o, base, id)))
			}
			perWorker[w] = samples
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		URL: strings.Join(o.URLs, ","), Concurrency: o.Concurrency, DurationSec: elapsed.Seconds(),
		IDs: ids, Format: o.Format,
		Cache: map[string]uint64{}, Tiers: map[string]uint64{}, Status: map[string]uint64{},
	}
	if len(o.URLs) > 1 {
		rep.PerTarget = map[string]*TargetMix{}
		for _, base := range o.URLs {
			rep.PerTarget[base] = &TargetMix{
				ServedBy: map[string]uint64{}, Cache: map[string]uint64{}, Tiers: map[string]uint64{},
			}
		}
	}
	latencies := make([]time.Duration, 0, 1<<14)
	var totalLatency time.Duration
	for _, samples := range perWorker {
		for _, s := range samples {
			rep.Requests++
			if s.failed || s.status != http.StatusOK {
				rep.Errors++
			}
			if s.failed {
				rep.Status["transport"]++
			} else {
				rep.Status[fmt.Sprintf("%d", s.status)]++
			}
			cache := s.cache
			if cache == "" {
				cache = "none"
			}
			rep.Cache[cache]++
			if s.tier != "" {
				rep.Tiers[s.tier]++
			}
			if s.degraded != "" {
				if rep.Degraded == nil {
					rep.Degraded = map[string]uint64{}
				}
				rep.Degraded[s.degraded]++
			}
			if m := rep.PerTarget[s.target]; m != nil {
				m.Requests++
				if s.failed || s.status != http.StatusOK {
					m.Errors++
				}
				m.Cache[cache]++
				if s.tier != "" {
					m.Tiers[s.tier]++
				}
				servedBy := s.servedBy
				if servedBy == "" {
					servedBy = "none"
				}
				m.ServedBy[servedBy]++
			}
			// Quantiles and bytes cover successful requests only: a
			// dying server produces thousands of near-instant
			// connection-refused samples and 429/5xx error bodies, and
			// folding those in would report a broken run as a fast one.
			// The error count is the signal there.
			if !s.failed && s.status == http.StatusOK {
				rep.Bytes += uint64(s.bytes)
				latencies = append(latencies, s.latency)
				totalLatency += s.latency
			}
		}
	}
	for _, ss := range sweepSamples {
		if ss.ok {
			rep.Sweeps++
		} else {
			rep.SweepErrors++
			rep.Errors++
		}
		for status, n := range ss.cells {
			if rep.SweepCells == nil {
				rep.SweepCells = map[string]uint64{}
			}
			rep.SweepCells[status] += n
		}
	}
	if rep.Requests > 0 && elapsed > 0 {
		rep.RPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		q := func(p float64) float64 {
			i := int(p * float64(len(latencies)-1))
			return ms(latencies[i])
		}
		rep.LatencyMS = Quantiles{
			P50: q(0.50), P90: q(0.90), P99: q(0.99),
			Max:  ms(latencies[len(latencies)-1]),
			Mean: ms(totalLatency / time.Duration(len(latencies))),
		}
	}
	return rep, nil
}

// tableURL builds the request URL for one id on one target.
func tableURL(o Options, base, id string) string {
	return fmt.Sprintf("%s/tables/%s?seed=%d&quick=%t&format=%s", base, id, o.Seed, o.Quick, o.Format)
}

// discoverIDs asks the first server's /tables listing for every
// registered experiment id (fleet replicas share a registry).
func discoverIDs(client *http.Client, o Options) ([]string, error) {
	url := fmt.Sprintf("%s/tables?seed=%d&quick=%t", o.URLs[0], o.Seed, o.Quick)
	res, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("listing experiments: %w", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing experiments: status %d", res.StatusCode)
	}
	var entries []listEntry
	if err := json.NewDecoder(res.Body).Decode(&entries); err != nil {
		return nil, fmt.Errorf("parsing /tables: %w", err)
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		ids = append(ids, e.ID)
	}
	return ids, nil
}

// sweepSample is one POST /sweep request's outcome.
type sweepSample struct {
	// cells counts the streamed cell rows by status.
	cells map[string]uint64
	// ok means: 200, every line well-formed NDJSON, rows and summary
	// consistent.
	ok bool
}

// sweepLine mirrors the serve layer's NDJSON row envelope.
type sweepLine struct {
	Cell *struct {
		Status string `json:"status"`
	} `json:"cell"`
	Summary *struct {
		Cells int `json:"cells"`
	} `json:"summary"`
}

// postSweep issues one whole-grid POST /sweep and validates the
// stream: every line must parse as exactly one of cell/summary, the
// summary must be last, and its cell count must match the rows
// actually streamed — a truncated or padded stream is an error even
// when the status was 200.
func postSweep(client *http.Client, base, specQuery string) sweepSample {
	s := sweepSample{cells: map[string]uint64{}}
	res, err := client.Post(base+"/sweep?"+specQuery, "", nil)
	if err != nil {
		return s
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, res.Body)
		return s
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	rows := 0
	sawSummary := false
	summaryCells := -1
	for sc.Scan() {
		if sawSummary {
			return s // data after the terminal summary row
		}
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return s
		}
		switch {
		case line.Cell != nil && line.Summary == nil:
			rows++
			s.cells[line.Cell.Status]++
		case line.Summary != nil && line.Cell == nil:
			sawSummary = true
			summaryCells = line.Summary.Cells
		default:
			return s
		}
	}
	s.ok = sc.Err() == nil && sawSummary && rows == summaryCells
	return s
}

// fetch issues one GET and records its outcome; the body is read in
// full (a server can cheat a benchmark that never reads what it asked
// for).
func fetch(client *http.Client, target, url string) sample {
	start := time.Now()
	res, err := client.Get(url)
	if err != nil {
		return sample{latency: time.Since(start), target: target, failed: true}
	}
	n, err := io.Copy(io.Discard, res.Body)
	res.Body.Close()
	s := sample{
		latency:  time.Since(start),
		status:   res.StatusCode,
		cache:    res.Header.Get("X-Cache"),
		tier:     res.Header.Get("X-Cache-Tier"),
		servedBy: res.Header.Get("X-Served-By"),
		degraded: res.Header.Get("X-Degraded"),
		target:   target,
		bytes:    int(n),
	}
	if err != nil {
		s.failed = true
	}
	return s
}
