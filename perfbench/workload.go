package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/experiments"
	"repro/internal/result"
	"repro/internal/store"
	"repro/internal/sweep"
)

// workload is one traffic mix against the serving stack.
type workload struct {
	name string
	// tier is the X-Cache-Tier every GET of the working set must carry
	// (the regime guard); empty for the sweep workload.
	tier string
	// ids and seeds span the working set of a GET workload, or one grid
	// of the sweep workload (seeds then counts grids, each at a fresh
	// seed).
	ids   []string
	seeds int
	sweep bool
}

// cheapIDs are the quick-mode tables that cost milliseconds to compute
// (bodies of 700-2200 bytes): tier_churn's corpus.
var cheapIDs = []string{"E3", "E4", "E7", "E8", "E9", "E10", "E11", "E13", "E14", "E16", "E17", "E18"}

// memCapacity is bccserve's default -mem: the L0 size tier_churn's
// working set is sized against.
const memCapacity = 64

// tier_churn runs over one closed-loop keep-alive connection. With two
// (nproc on a 2-CPU host), both request streams, the collector and the
// server fill both CPUs, and every figure swings with whatever else the
// host runs: run to run, ops_per_s spread by 20% instead of 4%.
var workloads = []workload{
	// 12 ids × 16 seeds = 192 tables, three times L0: requested
	// cyclically, every GET is an L1 hit plus an L0 backfill.
	{name: "tier_churn", tier: "disk", ids: cheapIDs, seeds: 16},
	// Every id in quick mode at one fresh seed per grid: every cell is
	// cold.
	{name: "cold_sweep", ids: allIDs(), sweep: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func allIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// splitmix64 is the seed mixer: every table seed derives from the
// workload seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// baseSeed is the first table seed of a run; table seeds are consecutive
// from it, so a working set is the compact range base..base+n-1.
func baseSeed(seed uint64) uint64 { return 1 + splitmix64(seed)%(1<<31) }

// cell is one table of a workload: what is requested and what must come
// back.
type cell struct {
	id   string
	seed uint64
	fp   string
	path string // GET path with query
}

func newCell(id string, seed uint64) cell {
	return cell{
		id: id, seed: seed,
		fp:   store.KeyFor(id, result.Params{Seed: seed, Quick: true}).Fingerprint,
		path: fmt.Sprintf("/tables/%s?seed=%d&quick=true", id, seed),
	}
}

// gridSpec is the sweep grid ids × [first, first+n) in quick mode.
func gridSpec(ids []string, first uint64, n int) sweep.Spec {
	spec := sweep.Spec{IDs: ids, Quicks: []bool{true}}
	for i := 0; i < n; i++ {
		spec.Seeds = append(spec.Seeds, first+uint64(i))
	}
	return spec.Canonical()
}

// gridCells lists spec's cells in the order the sweep executor
// dispatches them (sweep.Spec.Cells).
func gridCells(spec sweep.Spec) []cell {
	var cells []cell
	for _, c := range spec.Cells() {
		cells = append(cells, newCell(c.ID, c.Seed))
	}
	return cells
}

// sweepPath is the POST /sweep request for spec in the compact query
// grammar.
func sweepPath(spec sweep.Spec) string { return "/sweep?" + spec.Query() }

// workingSet is a GET workload's grid. Requests walk its cells in the
// order the priming sweep computed them, so on tier_churn the first
// requests go to the tables priming evicted from L0 longest ago.
func (w workload) workingSet(seed uint64) sweep.Spec {
	return gridSpec(w.ids, baseSeed(seed), w.seeds)
}

// grid is the sweep workload's g-th grid: every id at one fresh seed.
func (w workload) grid(seed uint64, g int) sweep.Spec {
	return gridSpec(w.ids, baseSeed(seed)+uint64(g), 1)
}

// references computes each cell's table in-process and returns its wire
// bytes (the canonical JSON a GET must answer) by fingerprint.
func references(ctx context.Context, cells []cell) (map[string][]byte, error) {
	byID := map[string]experiments.Experiment{}
	for _, e := range experiments.All() {
		byID[e.ID] = e
	}
	refs := make(map[string][]byte, len(cells))
	var mu sync.Mutex
	var firstErr error
	work := make(chan cell)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				t, err := byID[c.id].Run(experiments.Config{Seed: c.seed, Quick: true, Workers: 1, Ctx: ctx})
				var b []byte
				if err == nil {
					b, err = t.EncodedJSON()
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s seed %d: %w", c.id, c.seed, err)
				}
				refs[c.fp] = b
				mu.Unlock()
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return refs, firstErr
}
