package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geovmp"
	"geovmp/internal/experiment"
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// batchSize fixes a batch workload: presets x policies x seeds.
type batchSize struct {
	presets      []string
	scale        float64 // 0 keeps the preset's own fleet scale
	hours        int
	fineStep     float64 // green-controller period, s
	seeds        int     // seed columns per preset
	proposedOnly bool    // the Proposed policy alone instead of all four
	// serial runs every scenario x seed column as its own Experiment, one
	// after another, instead of all columns in one grid.
	serial bool
}

func defaultOptions() options {
	return options{
		batch: map[string]batchSize{
			// Table I style sweep: small fleets (the dense exact embedding
			// path), a fine 30 s step, faults, RS(2,2) storage and epoch
			// revision on geo5dc-faulty. 2 presets x 4 policies x 4 seeds:
			// eight instances per pass average out how much the small
			// random instances differ.
			"sweep": {presets: []string{"paper-geo3dc", "geo5dc-faulty"}, scale: 0.02, hours: 24, fineStep: 30, seeds: 4},
			// The paper's global phase on the sampled embedding path
			// (geo5dc-large at 10%, ~3.1k VMs, above the exact threshold);
			// a coarse step keeps the fine loop negligible next to Place.
			// One cell at a time gets the whole worker budget. Each slot's
			// embedding stops when it has converged: the cold first slot
			// takes 13-14 iterations on every instance, later slots 3-16
			// depending on the instance. Twelve instances of two slots
			// (the cold start and the first warm restart) keep the work
			// per pass within a few percent across seeds, and the ~6 s
			// passes let a run take the median of several.
			"global": {presets: []string{"geo5dc-large"}, scale: 0.1, hours: 2, fineStep: 900, seeds: 12, proposedOnly: true, serial: true},
		},
		serve:   serveSize{scale: 0.08, hours: 48, conns: 2},
		digests: referenceDigests,
	}
}

func runSweep(opt options, r *report) error  { return runBatch("sweep", opt, r) }
func runGlobal(opt options, r *report) error { return runBatch("global", opt, r) }

// experimentGrid is one Experiment: scenarios x policies x seed offsets.
type experimentGrid struct {
	specs   []geovmp.Spec
	offsets int
}

// batchGrid is a batch workload's generated input: the grids a pass runs
// one after another, plus the sizes the throughput metrics divide by.
type batchGrid struct {
	grids    []experimentGrid
	policies []geovmp.PolicySpec
	cells    int
	slots    int // simulated slots per cell
	arrivals int // VM arrivals summed over every cell
}

// newBatchGrid derives the grids from the seed and builds every scenario
// x seed column once, which validates the specs and counts the arrivals.
// Preset i's seeds are seed*1000 + 100*i + k, so no two cells of a pass
// share a (policy, seed) pair.
func newBatchGrid(size batchSize, seed uint64) (*batchGrid, error) {
	g := &batchGrid{slots: size.hours}
	g.policies = geovmp.StandardPolicies(0.9)
	if size.proposedOnly {
		g.policies = g.policies[:1]
	}
	for i, name := range size.presets {
		spec, err := geovmp.Preset(name)
		if err != nil {
			return nil, err
		}
		if size.scale > 0 {
			spec.Scale = size.scale
		}
		spec.Seed = seed*1000 + 100*uint64(i)
		spec.Horizon = geovmp.HoursOf(size.hours)
		spec.FineStepSec = size.fineStep
		for k := 0; k < size.seeds; k++ {
			col := spec
			col.Seed += uint64(k)
			sc, err := geovmp.NewScenario(col)
			if err != nil {
				return nil, fmt.Errorf("build %s seed %d: %w", name, col.Seed, err)
			}
			g.arrivals += len(g.policies) * countArrivals(sc.Workload, size.hours)
			if size.serial {
				g.grids = append(g.grids, experimentGrid{specs: []geovmp.Spec{col}, offsets: 1})
			}
		}
		if !size.serial {
			if len(g.grids) == 0 {
				g.grids = append(g.grids, experimentGrid{offsets: size.seeds})
			}
			g.grids[0].specs = append(g.grids[0].specs, spec)
		}
	}
	g.cells = len(size.presets) * size.seeds * len(g.policies)
	return g, nil
}

// countArrivals counts the VMs active at any slot of the horizon: every
// one arrives once, the initial population at slot 0.
func countArrivals(w geovmp.Workload, slots int) int {
	seen := map[int]bool{}
	for sl := 0; sl < slots; sl++ {
		for _, id := range w.ActiveVMs(timeutil.Slot(sl)) {
			seen[id] = true
		}
	}
	return len(seen)
}

// batchPass is one execution of the grid.
type batchPass struct {
	wall    float64 // s, compile included
	digests []string
	costs   []float64 // Proposed cells' operational cost, EUR
	trace   *passTrace
}

// runPass executes the grids once. Untraced passes go through the
// public Experiment.Run, with only Place timed; traced passes compile each
// column through a timed experiment.CompileColumn and time every layer
// boundary.
func (g *batchGrid) runPass(r *report, traced bool) (*batchPass, error) {
	t := newPassTrace(traced)
	pols := make([]geovmp.PolicySpec, len(g.policies))
	for i, ps := range g.policies {
		pols[i] = t.wrap(ps)
	}
	t.cellWorkers = min(runtime.GOMAXPROCS(0), g.cells/len(g.grids))
	p := &batchPass{trace: t}
	start := time.Now()
	for _, eg := range g.grids {
		var (
			set *geovmp.ResultSet
			err error
		)
		if traced {
			set, err = eg.runTraced(pols, t)
		} else {
			set, err = geovmp.NewExperiment(
				geovmp.WithScenarios(eg.specs...),
				geovmp.WithPolicies(pols...),
				geovmp.WithSeeds(eg.offsets),
			).Run(context.Background())
		}
		if set == nil {
			return nil, fmt.Errorf("batch pass: %w", err)
		}
		// A failed cell carries its error and fails its check below.
		for i := range set.Cells {
			c := &set.Cells[i]
			d, err := exportDigest(c)
			if err != nil {
				return nil, err
			}
			p.digests = append(p.digests, d)
			var cost float64
			if c.Result != nil {
				cost = float64(c.Result.OpCost)
				t.migrations += c.Result.Migrations
				t.evacuations += c.Result.Evacuations
			}
			ok := c.Err == nil && cost > 0 && !math.IsInf(cost, 0)
			r.check(ok, "cell %s/%s/%d: err=%v cost=%v", c.Scenario, c.Policy, c.Seed, c.Err, cost)
			if ok && c.Policy == "Proposed" {
				p.costs = append(p.costs, cost)
			}
		}
	}
	p.wall = time.Since(start).Seconds()
	return p, nil
}

// exportDigest hashes the cell's export row, the ResultSet JSON schema.
func exportDigest(c *geovmp.ResultCell) (string, error) {
	row, err := json.Marshal(c.Export())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(row)
	return hex.EncodeToString(sum[:8]), nil
}

// runTraced is Experiment.Run's grid fed with columns compiled up front by
// timed CompileColumn calls, on as many goroutines as the engine's lazy
// compile would use, so cells run over identical tables.
func (g *experimentGrid) runTraced(pols []geovmp.PolicySpec, t *passTrace) (*geovmp.ResultSet, error) {
	type key struct {
		name string
		seed uint64
	}
	var keys []key
	var specs []geovmp.Spec
	for _, spec := range g.specs {
		for k := 0; k < g.offsets; k++ {
			keys = append(keys, key{spec.Name, spec.Seed + uint64(k)})
			specs = append(specs, spec)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, len(keys))
	budget := par.NewBudget(procs - workers)
	cols := make([]*experiment.Column, len(keys))
	errs := make([]error, len(keys))
	secs := make([]float64, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(keys) {
					return
				}
				start := time.Now()
				cols[k], errs[k] = experiment.CompileColumn(specs[k], keys[k].seed, budget)
				secs[k] = time.Since(start).Seconds()
			}
		}()
	}
	wg.Wait()
	byKey := map[key]*experiment.Column{}
	for k := range keys {
		if errs[k] != nil {
			return nil, errs[k]
		}
		byKey[keys[k]] = cols[k]
		t.compileS += secs[k]
	}
	t.columns += len(keys)
	offsets := make([]uint64, g.offsets)
	for k := range offsets {
		offsets[k] = uint64(k)
	}
	return experiment.Run(context.Background(), experiment.Grid{
		Scenarios:   g.specs,
		Policies:    pols,
		SeedOffsets: offsets,
		Columns:     func(name string, seed uint64) *experiment.Column { return byKey[key{name, seed}] },
		Progress:    t.progress,
	})
}

// runBatch runs a batch workload: set-up, then passes until the
// measurement time is spent, each checked cell by cell.
func runBatch(name string, opt options, r *report) error {
	size := opt.batch[name]
	g, setupS, err := medianSetup(func() (*batchGrid, error) { return newBatchGrid(size, opt.seed) }, func(*batchGrid) {})
	if err != nil {
		return err
	}
	ref := opt.digests[name][opt.seed]
	var first *batchPass
	checkPass := func(p *batchPass) {
		if first == nil {
			first = p
			for i := range ref {
				r.check(i < len(p.digests) && p.digests[i] == ref[i], "%s seed %d cell %d: export digest differs from reference %s", name, opt.seed, i, ref[i])
			}
			return
		}
		r.check(slices.Equal(p.digests, first.digests), "%s: export digests differ between passes", name)
	}

	if opt.trace {
		return traceBatch(g, opt, r, checkPass)
	}
	var passes []*batchPass
	start := time.Now()
	for untilDeadline(start, opt.seconds, len(passes), 1) {
		p, err := g.runPass(r, false)
		if err != nil {
			return err
		}
		checkPass(p)
		passes = append(passes, p)
		fmt.Fprintf(r.log, "pass %d: %.3f s\n", len(passes), p.wall)
	}
	var slotsPerS, arrivalsPerS []float64
	place := make([][]float64, len(passes))
	gaps := make([][]float64, len(passes))
	for i, p := range passes {
		slotsPerS = append(slotsPerS, float64(g.cells*g.slots)/p.wall)
		arrivalsPerS = append(arrivalsPerS, float64(g.arrivals)/p.wall)
		for _, c := range p.trace.cells {
			if c.proposed {
				place[i] = append(place[i], c.place...)
			}
			gaps[i] = append(gaps[i], c.gaps...)
		}
	}
	r.set("setup_s", setupS, "s")
	r.set("sim_slots_per_s", quantile(slotsPerS, 0.5), "1/s")
	r.set("arrivals_per_s", quantile(arrivalsPerS, 0.5), "1/s")
	r.set("cost_eur", mean(first.costs), "EUR")
	r.setPassQuantile("place_p50_ms", place, 0.50)
	r.setPassQuantile("place_p99_ms", place, 0.99)
	r.setPassQuantile("observe_p50_ms", gaps, 0.50)
	fmt.Fprintf(r.log, "%s: %d passes, %d cells x %d slots, %d arrivals per pass\n", name, len(passes), g.cells, g.slots, g.arrivals)
	return nil
}

// traceBatch alternates untraced and traced passes, checks that tracing
// leaves every cell's export unchanged, and reports the per-layer means
// over the traced passes plus the tracing overhead.
func traceBatch(g *batchGrid, opt options, r *report, checkPass func(*batchPass)) error {
	var rt runtimeStats
	var plain, traced []*batchPass
	start := time.Now()
	for untilDeadline(start, opt.seconds, len(traced), 1) {
		before := readMem()
		p, err := g.runPass(r, false)
		if err != nil {
			return err
		}
		rt.add(before, readMem())
		checkPass(p)
		plain = append(plain, p)

		q, err := g.runPass(r, true)
		if err != nil {
			return err
		}
		r.check(slices.Equal(q.digests, p.digests), "traced export digests %v differ from untraced %v", q.digests, p.digests)
		traced = append(traced, q)
	}
	var plainWall, tracedWall []float64
	var sum layerTotals
	for k := range traced {
		plainWall = append(plainWall, plain[k].wall)
		tracedWall = append(tracedWall, traced[k].wall)
		sum.add(traced[k].trace, traced[k].wall)
	}
	sum.report(r, len(traced))
	rt.report(r, len(plain))
	r.set("tracing.overhead_s", quantile(tracedWall, 0.5)-quantile(plainWall, 0.5), "s")
	fillLayers(r)
	return nil
}

// printDigests prints the batch workload's per-cell export digests for
// opt.seed as a digests.json entry.
func printDigests(name string, opt options) error {
	size, ok := opt.batch[name]
	if !ok {
		return fmt.Errorf("%s is not a batch workload", name)
	}
	g, err := newBatchGrid(size, opt.seed)
	if err != nil {
		return err
	}
	p, err := g.runPass(newReport(opt.log), false)
	if err != nil {
		return err
	}
	out, err := json.Marshal(map[uint64][]string{opt.seed: p.digests})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// mean is the arithmetic mean, 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
