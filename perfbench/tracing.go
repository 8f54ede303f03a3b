package main

import (
	"sync"
	"time"

	"geovmp"
	"geovmp/internal/alloc"
	"geovmp/internal/core"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/experiment"
	"geovmp/internal/policy"
	"geovmp/internal/timeutil"
)

// cellTrace is what one batch cell's policy wrapper saw. Only the cell's
// own simulator goroutine writes it; the pass reads it after Run returns.
type cellTrace struct {
	start, end time.Time // policy-factory call, Progress callback
	place      []float64 // s per Place call
	gaps       []float64 // s from a Place return to the next Place call
	lastPlace  time.Time

	proposed   bool
	placeS     float64
	embedNS    int64
	embedIters int
	pointIters float64 // embedding iterations x active VMs
	moves      int
	rejected   int
	allocS     float64
	allocCalls int
	allocVMs   int
}

// passTrace collects one batch pass's cell traces and, when layered, the
// per-layer measurements around them.
type passTrace struct {
	layered bool

	mu    sync.Mutex
	cells []*cellTrace
	open  map[cellKey]*cellTrace // cells whose Progress has not arrived

	cellWorkers int // goroutines running cells in each grid
	compileS    float64
	columns     int
	migrations  int
	evacuations int
}

type cellKey struct {
	policy string
	seed   uint64
}

func newPassTrace(layered bool) *passTrace {
	return &passTrace{layered: layered, open: map[cellKey]*cellTrace{}}
}

// wrap returns ps with every policy it builds wrapped in a tracedPolicy.
// The grid gives each cell a distinct (policy, seed) pair, which matches
// the Progress callback's cell to its trace.
func (t *passTrace) wrap(ps geovmp.PolicySpec) geovmp.PolicySpec {
	return geovmp.PolicySpec{Name: ps.Name, New: func(seed uint64) policy.Policy {
		c := &cellTrace{start: time.Now()}
		t.mu.Lock()
		t.cells = append(t.cells, c)
		t.open[cellKey{ps.Name, seed}] = c
		t.mu.Unlock()
		inner := ps.New(seed)
		_, c.proposed = inner.(*core.Controller)
		return &tracedPolicy{Policy: inner, c: c, layered: t.layered}
	}}
}

// progress is the traced grid's Progress callback: it closes the cell.
func (t *passTrace) progress(p experiment.Progress) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	k := cellKey{p.Cell.Policy, p.Cell.Seed}
	if c := t.open[k]; c != nil {
		c.end = now
		delete(t.open, k)
	}
}

// tracedPolicy times the calls the simulator makes into a policy. It must
// not change behaviour: it forwards StartEpoch, so epoch-aware policies
// still re-optimize at epoch boundaries.
type tracedPolicy struct {
	policy.Policy
	c       *cellTrace
	layered bool
}

var _ policy.EpochAware = (*tracedPolicy)(nil)

func (p *tracedPolicy) Place(in *policy.Input) policy.Placement {
	c := p.c
	ctrl, _ := p.Policy.(*core.Controller)
	var embedNS int64
	if ctrl != nil {
		embedNS = ctrl.EmbedNS
	}
	start := time.Now()
	if !c.lastPlace.IsZero() {
		c.gaps = append(c.gaps, start.Sub(c.lastPlace).Seconds())
	}
	pl := p.Policy.Place(in)
	c.lastPlace = time.Now()
	d := c.lastPlace.Sub(start).Seconds()
	c.place = append(c.place, d)
	if !p.layered {
		return pl
	}
	c.placeS += d
	c.moves += len(pl.Moves)
	c.rejected += pl.Rejected
	if ctrl != nil && !ctrl.NoEmbedding {
		c.embedNS += ctrl.EmbedNS - embedNS
		c.embedIters += ctrl.LastEmbedIters
		c.pointIters += float64(ctrl.LastEmbedIters) * float64(len(in.ActiveVMs))
	}
	return pl
}

func (p *tracedPolicy) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	if !p.layered {
		return p.Policy.Allocate(d, ids, ps)
	}
	start := time.Now()
	res := p.Policy.Allocate(d, ids, ps)
	p.c.allocS += time.Since(start).Seconds()
	p.c.allocCalls++
	p.c.allocVMs += len(ids)
	return res
}

func (p *tracedPolicy) StartEpoch(epoch int, start timeutil.Slot) {
	if ea, ok := p.Policy.(policy.EpochAware); ok {
		ea.StartEpoch(epoch, start)
	}
}

// layerTotals sums the per-layer measurements of traced batch passes.
type layerTotals struct {
	compileS, columns                 float64
	cells, cellWallS, busy            float64
	cellS                             []float64
	placeS, placeCalls, coreS, embedS float64
	embedIters, pointIters            float64
	moves, rejected                   float64
	allocS, allocCalls, allocVMs      float64
	migrations, evacuations           float64
}

func (s *layerTotals) add(t *passTrace, wall float64) {
	s.compileS += t.compileS
	s.columns += float64(t.columns)
	var cellWall float64
	for _, c := range t.cells {
		w := c.end.Sub(c.start).Seconds()
		s.cellS = append(s.cellS, w)
		cellWall += w
		s.placeS += c.placeS
		s.placeCalls += float64(len(c.place))
		if c.proposed {
			s.coreS += c.placeS
		}
		s.embedS += float64(c.embedNS) / 1e9
		s.embedIters += float64(c.embedIters)
		s.pointIters += c.pointIters
		s.moves += float64(c.moves)
		s.rejected += float64(c.rejected)
		s.allocS += c.allocS
		s.allocCalls += float64(c.allocCalls)
		s.allocVMs += float64(c.allocVMs)
	}
	s.cells += float64(len(t.cells))
	s.cellWallS += cellWall
	s.busy += cellWall / (wall * float64(t.cellWorkers))
	s.migrations += float64(t.migrations)
	s.evacuations += float64(t.evacuations)
}

// report writes the per-pass means over n traced passes.
func (s *layerTotals) report(r *report, n int) {
	p := float64(max(n, 1))
	r.set("trace.compile_s", s.compileS/p, "s")
	r.set("trace.columns", s.columns/p, "count")
	r.set("experiment.cells", s.cells/p, "count")
	r.set("experiment.cell_s_p50", quantile(s.cellS, 0.5), "s")
	r.samples["experiment.cell_s_p50"] = len(s.cellS)
	r.set("experiment.busy_frac", s.busy/p, "ratio")
	r.set("policy.place_s", s.placeS/p, "s")
	r.set("policy.place_calls", s.placeCalls/p, "count")
	r.set("core.place_s", s.coreS/p, "s")
	r.set("core.cluster_migrate_s", (s.coreS-s.embedS)/p, "s")
	r.set("embed.run_s", s.embedS/p, "s")
	r.set("embed.iters", s.embedIters/p, "count")
	r.set("embed.point_iters", s.pointIters/p, "count")
	r.set("embed.ns_per_point_iter", ratio(s.embedS*1e9, s.pointIters), "ns")
	r.set("migrate.moves", s.moves/p, "count")
	r.set("migrate.rejected", s.rejected/p, "count")
	r.set("migrate.accept_ratio", ratio(s.moves, s.moves+s.rejected), "ratio")
	r.set("alloc.pack_s", s.allocS/p, "s")
	r.set("alloc.calls", s.allocCalls/p, "count")
	r.set("alloc.vms", s.allocVMs/p, "count")
	r.set("sim.self_s", (s.cellWallS-s.placeS-s.allocS)/p, "s")
	r.set("sim.migrations", s.migrations/p, "count")
	r.set("fault.evacuations", s.evacuations/p, "count")
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// does.
var perLayer = []struct{ name, unit string }{
	{"trace.compile_s", "s"},
	{"trace.columns", "count"},
	{"experiment.cells", "count"},
	{"experiment.cell_s_p50", "s"},
	{"experiment.busy_frac", "ratio"},
	{"policy.place_s", "s"},
	{"policy.place_calls", "count"},
	{"core.place_s", "s"},
	{"core.cluster_migrate_s", "s"},
	{"embed.run_s", "s"},
	{"embed.iters", "count"},
	{"embed.point_iters", "count"},
	{"embed.ns_per_point_iter", "ns"},
	{"migrate.moves", "count"},
	{"migrate.rejected", "count"},
	{"migrate.accept_ratio", "ratio"},
	{"alloc.pack_s", "s"},
	{"alloc.calls", "count"},
	{"alloc.vms", "count"},
	{"sim.self_s", "s"},
	{"sim.migrations", "count"},
	{"fault.evacuations", "count"},
	{"serve.handler_place_ms_p50", "ms"},
	{"serve.handler_observe_ms_p50", "ms"},
	{"serve.handler_depart_ms_p50", "ms"},
	{"serve.decision_ms_p50", "ms"},
	{"serve.decision_ms_p99", "ms"},
	{"serve.observe_vms", "count"},
	{"serve.reconciles", "count"},
	{"serve.overflows", "count"},
	{"serve.rejections", "count"},
	{"serve.deadlines", "count"},
	{"serve.depart_removed_ratio", "ratio"},
	{"http.transport_ms_p50", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"tracing.overhead_s", "s"},
}

// fillLayers reports 0 for every layer the workload leaves idle: the batch
// layers on serve, the serve and http layers on the batch workloads.
func fillLayers(r *report) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
		}
	}
}
