package trace

import (
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// CompileOptions parameterizes Compile. Zero values select the simulator's
// defaults, so a zero options value produces a trace the default scenario
// consumes entirely from the compiled tables.
type CompileOptions struct {
	// Samples is the per-slot downsampled profile length (default 12, the
	// simulator's ProfileSamples default; negative compiles zero-sample
	// profiles).
	Samples int
	// FineStepSec is the green-controller period the per-slot utilization
	// rows are sampled at (default 5 s, the paper's). The rows reproduce the
	// simulator's fine loop exactly: row k holds Util at the step of the
	// k-th iteration of `for t := 0.0; t < 3600; t += FineStepSec`.
	FineStepSec float64
	// MaxFineTableBytes bounds each resident utilization table — fine
	// steps and per-slot profiles alike (non-positive selects the 256 MiB
	// default). A table that would exceed the budget is not skipped: it is
	// compiled out-of-core, streamed through each run's Cursor in windows
	// of the widest slot range whose peak fits the budget, so peak memory
	// is bounded by one window while the values stay byte-identical to the
	// in-core path. Volumes always materialize.
	MaxFineTableBytes int64
	// Workers optionally lends extra goroutines to the compilation: the
	// per-VM fine and profile tables and the per-slot volume lists are
	// sharded (each shard writes disjoint rows) and the active-window scan
	// reduces per-slot shards in fixed order, so the compiled tables are
	// byte-identical at any worker count. Requires src to be safe for
	// concurrent readers — the contract workloads already carry for
	// parallel sweeps. Nil compiles serially.
	Workers *par.Budget
}

const defaultMaxFineTableBytes = 256 << 20

func (o *CompileOptions) applyDefaults() {
	switch {
	case o.Samples == 0:
		o.Samples = 12
	case o.Samples < 0:
		o.Samples = 0
	}
	if o.FineStepSec <= 0 {
		o.FineStepSec = timeutil.StepSeconds
	}
	if o.MaxFineTableBytes <= 0 {
		o.MaxFineTableBytes = defaultMaxFineTableBytes
	}
}

// Compiled is a workload materialized into dense, immutable flat arrays:
// per-slot per-VM downsampled profiles, per-slot fine-step utilization rows,
// and per-slot realized and planned volume entry lists. It implements
// Source, returns byte-identical values to the source it was compiled from,
// and is safe for any number of concurrent readers — the experiment engine
// compiles a workload once per scenario x seed and shares it across every
// policy run of that cell column, so policies pay the synthesis cost once
// instead of once per run. Runs read the rows through a Cursor.
//
// Memory is proportional to active VM-slots: profiles cost
// Samples x 8 bytes per VM-slot and the fine table FineSteps x 8 bytes per
// VM-slot (each bounded by CompileOptions.MaxFineTableBytes).
type Compiled struct {
	src     Source
	slots   timeutil.Slot
	numVMs  int
	samples int
	dt      float64

	images []units.DataSize

	// Resident tables: one window each over the whole horizon, nil when the
	// table is streamed. Filled here, then only read.
	fine, prof *window

	vols    [][]VolumeEntry // realized, per slot
	planned [][]VolumeEntry // PlannedVolumes(obsSlot(sl), sl), per slot

	// Out-of-core state. fineChunk/profChunk are the streamed window
	// widths in slots for tables that exceeded the budget (0 when
	// resident); cursors fill windows on demand from the per-VM active
	// windows.
	fineChunk   int
	profChunk   int
	first, last []timeutil.Slot

	// Footprints recorded for the already-compiled fast path: what the
	// full tables would cost resident, and the peak one-slot cost that
	// sizes chunk windows.
	fineBytes, fineSlotPeak int64
	profBytes, profSlotPeak int64
}

var _ Source = (*Compiled)(nil)

// slotProfileFiller is implemented by sources that can write a profile into
// a caller-owned buffer; Compile uses it to avoid one allocation per
// VM-slot.
type slotProfileFiller interface {
	FillSlotProfile(dst []float64, id int, sl timeutil.Slot)
}

// obsSlot returns the slot whose observations drive the controllers acting
// at sl: the previous one, with slot 0 bootstrapping from itself.
func obsSlot(sl timeutil.Slot) timeutil.Slot {
	if sl > 0 {
		return sl - 1
	}
	return 0
}

// fineStepsPerSlot counts the iterations of the simulator's fine loop for a
// step of dt seconds.
func fineStepsPerSlot(dt float64) int {
	k := 0
	for t := 0.0; t < timeutil.SlotSeconds; t += dt {
		k++
	}
	return k
}

// profileToFine maps, per slot, each profile sample index to the fine-row
// index that reads the same Util step (the profile grid is start+i*stride,
// mirroring Workload.FillSlotProfile), or nil for slots where any sample
// lies outside the fine grid.
func profileToFine(stepsBySlot [][]timeutil.Step, samples int) [][]int {
	stride := timeutil.StepsPerSlot / samples
	if stride < 1 {
		stride = 1
	}
	out := make([][]int, len(stepsBySlot))
	for sl, fs := range stepsBySlot {
		m := make([]int, samples)
		ok := true
		start := timeutil.Slot(sl).Start()
		for i := 0; i < samples; i++ {
			want := start + timeutil.Step(i*stride)
			k := -1
			for j, st := range fs {
				if st == want {
					k = j
					break
				}
			}
			if k < 0 {
				ok = false
				break
			}
			m[i] = k
		}
		if ok {
			out[sl] = m
		}
	}
	return out
}

// Compile materializes src into flat per-slot tables. Compiling an already
// compiled trace with compatible options — including the fine-table
// configuration, so a budget-capped table is never handed to a caller that
// asked for a larger one — returns it unchanged.
func Compile(src Source, opt CompileOptions) *Compiled {
	opt.applyDefaults()
	if c, ok := src.(*Compiled); ok {
		if c.samples == opt.Samples && c.dt == opt.FineStepSec && c.tablesCompatible(opt.MaxFineTableBytes) {
			return c
		}
		src = c.src // recompile from the original source
	}
	c := &Compiled{
		src:     src,
		slots:   src.Slots(),
		numVMs:  src.NumVMs(),
		samples: opt.Samples,
		dt:      opt.FineStepSec,
	}
	slots := int(c.slots)

	c.images = make([]units.DataSize, c.numVMs)
	for id := range c.images {
		c.images[id] = src.Image(id)
	}

	// Active windows from the per-slot active lists. Slot ranges are
	// scanned on concurrent shards and merged in ascending shard order; the
	// merge is a min/max fold, associative over the slot split, so the
	// windows equal the serial scan's exactly.
	first := make([]timeutil.Slot, c.numVMs)
	last := make([]timeutil.Slot, c.numVMs)
	for id := range first {
		first[id] = -1
	}
	type window struct{ first, last []timeutil.Slot }
	par.Ordered(opt.Workers, slots, windowSlotGrain, func(lo, hi int) window {
		w := window{
			first: make([]timeutil.Slot, c.numVMs),
			last:  make([]timeutil.Slot, c.numVMs),
		}
		for id := range w.first {
			w.first[id] = -1
		}
		for sl := timeutil.Slot(lo); sl < timeutil.Slot(hi); sl++ {
			for _, id := range src.ActiveVMs(sl) {
				if id < 0 || id >= c.numVMs {
					continue
				}
				if w.first[id] < 0 {
					w.first[id] = sl
				}
				w.last[id] = sl
			}
		}
		return w
	}, func(w window) {
		for id := range first {
			if w.first[id] < 0 {
				continue
			}
			if first[id] < 0 {
				first[id] = w.first[id]
			}
			last[id] = w.last[id]
		}
	})
	// Cursors of streamed tables lay their windows out from these.
	c.first, c.last = first, last
	actCover, obsCover := covers(first, last)

	// Footprints: what each full table costs resident, and its peak
	// one-slot cost (most VM windows overlapping any one slot).
	steps := fineStepsPerSlot(c.dt)
	var winPeak int64
	{
		diff := make([]int64, slots+1)
		for id := 0; id < c.numVMs; id++ {
			if first[id] >= 0 {
				diff[first[id]]++
				diff[last[id]+1]--
			}
		}
		var run int64
		for _, d := range diff {
			run += d
			winPeak = max(winPeak, run)
		}
	}
	for id := 0; id < c.numVMs; id++ {
		if first[id] >= 0 {
			c.fineBytes += int64(last[id]-first[id]+1) * int64(steps) * 8
			c.profBytes += int64(obsSlot(last[id])-obsSlot(first[id])+1) * int64(c.samples) * 8
		}
	}
	c.fineSlotPeak = winPeak * int64(steps) * 8
	c.profSlotPeak = winPeak * int64(c.samples) * 8

	// Fine-step utilization rows over each VM's active window, within the
	// memory budget; past it the table goes out-of-core and each run's
	// Cursor fills chunk windows on demand.
	if c.fineBytes <= opt.MaxFineTableBytes {
		c.fine = newWindow(c.numVMs, steps)
		c.fine.layout(0, c.slots, actCover)
		c.fine.fill(opt.Workers, fillFine(src, 0, c.slots, c.dt))
	} else {
		c.fineChunk = chunkWidth(opt.MaxFineTableBytes, c.fineSlotPeak, c.slots)
	}

	// Profiles: the controller acting at sl observes obsSlot(sl), so a VM
	// active over [first, last] needs rows for [obsSlot(first),
	// obsSlot(last)]. Where the profile's sampling grid is a subset of a
	// resident fine row's — the common case for the synthetic workload,
	// whose profiles are Util sampled at strided steps — the row is
	// assembled from the fine table instead of re-synthesizing the trace.
	if c.profBytes <= opt.MaxFineTableBytes {
		c.prof = newWindow(c.numVMs, c.samples)
		c.prof.layout(0, c.slots, obsCover)
		fill := fillProfile(src)
		var profToFine [][]int
		if _, utilSampled := src.(*Workload); utilSampled && c.fine != nil && c.samples > 0 {
			profToFine = profileToFine(fineSteps(0, c.slots, c.dt), c.samples)
		}
		// The fine table above is complete before this pass starts, so its
		// reads are safe from any shard.
		c.prof.fill(opt.Workers, func(id int, sl timeutil.Slot, row []float64) {
			if profToFine != nil && profToFine[sl] != nil {
				if fr := c.fine.row(id, sl); fr != nil {
					for i, k := range profToFine[sl] {
						row[i] = fr[k]
					}
					return
				}
			}
			fill(id, sl, row)
		})
	} else {
		c.profChunk = chunkWidth(opt.MaxFineTableBytes, c.profSlotPeak, c.slots)
	}

	// Volume entry lists, realized and planned. Slot 0's planned list is
	// still asked of the source — PlannedVolumes(0, 0) need not equal
	// Volumes(0) for every implementation (Replay filters by lifetime).
	c.vols = make([][]VolumeEntry, slots)
	c.planned = make([][]VolumeEntry, slots)
	par.For(opt.Workers, slots, volumeSlotGrain, func(lo, hi int) {
		for sl := timeutil.Slot(lo); sl < timeutil.Slot(hi); sl++ {
			c.vols[sl] = src.Volumes(sl)
			c.planned[sl] = src.PlannedVolumes(obsSlot(sl), sl)
		}
	})
	return c
}

// chunkWidth sizes the streamed window of an out-of-core table: the widest
// slot range whose peak resident bytes fit the budget, at least one slot.
func chunkWidth(budget, slotPeakBytes int64, slots timeutil.Slot) int {
	w := int(budget / max(slotPeakBytes, 1))
	return max(1, min(w, int(slots)))
}

// tablesCompatible reports whether the receiver's tables are what Compile
// would produce under the budget: resident where they fit, otherwise
// streamed at the same width. Without this check the already-compiled
// fast path would hand a budget-capped table back to a caller that asked
// for a larger one.
func (c *Compiled) tablesCompatible(budget int64) bool {
	same := func(resident *window, chunk int, bytes, slotPeak int64) bool {
		if bytes <= budget {
			return resident != nil
		}
		return chunk == chunkWidth(budget, slotPeak, c.slots)
	}
	return same(c.fine, c.fineChunk, c.fineBytes, c.fineSlotPeak) &&
		same(c.prof, c.profChunk, c.profBytes, c.profSlotPeak)
}

// Shard grains of Compile's parallel passes (see internal/par: fixed
// constants keep shard boundaries a pure function of the table sizes).
// Window shards are coarse because each allocates per-VM merge buffers;
// volume shards are fine because one slot synthesizes a whole entry list.
const (
	windowSlotGrain = 32
	vmRowGrain      = 64
	volumeSlotGrain = 4
)

// Source returns the workload the trace was compiled from.
func (c *Compiled) Source() Source { return c.src }

// NumVMs implements Source.
func (c *Compiled) NumVMs() int { return c.numVMs }

// Slots implements Source.
func (c *Compiled) Slots() timeutil.Slot { return c.slots }

// Image implements Source from the materialized image table.
func (c *Compiled) Image(id int) units.DataSize {
	if id < 0 || id >= c.numVMs {
		return 0
	}
	return c.images[id]
}

// Images returns the materialized per-VM image sizes, indexed by id. The
// slice is shared; callers must not modify it.
func (c *Compiled) Images() []units.DataSize { return c.images }

// ActiveVMs implements Source (the underlying source's index is already
// materialized).
func (c *Compiled) ActiveVMs(sl timeutil.Slot) []int { return c.src.ActiveVMs(sl) }

// Util implements Source by delegating to the underlying source: arbitrary
// step queries stay exact whether or not the fine table covers them. The
// simulator's fine loop reads a Cursor instead.
func (c *Compiled) Util(id int, st timeutil.Step) float64 { return c.src.Util(id, st) }

// FineChunkSlots and ProfileChunkSlots return the streamed window widths in
// slots, 0 when the corresponding table is resident.
func (c *Compiled) FineChunkSlots() int    { return c.fineChunk }
func (c *Compiled) ProfileChunkSlots() int { return c.profChunk }

// TableBytes returns the resident cost the full fine and profile tables
// would have — what an unbounded compile allocates, and what the chunked
// modes avoid.
func (c *Compiled) TableBytes() (fine, prof int64) { return c.fineBytes, c.profBytes }

// SlotProfile implements Source. Queries a resident profile table covers
// (n = Samples) copy the compiled row (callers own the result, per the
// Source contract); anything else falls through to the underlying source.
func (c *Compiled) SlotProfile(id int, sl timeutil.Slot, n int) []float64 {
	if n == c.samples && c.prof != nil {
		if row := c.prof.row(id, sl); row != nil {
			return append(make([]float64, 0, n), row...)
		}
	}
	return c.src.SlotProfile(id, sl, n)
}

// Volumes implements Source. The slice is shared; callers must not modify
// it.
func (c *Compiled) Volumes(sl timeutil.Slot) []VolumeEntry {
	if sl < 0 || int(sl) >= len(c.vols) {
		return nil
	}
	return c.vols[sl]
}

// PlannedVolumes implements Source. The simulator's pattern — obs one slot
// behind act — is served from the compiled table; other queries fall
// through to the underlying source.
func (c *Compiled) PlannedVolumes(obs, act timeutil.Slot) []VolumeEntry {
	if act >= 0 && int(act) < len(c.planned) && obs == obsSlot(act) {
		return c.planned[act]
	}
	return c.src.PlannedVolumes(obs, act)
}
