package trace

import (
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// window is one slot range [lo, hi) of a row table — fine-step
// utilizations or per-slot profiles — with per-VM row runs packed into a
// single buffer. A resident compiled table is one window over the whole
// horizon; a streamed table re-lays a reused window chunk by chunk.
type window struct {
	rowLen int             // floats per row (fine steps or profile samples)
	lo, hi timeutil.Slot   // current range [lo, hi); unpositioned when lo >= hi
	start  []timeutil.Slot // per VM: first covered slot in range (-1: none)
	end    []timeutil.Slot // per VM: last covered slot (inclusive)
	off    []int           // per VM: first row index into buf
	buf    []float64
}

func newWindow(numVMs, rowLen int) *window {
	return &window{
		rowLen: rowLen,
		lo:     1, // unpositioned
		start:  make([]timeutil.Slot, numVMs),
		end:    make([]timeutil.Slot, numVMs),
		off:    make([]int, numVMs),
	}
}

// layout positions the window on [lo, hi) with one row run per VM over
// cover(id) ∩ [lo, hi); cover returns a > b for VMs without rows.
func (w *window) layout(lo, hi timeutil.Slot, cover func(id int) (a, b timeutil.Slot)) {
	w.lo, w.hi = lo, hi
	rows := 0
	for id := range w.start {
		a, b := cover(id)
		a, b = max(a, lo), min(b, hi-1)
		if a > b {
			w.start[id] = -1
			continue
		}
		w.start[id], w.end[id], w.off[id] = a, b, rows
		rows += int(b - a + 1)
	}
	need := rows * w.rowLen
	if w.buf == nil || cap(w.buf) < need {
		w.buf = make([]float64, need)
	}
	w.buf = w.buf[:need]
}

// fill writes every covered row with f. VMs are sharded over workers; each
// VM owns its rows, so any worker count produces identical bytes.
func (w *window) fill(workers *par.Budget, f func(id int, sl timeutil.Slot, row []float64)) {
	if w.rowLen == 0 {
		return
	}
	par.For(workers, len(w.start), vmRowGrain, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			a := w.start[id]
			if a < 0 {
				continue
			}
			for sl := a; sl <= w.end[id]; sl++ {
				k := w.off[id] + int(sl-a)
				f(id, sl, w.buf[k*w.rowLen:(k+1)*w.rowLen])
			}
		}
	})
}

// row returns the buffered row for (id, sl), or nil when uncovered. Pure
// read — safe from concurrent readers between layouts.
func (w *window) row(id int, sl timeutil.Slot) []float64 {
	if id < 0 || id >= len(w.start) || sl < w.lo || sl >= w.hi {
		return nil
	}
	a := w.start[id]
	if a < 0 || sl < a || sl > w.end[id] {
		return nil
	}
	k := w.off[id] + int(sl-a)
	return w.buf[k*w.rowLen : (k+1)*w.rowLen]
}

// covers returns the row covers of per-VM active windows [first, last]
// (first < 0: never active): the slots themselves for fine rows, and their
// observation slots for profile rows.
func covers(first, last []timeutil.Slot) (act, obs func(id int) (a, b timeutil.Slot)) {
	act = func(id int) (a, b timeutil.Slot) {
		if first[id] < 0 {
			return 1, 0
		}
		return first[id], last[id]
	}
	obs = func(id int) (a, b timeutil.Slot) {
		if first[id] < 0 {
			return 1, 0
		}
		return obsSlot(first[id]), obsSlot(last[id])
	}
	return act, obs
}

// fineSteps returns, per slot of [lo, hi), the Util steps of the
// simulator's fine loop at period dt — replicated bit-for-bit, including
// its floating-point time accumulation.
func fineSteps(lo, hi timeutil.Slot, dt float64) [][]timeutil.Step {
	out := make([][]timeutil.Step, hi-lo)
	for sl := lo; sl < hi; sl++ {
		start := sl.Seconds()
		for t := 0.0; t < timeutil.SlotSeconds; t += dt {
			out[sl-lo] = append(out[sl-lo], timeutil.Step(int64(start+t)/timeutil.StepSeconds))
		}
	}
	return out
}

// fillFine returns the fine-row filler of the window [lo, hi): row k is
// src.Util at the k-th step of the simulator's fine loop.
func fillFine(src Source, lo, hi timeutil.Slot, dt float64) func(int, timeutil.Slot, []float64) {
	steps := fineSteps(lo, hi, dt)
	return func(id int, sl timeutil.Slot, row []float64) {
		for k, st := range steps[sl-lo] {
			row[k] = src.Util(id, st)
		}
	}
}

// fillProfile writes the source's profile of (id, sl) into row, in place
// when the source supports it.
func fillProfile(src Source) func(int, timeutil.Slot, []float64) {
	if filler, ok := src.(slotProfileFiller); ok {
		return func(id int, sl timeutil.Slot, row []float64) { filler.FillSlotProfile(row, id, sl) }
	}
	return func(id int, sl timeutil.Slot, row []float64) { copy(row, src.SlotProfile(id, sl, len(row))) }
}

// Cursor is the simulator's one reader of profile and fine-step rows. One
// cursor serves one run: Advance is called serially, once per slot, and
// FineRow / ProfileRow are safe for the run's concurrent readers in
// between. Every row holds the values the source itself returns — Util at
// the fine loop's steps, SlotProfile at the run's sample count — whichever
// window serves it.
type Cursor struct {
	src     Source
	workers *par.Budget
	dt      float64
	// first/last bound the slots each VM has rows for: a compiled trace's
	// active windows, or — for a one-slot reader over any other source —
	// the advanced slot's active VMs.
	first, last        []timeutil.Slot
	actCover, obsCover func(id int) (a, b timeutil.Slot)
	live               bool  // first/last follow src.ActiveVMs slot by slot
	ids                []int // live: the VMs marked in first/last
	fine, prof         *window
	// Slots per window the cursor re-lays itself; 0 for a resident table's
	// shared window, which spans the horizon and is never written.
	fineWidth, profWidth int
}

// NewCursor returns the row reader of one run over src at the run's
// profile length and fine step (both resolved). It picks by what it is
// given:
//
//   - a *Compiled built for (samples, fineStepSec) serves a resident table
//     from its one whole-horizon window, shared read-only by every cursor,
//     and an over-budget table from a per-run window of the derived chunk
//     width, filled from the compiled source;
//   - any other source gets per-run windows one slot wide, filled straight
//     from the source at each Advance.
//
// workers optionally lends goroutines to window fills.
func NewCursor(src Source, samples int, fineStepSec float64, workers *par.Budget) *Cursor {
	steps := fineStepsPerSlot(fineStepSec)
	cur := &Cursor{src: src, workers: workers, dt: fineStepSec}
	if c, ok := src.(*Compiled); ok && c.samples == samples && c.dt == fineStepSec {
		cur.src, cur.first, cur.last = c.src, c.first, c.last
		cur.fine, cur.fineWidth = c.fine, c.fineChunk
		if c.fine == nil {
			cur.fine = newWindow(c.numVMs, steps)
		}
		cur.prof, cur.profWidth = c.prof, c.profChunk
		if c.prof == nil {
			cur.prof = newWindow(c.numVMs, samples)
		}
	} else {
		numVMs := src.NumVMs()
		cur.live, cur.fineWidth, cur.profWidth = true, 1, 1
		cur.first = make([]timeutil.Slot, numVMs)
		cur.last = make([]timeutil.Slot, numVMs)
		for id := range cur.first {
			cur.first[id] = -1
		}
		cur.fine = newWindow(numVMs, steps)
		cur.prof = newWindow(numVMs, samples)
	}
	cur.actCover, cur.obsCover = covers(cur.first, cur.last)
	return cur
}

// Advance positions the cursor on slot sl: fine rows of sl and profile rows
// of its observation slot, filling whichever per-run window moved. Must not
// run concurrently with FineRow or ProfileRow.
func (cur *Cursor) Advance(sl timeutil.Slot) {
	if cur.live {
		for _, id := range cur.ids {
			cur.first[id] = -1
		}
		cur.ids = cur.ids[:0]
		for _, id := range cur.src.ActiveVMs(sl) {
			if id >= 0 && id < len(cur.first) {
				cur.first[id], cur.last[id] = sl, sl
				cur.ids = append(cur.ids, id)
			}
		}
	}
	if lo, hi, ok := cur.move(cur.fine, cur.fineWidth, sl); ok {
		cur.fine.layout(lo, hi, cur.actCover)
		cur.fine.fill(cur.workers, fillFine(cur.src, lo, hi, cur.dt))
	}
	if lo, hi, ok := cur.move(cur.prof, cur.profWidth, obsSlot(sl)); ok {
		cur.prof.layout(lo, hi, cur.obsCover)
		cur.prof.fill(cur.workers, fillProfile(cur.src))
	}
}

// move returns the width-slot chunk containing sl when a per-run window
// must be re-laid for it: always for a live reader, whose rows follow the
// slot's active VMs, otherwise only when sl left the current chunk.
func (cur *Cursor) move(w *window, width int, sl timeutil.Slot) (lo, hi timeutil.Slot, ok bool) {
	if width == 0 || !cur.live && sl >= w.lo && sl < w.hi {
		return 0, 0, false
	}
	lo = sl - sl%timeutil.Slot(width)
	return lo, min(lo+timeutil.Slot(width), cur.src.Slots()), true
}

// FineRow returns the VM's utilization at every fine step of slot sl — row
// k is Util at the k-th iteration of the simulator's fine loop — or nil
// when the current window does not cover (id, sl). The row is read-only.
func (cur *Cursor) FineRow(id int, sl timeutil.Slot) []float64 { return cur.fine.row(id, sl) }

// ProfileRow returns the VM's profile of observation slot obs, or nil when
// the current window does not cover (id, obs). The row is read-only and
// may be overwritten by the next Advance; consumers that retain rows copy
// them (correlation.ProfileSet.Add copies standard-length rows).
func (cur *Cursor) ProfileRow(id int, obs timeutil.Slot) []float64 { return cur.prof.row(id, obs) }

// WindowBytes returns the resident footprint of the cursor's fine and
// profile windows, shared resident tables included.
func (cur *Cursor) WindowBytes() int64 { return int64(len(cur.fine.buf)+len(cur.prof.buf)) * 8 }
