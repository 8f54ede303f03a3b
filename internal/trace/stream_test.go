package trace

import (
	"reflect"
	"testing"

	"geovmp/internal/timeutil"
)

// chunkedPair compiles the same workload twice: unbounded (resident
// tables) and under a budget of `width` peak slots, so both tables stream
// in `width`-slot windows (at a 300 s step the fine rows and the profiles
// are both 12 floats, so the two tables derive the same width).
func chunkedPair(t *testing.T, width int) (*Workload, *Compiled, *Compiled) {
	t.Helper()
	w := New(Config{Seed: 21, Horizon: timeutil.Hours(9), InitialVMs: 30, MeanLifeSlots: 3})
	res := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	budget := int64(width) * res.fineSlotPeak
	chk := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: budget})
	if chk.FineChunkSlots() != width || chk.ProfileChunkSlots() != width {
		t.Fatalf("budget %d: chunk widths (fine %d, prof %d), want %d",
			budget, chk.FineChunkSlots(), chk.ProfileChunkSlots(), width)
	}
	if res.fine == nil || res.prof == nil {
		t.Fatal("unbounded compile should stay resident")
	}
	return w, res, chk
}

// TestFineCursorMatchesResident asserts the streamed fine rows are
// byte-identical to the resident table at every (vm, slot), for chunk
// widths that divide and straddle the horizon, and that a resident
// table's cursor never writes the shared window.
func TestFineCursorMatchesResident(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		w, res, chk := chunkedPair(t, width)
		cur := NewCursor(chk, 12, 300, nil)
		ref := NewCursor(res, 12, 300, nil)
		if ref.fine != res.fine || cur.fine == chk.fine {
			t.Fatal("only a resident table shares its window")
		}
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			cur.Advance(sl)
			ref.Advance(sl)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.FineRow(id, sl)
				want := ref.FineRow(id, sl)
				if got == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: fine row (%d,%d) = %v, want %v", width, id, sl, got, want)
				}
			}
		}
		if res.fine.lo != 0 || res.fine.hi != w.Slots() {
			t.Fatal("advancing moved the resident window")
		}
	}
}

// TestProfileCursorMatchesResident asserts the streamed observation-slot
// profiles are byte-identical to the resident table over the simulator's
// access pattern (obs = max(sl-1, 0) for ids active at sl).
func TestProfileCursorMatchesResident(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		w, res, chk := chunkedPair(t, width)
		cur := NewCursor(chk, 12, 300, nil)
		ref := NewCursor(res, 12, 300, nil)
		for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
			obs := obsSlot(sl)
			cur.Advance(sl)
			for _, id := range w.ActiveVMs(sl) {
				got := cur.ProfileRow(id, obs)
				want := ref.ProfileRow(id, obs)
				if got == nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("width %d: profile row (%d,%d) = %v, want %v", width, id, obs, got, want)
				}
			}
		}
	}
}

// TestLiveCursorMatchesResident asserts the one-slot reader over the raw
// source serves the resident table's rows for every active VM, and none
// for VMs outside the slot.
func TestLiveCursorMatchesResident(t *testing.T) {
	w, res, _ := chunkedPair(t, 1)
	live := NewCursor(w, 12, 300, nil)
	ref := NewCursor(res, 12, 300, nil)
	for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
		live.Advance(sl)
		active := map[int]bool{}
		for _, id := range w.ActiveVMs(sl) {
			active[id] = true
			if got, want := live.FineRow(id, sl), ref.FineRow(id, sl); got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("fine row (%d,%d) = %v, want %v", id, sl, got, want)
			}
			if got, want := live.ProfileRow(id, obsSlot(sl)), ref.ProfileRow(id, obsSlot(sl)); got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("profile row (%d,%d) = %v, want %v", id, obsSlot(sl), got, want)
			}
		}
		for id := 0; id < w.NumVMs(); id++ {
			if !active[id] && live.FineRow(id, sl) != nil {
				t.Fatalf("inactive VM %d has a fine row at slot %d", id, sl)
			}
		}
	}
	// A compiled trace built for other parameters is read like any source.
	if other := NewCursor(res, 6, 300, nil); !other.live {
		t.Fatal("mismatched samples should fall back to the one-slot reader")
	}
}

// TestChunkWidthFromBudget asserts the derived chunk width scales with the
// budget: a budget covering k slot-peaks yields a k-slot window, floored
// at one slot.
func TestChunkWidthFromBudget(t *testing.T) {
	w := New(Config{Seed: 3, Horizon: timeutil.Hours(8), InitialVMs: 25})
	base := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})
	fineBytes, _ := base.TableBytes()
	if fineBytes <= 0 {
		t.Fatal("expected a non-empty fine table")
	}
	// Half the full table forces chunking with a window of >= 1 slot.
	c := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: fineBytes / 2})
	if got := c.FineChunkSlots(); got < 1 || got >= int(w.Slots()) {
		t.Fatalf("chunk width %d out of (0, slots)", got)
	}
	// A 1-byte budget bottoms out at one slot, never zero.
	c1 := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if got := c1.FineChunkSlots(); got != 1 {
		t.Fatalf("1-byte budget chunk width = %d, want 1", got)
	}
}

// TestCompileFastPathRespectsBudget covers the already-compiled fast path:
// recompiling with a different fine-table configuration must produce a new
// Compiled, not return the old one (the pre-fix behavior ignored the
// budget and handed back whatever was compiled first).
func TestCompileFastPathRespectsBudget(t *testing.T) {
	w := New(Config{Seed: 5, Horizon: timeutil.Hours(6), InitialVMs: 20})
	resident := Compile(w, CompileOptions{Samples: 12, FineStepSec: 300})

	// Same options: reuse.
	if again := Compile(resident, CompileOptions{Samples: 12, FineStepSec: 300}); again != resident {
		t.Fatal("identical options must reuse the compiled trace")
	}

	// Tiny budget: the resident compile is incompatible.
	chunked := Compile(resident, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1})
	if chunked == resident {
		t.Fatal("budgeted recompile returned the unbounded table")
	}
	if chunked.FineChunkSlots() == 0 {
		t.Fatal("budgeted recompile should be chunked")
	}

	// Same budget again: the chunked compile is compatible with itself.
	if again := Compile(chunked, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 1}); again != chunked {
		t.Fatal("identical budgeted options must reuse the compiled trace")
	}

	// A budget that derives another width recompiles too.
	if wider := Compile(chunked, CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: 2 * chunked.fineSlotPeak}); wider == chunked {
		t.Fatal("a different derived width must recompile")
	}
}
