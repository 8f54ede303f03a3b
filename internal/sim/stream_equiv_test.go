package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// budgetScenario builds the tiny test world over a *compiled* workload
// with an explicit fine-table budget — Build leaves the raw synthetic
// workload in place, so the compile is explicit here, exactly like the
// experiment engine's column compile.
func budgetScenario(t *testing.T, seed uint64, budget int64) (*sim.Scenario, *trace.Compiled) {
	t.Helper()
	spec := config.Spec{
		Scale:             0.01,
		Seed:              seed,
		Horizon:           timeutil.Hours(8),
		FineStepSec:       300,
		MaxFineTableBytes: budget,
	}
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := config.CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc.Workload = c
	return sc, c
}

// TestChunkedRunBitIdentical is the out-of-core acceptance property: a run
// whose compiled tables stream through bounded chunk windows must produce
// a Result byte-identical to the unbounded in-core run — same costs, same
// energy, same response samples, same migration trace — for every policy
// family and several chunk widths. The budgets derive widths of one slot,
// of slots that do not divide the 8-slot horizon, and of a divisor.
func TestChunkedRunBitIdentical(t *testing.T) {
	pols := func(seed uint64) []policy.Policy {
		return []policy.Policy{core.New(0.9, seed), policy.EnerAware{}, policy.NetAware{}}
	}
	_, full := budgetScenario(t, 31, 0)
	fineBytes, _ := full.TableBytes()
	widths := map[int]bool{}
	for _, budget := range []int64{1, fineBytes / 3, fineBytes / 2} {
		_, c := budgetScenario(t, 31, budget)
		chunk := c.FineChunkSlots()
		if chunk == 0 {
			t.Fatalf("budget %d did not chunk the fine table", budget)
		}
		widths[chunk] = true
		for pi := range pols(31) {
			sc, _ := budgetScenario(t, 31, 0)
			want, err := sim.Run(sc, pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			sc, _ = budgetScenario(t, 31, budget)
			got, err := sim.Run(sc, pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chunk %d, policy %s: chunked run diverged: cost %v vs %v, energy %v vs %v, migrations %d vs %d, worst resp %v vs %v",
					chunk, want.Policy, got.OpCost, want.OpCost, got.TotalEnergy, want.TotalEnergy,
					got.Migrations, want.Migrations, got.WorstResp(), want.WorstResp())
			}
		}
	}
	if len(widths) < 3 || !widths[1] || !widths[3] {
		t.Fatalf("budgets derived widths %v, want three including 1 and 3", widths)
	}
}

// flickerSource answers ActiveVMs differently on every call: the slot's
// VMs on even calls, one VM more on odd calls.
type flickerSource struct {
	trace.Source
	calls int
}

func (f *flickerSource) ActiveVMs(sl timeutil.Slot) []int {
	f.calls++
	ids := f.Source.ActiveVMs(sl)
	if f.calls%2 == 0 {
		return ids
	}
	seen := map[int]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for id := 0; id < f.Source.NumVMs(); id++ {
		if !seen[id] {
			return append(append([]int(nil), ids...), id)
		}
	}
	return ids
}

// TestMissingRowIsAnError asserts a VM the run's rows do not cover — here
// one a flickering source reports active only to the simulator — fails
// the run with an error naming the VM and slot instead of being read
// behind the cursor's back.
func TestMissingRowIsAnError(t *testing.T) {
	sc, _ := budgetScenario(t, 31, 0)
	sc.Workload = &flickerSource{Source: sc.Workload}
	_, err := sim.Run(sc, policy.EnerAware{})
	if err == nil || !strings.Contains(err.Error(), "no profile row for active VM") || !strings.Contains(err.Error(), "at slot 0") {
		t.Fatalf("err = %v, want a missing-row error at slot 0", err)
	}
}
