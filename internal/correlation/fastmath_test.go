package correlation

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/rng"
)

// fastProfiles builds an adversarial mix of profile shapes: random loads,
// near-idle rows (forcing the quantized denominator fallback), constant
// ties, single-sample rows, saturated rows above the quantizable range,
// and exact-zero rows.
func fastProfiles(seed uint64, n, samples int) [][]float64 {
	profs := make([][]float64, n)
	for i := range profs {
		k := uint64(i)
		switch i % 6 {
		case 0: // generic random load
			p := make([]float64, samples)
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
			profs[i] = p
		case 1: // near idle: peaks sum below the quantized denominator floor
			p := make([]float64, samples)
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t)) * 0.03
			}
			profs[i] = p
		case 2: // constant ties
			p := make([]float64, samples)
			c := 0.25 + 0.5*rng.Noise01(seed, k)
			for t := range p {
				p[t] = c
			}
			profs[i] = p
		case 3: // short row: prefix semantics against full-length partners
			profs[i] = []float64{rng.Noise01(seed, k)}
		case 4: // saturated beyond the uint16 fixed-point range
			p := make([]float64, samples)
			for t := range p {
				p[t] = 20 * rng.Noise01(seed, k, uint64(t))
			}
			profs[i] = p
		default: // all zero
			profs[i] = make([]float64, samples)
		}
	}
	return profs
}

// TestFastKernelErrorBudget is the property test of the fast mode's error
// proof: for every pair — including unquantizable rows, near-idle
// fallbacks and missing ids — |fast − exact| ≤ FastEps.
func TestFastKernelErrorBudget(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		const n, samples = 60, 17
		ps := NewProfileSet(samples)
		ps.SetFastMath(true)
		for i, p := range fastProfiles(seed, n, samples) {
			ps.Add(i, p)
		}
		ps.EnsureOrders(nil)

		js := make([]int, 0, n+1)
		for j := 0; j < n; j++ {
			js = append(js, j)
		}
		js = append(js, n+7) // missing id: both kernels answer neutral
		exact := make([]float64, len(js))
		fast := make([]float64, len(js))
		worst := 0.0
		for i := 0; i < n; i++ {
			ps.CPUCorrInto(exact, i, js)
			ps.CPUCorrFastInto(fast, i, js)
			for k := range js {
				if d := math.Abs(fast[k] - exact[k]); d > FastEps {
					t.Fatalf("seed %d pair (%d,%d): |fast-exact| = %v > FastEps %v",
						seed, i, js[k], d, FastEps)
				} else if d > worst {
					worst = d
				}
				if one := ps.CPUCorrFast(i, js[k]); one != fast[k] {
					t.Fatalf("CPUCorrFast(%d,%d) = %v, batched = %v", i, js[k], one, fast[k])
				}
			}
		}
		t.Logf("seed %d: worst |fast-exact| = %.2e (budget %.2e)", seed, worst, FastEps)
	}
}

// TestFastKernelDisabledMatchesExact verifies fast entry points degrade to
// the exact kernel when fast math is off or quantization was rejected.
func TestFastKernelDisabledMatchesExact(t *testing.T) {
	ps := NewProfileSet(8)
	ps.Add(1, []float64{0.2, 0.9, 0.4})
	ps.Add(2, []float64{0.5, 0.1, 0.8})
	ps.EnsureOrders(nil)
	if got, want := ps.CPUCorrFast(1, 2), ps.CPUCorr(1, 2); got != want {
		t.Fatalf("fast math off: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
	ps.SetFastMath(true)
	ps.Add(3, []float64{25.0, 0.1}) // unquantizable: > uint16 range
	ps.EnsureOrders(nil)
	if got, want := ps.CPUCorrFast(3, 2), ps.CPUCorr(3, 2); got != want {
		t.Fatalf("unquantizable anchor: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
	if got, want := ps.CPUCorrFast(2, 3), ps.CPUCorr(2, 3); got != want {
		t.Fatalf("unquantizable partner: CPUCorrFast = %v, CPUCorr = %v", got, want)
	}
}

// TestProfileSetGenerations pins the change-counter contract the embedding
// cache validates against: Add/Remove bump exactly the touched id, Reset
// bumps every stored id, and reads never bump anything.
func TestProfileSetGenerations(t *testing.T) {
	ps := NewProfileSet(8)
	snap := func(ids ...int) []uint64 {
		g := make([]uint64, len(ids))
		for k, id := range ids {
			g[k] = ps.Gen(id)
		}
		return g
	}
	ps.Add(1, []float64{0.1, 0.2})
	ps.Add(2, []float64{0.3, 0.4})
	ps.Add(3, []float64{0.5, 0.6})
	before := snap(1, 2, 3)

	ps.Add(2, []float64{0.7, 0.8}) // replace
	after := snap(1, 2, 3)
	if after[0] != before[0] || after[2] != before[2] {
		t.Fatalf("replace of 2 moved untouched gens: %v -> %v", before, after)
	}
	if after[1] <= before[1] {
		t.Fatalf("replace of 2 did not bump its gen: %v -> %v", before[1], after[1])
	}

	before = after
	ps.Remove(3)
	after = snap(1, 2, 3)
	if after[0] != before[0] || after[1] != before[1] {
		t.Fatalf("remove of 3 moved untouched gens: %v -> %v", before, after)
	}
	if after[2] <= before[2] {
		t.Fatalf("remove of 3 did not bump its gen")
	}

	ps.EnsureOrders(nil)
	_ = ps.CPUCorr(1, 2)
	if got := snap(1, 2, 3); got[0] != after[0] || got[1] != after[1] {
		t.Fatalf("reads bumped gens: %v -> %v", after, got)
	}

	before = snap(1, 2)
	ps.Reset()
	after = snap(1, 2)
	for k := range after {
		if after[k] <= before[k] {
			t.Fatalf("Reset did not bump stored id %d: %v -> %v", k+1, before, after)
		}
	}
	if ps.Gen(99) != 0 {
		t.Fatalf("never-seen id has nonzero gen")
	}
}

// TestDataMatrixGenerations pins the volume matrix's counters: Add bumps
// both endpoints and nothing else; RemoveVM bumps the id and every
// counterpart it communicated with; Reset bumps every stored endpoint.
func TestDataMatrixGenerations(t *testing.T) {
	m := NewDataMatrix()
	snap := func(ids ...int) []uint64 {
		g := make([]uint64, len(ids))
		for k, id := range ids {
			g[k] = m.Gen(id)
		}
		return g
	}
	m.Add(1, 2, 100)
	m.Add(2, 3, 50)
	before := snap(1, 2, 3, 4)

	m.Add(1, 2, 25) // accumulate on an existing cell
	after := snap(1, 2, 3, 4)
	if after[0] <= before[0] || after[1] <= before[1] {
		t.Fatalf("Add(1,2) did not bump both endpoints: %v -> %v", before, after)
	}
	if after[2] != before[2] || after[3] != before[3] {
		t.Fatalf("Add(1,2) moved unrelated gens: %v -> %v", before, after)
	}

	before = after
	m.RemoveVM(2)
	after = snap(1, 2, 3, 4)
	// 2 communicated with 1 and 3: all three must move, 4 must not.
	for k, id := range []int{1, 2, 3} {
		if after[k] <= before[k] {
			t.Fatalf("RemoveVM(2) did not bump id %d: %v -> %v", id, before, after)
		}
	}
	if after[3] != before[3] {
		t.Fatalf("RemoveVM(2) moved uninvolved id 4")
	}

	m.Add(5, 6, 10)
	before = snap(5, 6)
	m.Reset()
	after = snap(5, 6)
	for k := range after {
		if after[k] <= before[k] {
			t.Fatalf("Reset did not bump stored endpoint %d: %v -> %v", k+5, before, after)
		}
	}
}

// BenchmarkCPUCorrInto measures the exact pruned kernel against the
// quantized fast kernel in the sampled embedding's call shape — one anchor
// row against 96 hashed partners out of 3000 standard rows — at the
// simulator's default 12 samples per profile and at 96, so kernel-level
// wins are visible without running a full experiment cell.
func BenchmarkCPUCorrInto(b *testing.B) {
	const n, partners = 3000, 96
	for _, samples := range []int{12, 96} {
		for _, mode := range []string{"exact", "fast"} {
			b.Run(fmt.Sprintf("%s/samples=%d", mode, samples), func(b *testing.B) {
				ps := NewProfileSet(samples)
				ps.SetFastMath(mode == "fast")
				for i := 0; i < n; i++ {
					p := make([]float64, samples)
					for t := range p {
						p[t] = rng.Noise01(7, uint64(i), uint64(t))
					}
					ps.Add(i, p)
				}
				ps.EnsureOrders(nil)
				js := make([]int, n*partners)
				for k := range js {
					js[k] = int(rng.Hash(11, uint64(k)) % n)
				}
				dst := make([]float64, partners)
				kernel := ps.CPUCorrInto
				if mode == "fast" {
					kernel = ps.CPUCorrFastInto
				}
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					i := it % n
					kernel(dst, i, js[i*partners:(i+1)*partners])
				}
				b.ReportMetric(float64(b.N)*partners/b.Elapsed().Seconds()/1e6, "Mpairs/s")
			})
		}
	}
}
