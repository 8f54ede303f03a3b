package correlation

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// randProfile synthesizes a deterministic pseudo-random profile. Values are
// non-negative like real utilizations; a zero fraction of samples is forced
// to exactly 0 so ties and flat stretches occur.
func randProfile(src *rng.Source, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch src.Intn(5) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 0.5 // frequent exact ties across profiles
		default:
			p[i] = src.Float64()
		}
	}
	return p
}

// TestPrunedKernelMatchesPeakCoincidence is the property test of the pruned
// kernel: over randomized profiles — including all-zero rows and equal-peak
// ties — every pairwise CPUCorr with built orders must equal the reference
// PeakCoincidence bit for bit, and CPUCorrInto must agree with per-pair
// CPUCorr. The sample counts cover rows shorter than one strip, a strip
// plus a tail, whole strips (the simulator's default 12), strips plus a
// tail, and long rows where the walk exits after its first strip.
func TestPrunedKernelMatchesPeakCoincidence(t *testing.T) {
	for _, samples := range []int{1, 3, 5, 12, 13, 97} {
		t.Run(fmt.Sprintf("samples=%d", samples), func(t *testing.T) {
			src := rng.New(7).Derive("pruned-kernel")
			for trial := 0; trial < 25; trial++ {
				ps := NewProfileSet(samples)
				n := 8 + src.Intn(24)
				rows := make([][]float64, n)
				for id := 0; id < n; id++ {
					var p []float64
					switch {
					case trial == 0 && id < 3:
						p = make([]float64, samples) // all-zero profiles
					case id%7 == 3:
						// Equal-peak ties: the shared maximum lands on a
						// VM-dependent sample.
						p = make([]float64, samples)
						p[id%samples] = 0.75
						p[(id+5)%samples] = 0.75
					case id%5 == 4:
						p = randProfile(src, samples/2) // odd-length rows
					case id%11 == 10:
						p = randProfile(src, samples+6) // longer odd rows
					default:
						p = randProfile(src, samples)
					}
					rows[id] = p
					ps.Add(id, p)
				}
				ps.EnsureOrders(nil)
				dst := make([]float64, n)
				js := make([]int, n)
				for j := range js {
					js[j] = j
				}
				for i := 0; i < n; i++ {
					ps.CPUCorrInto(dst, i, js)
					for j := 0; j < n; j++ {
						want := PeakCoincidence(rows[i], rows[j])
						if got := ps.CPUCorr(i, j); got != want {
							t.Fatalf("trial %d: CPUCorr(%d, %d) = %v, want PeakCoincidence %v",
								trial, i, j, got, want)
						}
						if dst[j] != want {
							t.Fatalf("trial %d: CPUCorrInto(%d)[%d] = %v, want %v",
								trial, i, j, dst[j], want)
						}
					}
				}
			}
		})
	}
}

// TestEnsureOrdersIncrementalAndParallel checks that orders survive
// incremental Adds, that a parallel build equals the serial one, and that
// Reset invalidates them.
func TestEnsureOrdersIncrementalAndParallel(t *testing.T) {
	src := rng.New(11).Derive("orders")
	const samples = 16
	serial := NewProfileSet(samples)
	parallel := NewProfileSet(samples)
	rows := make([][]float64, 600)
	for id := range rows {
		rows[id] = randProfile(src, samples)
	}
	for id := 0; id < 300; id++ {
		serial.Add(id, rows[id])
		parallel.Add(id, rows[id])
	}
	serial.EnsureOrders(nil)
	parallel.EnsureOrders(par.NewBudget(8))
	for id := 300; id < 600; id++ {
		serial.Add(id, rows[id])
		parallel.Add(id, rows[id])
	}
	serial.EnsureOrders(nil)
	parallel.EnsureOrders(par.NewBudget(8))
	if len(serial.ord) != 600*samples || len(parallel.ord) != 600*samples {
		t.Fatalf("ord lengths = %d / %d, want %d", len(serial.ord), len(parallel.ord), 600*samples)
	}
	for k := range serial.ord {
		if serial.ord[k] != parallel.ord[k] {
			t.Fatalf("parallel order differs from serial at %d", k)
		}
	}
	// Orders must be descending by value with ascending-index ties.
	for r := 0; r < 600; r++ {
		row := rows[r]
		ord := serial.ord[r*samples : (r+1)*samples]
		for k := 1; k < samples; k++ {
			prev, cur := ord[k-1], ord[k]
			if row[prev] < row[cur] || (row[prev] == row[cur] && prev > cur) {
				t.Fatalf("row %d: order not descending-stable at %d", r, k)
			}
		}
	}
	serial.Reset()
	if len(serial.ord) != 0 {
		t.Fatal("Reset kept stale orders")
	}
	// Unpruned queries after Reset+Add without EnsureOrders still work.
	serial.Add(0, rows[0])
	serial.Add(1, rows[1])
	if got, want := serial.CPUCorr(0, 1), PeakCoincidence(rows[0], rows[1]); got != want {
		t.Fatalf("unpruned fallback after Reset = %v, want %v", got, want)
	}
}

// TestPrunedKernelEarlyExitBound hand-checks the bound on a crafted pair
// where pruning must stop after the first sample.
func TestPrunedKernelEarlyExitBound(t *testing.T) {
	// a's largest sample coincides with b's peak: best = 1.0 + 0.4 after
	// one step, and a[t]+peakB <= best for every other t.
	a := []float64{0.1, 1.0, 0.2, 0.3}
	b := []float64{0.0, 0.4, 0.4, 0.1}
	ps := NewProfileSet(4)
	ps.Add(0, a)
	ps.Add(1, b)
	ps.EnsureOrders(nil)
	want := PeakCoincidence(a, b)
	if got := ps.CPUCorr(0, 1); got != want {
		t.Fatalf("CPUCorr = %v, want %v", got, want)
	}
	if want != 1.4/1.4 {
		t.Fatalf("fixture broken: want %v", want)
	}
	if math.IsNaN(want) {
		t.Fatal("unexpected NaN")
	}
}
