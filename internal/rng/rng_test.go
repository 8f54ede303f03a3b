package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	s1 := parent.Derive("arrivals")
	// Consuming draws from the parent must not change derived streams.
	for i := 0; i < 50; i++ {
		parent.Uint64()
	}
	s2 := New(7).Derive("arrivals")
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("derived stream depends on parent consumption at draw %d", i)
		}
	}
}

func TestDeriveLabelsDiffer(t *testing.T) {
	p := New(7)
	a := p.Derive("a")
	b := p.Derive("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalFromMean(t *testing.T) {
	s := New(17)
	const want = 10e6 // 10 MB, the paper's mean volume
	for _, sigma2 := range []float64{1, 2, 4} {
		var sum float64
		const n = 300000
		for i := 0; i < n; i++ {
			sum += s.LogNormalFromMean(want, sigma2)
		}
		mean := sum / n
		// Heavy-tailed: accept 10% relative error on the sample mean.
		if math.Abs(mean-want)/want > 0.10 {
			t.Errorf("sigma2=%v: lognormal mean = %v, want ~%v", sigma2, mean, want)
		}
	}
}

func TestLogNormalNonPositiveMean(t *testing.T) {
	s := New(1)
	if got := s.LogNormalFromMean(0, 1); got != 0 {
		t.Fatalf("LogNormalFromMean(0,1) = %v, want 0", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(19)
	const want = 8.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(want)
	}
	if mean := sum / n; math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("exponential mean = %v, want ~%v", mean, want)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(23)
	for _, lambda := range []float64{0.5, 4, 20, 100} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("lambda=%v: poisson mean = %v", lambda, mean)
		}
	}
}

func TestPoissonZeroRate(t *testing.T) {
	s := New(1)
	if got := s.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", got)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	s := New(29)
	// The paper's BER probabilities.
	weights := []float64{0.54, 0.20, 0.15, 0.10, 0.01}
	counts := make([]int, len(weights))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[s.Categorical(weights)]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("class %d frequency = %v, want ~%v", i, got, w)
		}
	}
}

func TestCategoricalSkipsNonPositive(t *testing.T) {
	s := New(31)
	weights := []float64{0, 1, 0}
	for i := 0; i < 100; i++ {
		if got := s.Categorical(weights); got != 1 {
			t.Fatalf("Categorical skipped positive class: got %d", got)
		}
	}
}

func TestCategoricalPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for all-zero weights")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestPermIsPermutation(t *testing.T) {
	s := New(37)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNoiseStateless(t *testing.T) {
	a := Noise01(1, 2, 3)
	b := Noise01(1, 2, 3)
	if a != b {
		t.Fatal("Noise01 not stateless")
	}
	if Noise01(1, 2, 3) == Noise01(1, 2, 4) {
		t.Fatal("Noise01 insensitive to last key")
	}
	if Noise01(1, 2, 3) == Noise01(3, 2, 1) {
		t.Fatal("Noise01 insensitive to key order")
	}
}

func TestNoise01Range(t *testing.T) {
	f := func(a, b uint64) bool {
		v := Noise01(a, b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoiseNormFinite(t *testing.T) {
	f := func(a, b uint64) bool {
		v := NoiseNorm(a, b)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSmoothNoiseContinuity(t *testing.T) {
	// SmoothNoise should have no jumps: sample at small increments and bound
	// the step change.
	prev := SmoothNoise(0, 99)
	for x := 0.01; x < 5; x += 0.01 {
		v := SmoothNoise(x, 99)
		if math.Abs(v-prev) > 0.05 {
			t.Fatalf("jump of %v at x=%v", math.Abs(v-prev), x)
		}
		prev = v
	}
}

func TestSmoothNoiseMatchesLatticeAtIntegers(t *testing.T) {
	for x := 0; x < 10; x++ {
		want := Noise01(7, uint64(int64(x)))
		got := SmoothNoise(float64(x), 7)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("SmoothNoise(%d) = %v, want lattice %v", x, got, want)
		}
	}
}

// TestHashExtendMatchesHash checks the prefix-extension identity the hot
// sampling loops rely on: extending Hash(a, b, c) by a pre-mixed key equals
// hashing all four keys, for random and edge-case keys.
func TestHashExtendMatchesHash(t *testing.T) {
	src := New(5).Derive("hash-extend")
	edge := []uint64{0, 1, math.MaxUint64, 0x9e3779b97f4a7c15, -0x9e3779b97f4a7c15 & math.MaxUint64}
	for trial := 0; trial < 2000; trial++ {
		a, b, c, k := src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()
		if trial < len(edge) {
			k = edge[trial]
		}
		if trial%3 == 0 {
			a, b, c = uint64(trial), 0, uint64(trial%7)
		}
		if got, want := HashExtend(Hash(a, b, c), HashKey(k)), Hash(a, b, c, k); got != want {
			t.Fatalf("HashExtend(Hash(%d, %d, %d), HashKey(%d)) = %#x, want %#x", a, b, c, k, got, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNoise01(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Noise01(uint64(i), 42)
	}
}
