package embed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"geovmp/internal/par"
)

// pinDigest hashes a float trace bit for bit (FNV-64a over the IEEE-754
// bits), so a pinned digest fails on any change of any output bit.
func pinDigest(vals ...float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// resultDigest hashes positions in ids order, the iteration count and the
// cost trace.
func resultDigest(ids []int, r Result) uint64 {
	vals := make([]float64, 0, 2*len(ids)+1+len(r.Cost))
	for _, id := range ids {
		vals = append(vals, r.Pos[id].X, r.Pos[id].Y)
	}
	vals = append(vals, float64(r.Iterations))
	vals = append(vals, r.Cost...)
	return pinDigest(vals...)
}

// TestSampledPathPinned pins the sampled embedding and RefineOne to
// recorded digests, so an optimization of the hashed-peer draw, the sample
// classification or the force accumulation that moves any output bit
// fails here (the equivalence tests only compare two runs of the same
// code). The cases cover attraction peers drawn as repulsion samples,
// self-draws, coincident starting points, the generic Force-only field,
// shared workers and the fast-math peer freeze.
func TestSampledPathPinned(t *testing.T) {
	seq := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	// Coincident starting points exercise the hashed-angle fallback.
	stacked := map[int]Point{}
	for id := 0; id < 40; id++ {
		stacked[id] = Point{X: float64(id % 4), Y: 1}
	}
	for _, tc := range []struct {
		name  string
		n     int
		field Field
		init  map[int]Point
		cfg   Config
		want  uint64
	}{
		{"default-threshold-workers", 700, splitHashField{seed: 99, n: 700}, nil,
			Config{Seed: 5, Workers: par.NewBudget(3)}, 0xdedc4e3a6381465d},
		{"dense-self-draws", 48, splitHashField{seed: 7, n: 48}, stacked,
			Config{Seed: 9, ExactThreshold: 16, SampleK: 64}, 0xfded2fa3ec81d7a4},
		{"force-only", 160, forceOnlyField{f: splitHashField{seed: 99, n: 160}}, stacked,
			Config{Seed: 5, ExactThreshold: 32, SampleK: 24, MaxIters: 12}, 0xb2f60ad5933d9223},
		{"fast-freeze", 300, splitHashField{seed: 3, n: 300}, nil,
			Config{Seed: 4, ExactThreshold: 64, SampleK: 32, FastMath: true, Workers: par.NewBudget(1)}, 0x3355c66bbd9d4f8d},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ids := seq(tc.n)
			got := resultDigest(ids, Run(ids, tc.init, tc.field, tc.cfg))
			if got != tc.want {
				t.Fatalf("digest = %#x, want %#x", got, tc.want)
			}
		})
	}
	t.Run("refine-one", func(t *testing.T) {
		const n = 300
		field := splitHashField{seed: 21, n: n}
		pos := make(map[int]Point, n)
		others := make([]int, 0, n-1)
		for id := 0; id < n; id++ {
			if id != 150 {
				pos[id] = InitialPosition(id, 10, 77)
				others = append(others, id)
			}
		}
		// The arriving point sits on a resident to hit the zero-distance
		// fallback, and draws itself from others.
		pos[150] = pos[151]
		others = append(others, 150)
		var vals []float64
		for _, k := range []int{8, 96} {
			p := RefineOne(150, others, pos, field, Config{Seed: 13, SampleK: k}, 10)
			vals = append(vals, p.X, p.Y)
		}
		if got, want := pinDigest(vals...), uint64(0x74dcf1f39fd772d0); got != want {
			t.Fatalf("digest = %#x, want %#x", got, want)
		}
	})
}
