package embed

import (
	"math"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// runSampledFast is the fast-math counterpart of runSampled. Two changes
// buy the speed:
//
//   - Each point's SampleK hashed repulsion peers are frozen for the whole
//     run (the draw the exact mode would use on its first iteration)
//     instead of redrawn per iteration, so their forces are evaluated once
//     into a per-run table and every iteration is pure float arithmetic —
//     no profile walks, no volume probes.
//   - With a Cache and a GenField, the force table survives across runs:
//     a row is recomputed only when the point's or one of its sampled
//     peers' generation counters moved, so a warm restart over a mostly
//     unchanged fleet (the epoch boundary this mode targets) pays only for
//     the changed rows. Reuse is exact — a hit is bit-identical to a fresh
//     evaluation.
//
// Attraction stays exact over the sparse data pairs, and the iteration,
// displacement and stopping machinery is runSampled's unchanged. All
// sharded passes write disjoint rows, so results are bit-identical at any
// worker count.
func runSampledFast(ids []int, idx map[int]int, px, py []float64, field Field, cfg Config) (int, []float64) {
	n := len(ids)
	sf, _ := field.(SplitField)
	gf, _ := field.(GenField)
	apairs, attracted := buildAttraction(ids, idx, field)
	prevD := make([]float64, len(apairs))
	for k, p := range apairs {
		dx := px[p.i] - px[p.j]
		dy := py[p.i] - py[p.j]
		prevD[k] = math.Sqrt(dx*dx + dy*dy)
	}

	K := cfg.SampleK
	cache := cfg.Cache
	if gf == nil {
		cache = nil // no change counters: nothing to validate reuse with
	}

	// The frozen peer table and the force table, either cache-backed
	// (surviving the run) or run-local. The hashed peer indices are a pure
	// function of (seed, SampleK, n, point), so a cache whose signature —
	// seed, SampleK and the exact ids slice — matches the run still holds
	// the correct peers and only the generation counters decide reuse.
	sigOK := cache != nil && cache.seed == cfg.Seed && cache.k == K && sameIDs(cache.ids, ids)
	var kj []int32
	var ff []float64
	if cache != nil {
		if !sigOK {
			cache.ids = append(cache.ids[:0], ids...)
			cache.seed = cfg.Seed
			cache.k = K
			cache.gens = cache.gens[:0]
			if cap(cache.kj) < n*K {
				cache.kj = make([]int32, n*K)
				cache.f = make([]float64, n*K)
			}
			cache.kj = cache.kj[:n*K]
			cache.f = cache.f[:n*K]
		}
		kj, ff = cache.kj, cache.f
	} else {
		kj = make([]int32, n*K)
		ff = make([]float64, n*K)
	}
	if !sigOK {
		keys := sampleKeys(K)
		par.For(cfg.Workers, n, sampledPointGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pre := rng.Hash(cfg.Seed, uint64(i), 0)
				for k, key := range keys {
					kj[i*K+k] = int32(drawPeer(pre, key, n))
				}
			}
		})
	}

	// Row validity against the cached generation snapshot: row i is
	// reusable only if neither the point nor any of its sampled peers
	// changed. The scan runs serially (it is O(n*SampleK) flag reads), so
	// the reuse accounting is deterministic.
	var gens []uint64
	if gf != nil {
		gens = make([]uint64, n)
		for i, id := range ids {
			gens[i] = gf.Generation(id)
		}
	}
	valid := make([]bool, n)
	reused := 0
	if sigOK && len(cache.gens) == n {
		changed := make([]bool, n)
		for i := range gens {
			changed[i] = gens[i] != cache.gens[i]
		}
		for i := 0; i < n; i++ {
			if changed[i] {
				continue
			}
			ok := true
			base := i * K
			for k := 0; k < K; k++ {
				if changed[kj[base+k]] {
					ok = false
					break
				}
			}
			if ok {
				valid[i] = true
				reused++
			}
		}
	}
	if cache != nil {
		cache.gens = append(cache.gens[:0], gens...)
		cache.Stats.RowsReused += uint64(reused)
		cache.Stats.RowsComputed += uint64(n - reused)
	}

	// Force table fill: one batched repulsion row per invalid point, with
	// attraction peers taking the full Force exactly as in runSampled.
	par.For(cfg.Workers, n, sampledPointGrain, func(lo, hi int) {
		var scr *sampleScratch
		if sf != nil {
			scr = samplePool.Get().(*sampleScratch)
			defer samplePool.Put(scr)
		}
		for i := lo; i < hi; i++ {
			if valid[i] {
				continue
			}
			base := i * K
			if sf == nil {
				for k := 0; k < K; k++ {
					if j := int(kj[base+k]); j == i {
						ff[base+k] = 0
					} else {
						ff[base+k] = field.Force(ids[i], ids[j])
					}
				}
				continue
			}
			att := attracted[i]
			js := scr.js[:0]
			for k := 0; k < K; k++ {
				j := kj[base+k]
				if int(j) != i && !containsIdx(att, j) {
					js = append(js, ids[j])
				}
			}
			if cap(scr.dst) < len(js) {
				scr.dst = make([]float64, len(js))
			}
			rep := scr.dst[:len(js)]
			sf.RepulsionRow(ids[i], js, rep)
			scr.js = js
			cur := 0
			for k := 0; k < K; k++ {
				j := int(kj[base+k])
				switch {
				case j == i:
					ff[base+k] = 0
				case containsIdx(att, int32(j)):
					ff[base+k] = field.Force(ids[i], ids[j])
				default:
					ff[base+k] = rep[cur]
					cur++
				}
			}
		}
	})

	scale := float64(n-1) / float64(K) * cfg.repulsionWeight(n)
	rw := cfg.repulsionWeight(n)
	weight := func(f float64) float64 {
		if f > 0 {
			return f * rw
		}
		return f
	}
	fx := make([]float64, n)
	fy := make([]float64, n)
	var costs []float64
	peak := 0.0
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		for k := range apairs {
			p := &apairs[k]
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1e-9 {
				ang := rng.Noise01(cfg.Seed, uint64(p.i), uint64(p.j), uint64(iter)) * 2 * math.Pi
				dx, dy, d = math.Cos(ang), math.Sin(ang), 1
			}
			ux, uy := dx/d, dy/d
			fx[p.i] += weight(p.fij) * ux
			fy[p.i] += weight(p.fij) * uy
			fx[p.j] -= weight(p.fji) * ux
			fy[p.j] -= weight(p.fji) * uy
		}
		// The repulsion pass reads only the frozen force table and the
		// positions (frozen for the pass), and writes fx[i]/fy[i] in
		// sample order — bit-identical at any worker count.
		par.For(cfg.Workers, n, sampledPointGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				base := i * K
				for k := 0; k < K; k++ {
					f := ff[base+k]
					if f <= 0 {
						continue // attraction handled exactly above
					}
					j := int(kj[base+k])
					dx := px[i] - px[j]
					dy := py[i] - py[j]
					d := math.Sqrt(dx*dx + dy*dy)
					if d < 1e-9 {
						ang := rng.Noise01(cfg.Seed, uint64(i), uint64(j), uint64(iter)) * 2 * math.Pi
						dx, dy, d = math.Cos(ang), math.Sin(ang), 1
					}
					fx[i] += f * scale * dx / d
					fy[i] += f * scale * dy / d
				}
			}
		})
		displace(px, py, fx, fy, cfg)

		var cost float64
		for k, p := range apairs {
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			cost += (p.fij + p.fji) * (d - prevD[k])
			prevD[k] = d
		}
		costs = append(costs, cost)
		iters = iter + 1
		if cost > peak {
			peak = cost
		}
		if cfg.stopNow(iter, cost, peak) {
			break
		}
	}
	return iters, costs
}

// triRowOff returns the packed upper-triangle offset of row i (entries
// (i, i+1..n-1)) in an n-point triangle.
func triRowOff(i, n int) int { return i*(n-1) - i*(i-1)/2 }

// denseBuild fills ft's upper-triangle rows with the symmetric repulsion
// values, recomputing only the pairs whose endpoints' generation counters
// moved since the cached build and copying the rest from the cache. A pair
// is recomputed when either endpoint changed: changed rows are rebuilt
// whole, unchanged rows only patch their changed partners. Requires
// RepulsionRow values to be pure per-pair functions (independent of batch
// composition) — true of the correlation field — so a partial rebuild is
// bit-identical to a full one.
func (c *Cache) denseBuild(sf SplitField, gf GenField, ids []int, ft []float64, n int, workers *par.Budget) {
	tri := n * (n - 1) / 2
	gens := make([]uint64, n)
	for i, id := range ids {
		gens[i] = gf.Generation(id)
	}
	if !sameIDs(c.denseIDs, ids) || len(c.denseRep) != tri {
		par.For(workers, n, exactRowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sf.RepulsionRow(ids[i], ids[i+1:], ft[i*n+i+1:i*n+n])
			}
		})
		c.denseIDs = append(c.denseIDs[:0], ids...)
		c.denseGens = gens
		c.Stats.PairsComputed += uint64(tri)
		c.storeDense(ft, n, tri)
		return
	}
	changed := make([]bool, n)
	unchanged := 0
	for i := range gens {
		if gens[i] != c.denseGens[i] {
			changed[i] = true
		} else {
			unchanged++
		}
	}
	par.For(workers, n, exactRowGrain, func(lo, hi int) {
		var js []int
		var jpos []int
		var dst []float64
		for i := lo; i < hi; i++ {
			row := ft[i*n+i+1 : i*n+n]
			if changed[i] {
				sf.RepulsionRow(ids[i], ids[i+1:], row)
				continue
			}
			copy(row, c.denseRep[triRowOff(i, n):triRowOff(i, n)+n-1-i])
			js = js[:0]
			jpos = jpos[:0]
			for j := i + 1; j < n; j++ {
				if changed[j] {
					js = append(js, ids[j])
					jpos = append(jpos, j)
				}
			}
			if len(js) == 0 {
				continue
			}
			if cap(dst) < len(js) {
				dst = make([]float64, len(js))
			}
			d := dst[:len(js)]
			sf.RepulsionRow(ids[i], js, d)
			for m, j := range jpos {
				row[j-i-1] = d[m]
			}
		}
	})
	c.denseGens = gens
	// Pairs with both endpoints unchanged are the reused set; everything
	// else was recomputed (whole changed rows plus the patched entries).
	kept := uint64(unchanged) * uint64(unchanged-1) / 2
	c.Stats.PairsReused += kept
	c.Stats.PairsComputed += uint64(tri) - kept
	c.storeDense(ft, n, tri)
}

// storeDense snapshots ft's upper triangle into the packed cache buffer.
func (c *Cache) storeDense(ft []float64, n, tri int) {
	if cap(c.denseRep) < tri {
		c.denseRep = make([]float64, tri)
	}
	c.denseRep = c.denseRep[:tri]
	for i := 0; i < n; i++ {
		copy(c.denseRep[triRowOff(i, n):triRowOff(i, n)+n-1-i], ft[i*n+i+1:i*n+n])
	}
}
