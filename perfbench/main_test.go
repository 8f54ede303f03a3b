package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"geovmp"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must honour.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyOptions shrinks every workload to a few seconds in total.
func tinyOptions() options {
	return options{
		seed: 7,
		batch: map[string]batchSize{
			"sweep":  {presets: []string{"paper-geo3dc", "geo5dc-faulty"}, scale: 0.01, hours: 8, fineStep: 300, seeds: 1},
			"global": {presets: []string{"geo5dc-large"}, scale: 0.02, hours: 4, fineStep: 900, seeds: 2, proposedOnly: true, serial: true},
		},
		serve: serveSize{scale: 0.02, hours: 6, conns: 2},
		log:   &strings.Builder{},
	}
}

// TestEveryMetricEmitted runs each workload of BENCHMARK.json at a tiny
// size, untraced and traced, and checks that the run is correct and
// reports exactly the metrics BENCHMARK.json names, with their units.
func TestEveryMetricEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(perLayer) != len(b.PerLayer) {
		t.Errorf("perLayer lists %d metrics, BENCHMARK.json %d", len(perLayer), len(b.PerLayer))
	}
	for _, w := range b.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %q has no runner", w.Name)
		}
		for _, traced := range []bool{false, true} {
			opt := tinyOptions()
			opt.trace = traced
			rep, err := runWorkload(run, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, res.Correct, res.Attempted, res.Failed, opt.log)
			}
			for name, unit := range want[traced] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json %q", w.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[traced][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestWrappersKeepExports checks that the timing wrappers change no
// decision: traced and untraced passes export exactly the cells of a plain
// Experiment.Run. geo5dc-faulty re-optimizes at epoch boundaries, so a
// wrapper that dropped StartEpoch would fail here.
func TestWrappersKeepExports(t *testing.T) {
	opt := tinyOptions()
	g, err := newBatchGrid(opt.batch["sweep"], opt.seed)
	if err != nil {
		t.Fatal(err)
	}
	var plain []string
	for _, eg := range g.grids {
		set, err := geovmp.NewExperiment(
			geovmp.WithScenarios(eg.specs...),
			geovmp.WithPolicies(g.policies...),
			geovmp.WithSeeds(eg.offsets),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := range set.Cells {
			plain = append(plain, cellDigest(t, &set.Cells[i]))
		}
	}
	for _, traced := range []bool{false, true} {
		p, err := g.runPass(newReport(opt.log), traced)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.digests, plain) {
			t.Errorf("traced=%v: exports %v differ from plain Experiment.Run %v", traced, p.digests, plain)
		}
	}
}

func cellDigest(t *testing.T, c *geovmp.ResultCell) string {
	t.Helper()
	d, err := exportDigest(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestReferenceDigestMismatchFails checks that a cell whose export differs
// from the shipped reference counts as a failed check.
func TestReferenceDigestMismatchFails(t *testing.T) {
	opt := tinyOptions()
	opt.digests = map[string]map[uint64][]string{"global": {opt.seed: {"0000000000000000"}}}
	rep, err := runWorkload(runGlobal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res := rep.result(); res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want exactly the reference check failed", res.Correct, res.Failed)
	}
}
