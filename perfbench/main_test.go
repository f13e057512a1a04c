package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinySize shrinks every workload to a few milliseconds of simulation.
var tinySize = size{
	warm:    2_000,
	measure: 8_000,
	benches: []string{"vpr.p", "mcf"},
	mix:     mix{hot: 2, novel: 1, sweeps: 1, uploads: 2},
	setups:  2,
	parity:  2,
}

func tinyOptions(workload string, traced bool) options {
	return options{workload: workload, seed: 7, budget: time.Millisecond, traced: traced, size: tinySize}
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at tiny size,
// untraced and traced, and checks each emits exactly its declared metrics
// with their units and passes its output checks.
func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			res, err := run(context.Background(), tinyOptions(w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%t: metric %s unit %q, want %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%t: metric %s = %v", w.Name, traced, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%t: %v", w.Name, traced, err)
			}
		}
	}
}

// TestGridParityCatchesPerturbedReport checks the grid output check fails
// when one cell's report differs from the uncached full simulation.
func TestGridParityCatchesPerturbedReport(t *testing.T) {
	ctx := context.Background()
	g, _, err := setupGrid(tinyOptions("slice_grid", false), sliceGrid)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.rep(ctx, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3}
	bad, err := g.parity(ctx, r.res.Cells, idx, nil)
	if err != nil || len(bad) != 0 {
		t.Fatalf("unperturbed parity: %v %v", bad, err)
	}
	cells := append(r.res.Cells[:0:0], r.res.Cells...)
	cells[3].Report.Pre.IPC *= 1.000001
	bad, err = g.parity(ctx, cells, idx, nil)
	if err != nil || len(bad) != 1 {
		t.Fatalf("perturbed parity: got %v %v, want one mismatch", bad, err)
	}
}

// TestServeReferenceCatchesPerturbedResponse checks the serve_mixed output
// check fails when a hot response differs from Engine.Evaluate.
func TestServeReferenceCatchesPerturbedResponse(t *testing.T) {
	ctx := context.Background()
	s, _, _, err := setupServe(ctx, tinyOptions("serve_mixed", false))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.rep(ctx, nil, 0)
	if err != nil || r.failed != 0 {
		t.Fatalf("rep: failed=%d err=%v", r.failed, err)
	}
	idx := s.referenceIndices()
	bad, err := s.checkReferences(ctx, r.bodies, idx)
	if err != nil || len(bad) != 0 {
		t.Fatalf("unperturbed check: %v %v", bad, err)
	}
	var rep map[string]any
	if err := json.Unmarshal(r.bodies[idx[0]], &rep); err != nil {
		t.Fatal(err)
	}
	rep["predicted_ipc"] = 0.123
	perturbed, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	bodies := append([][]byte(nil), r.bodies...)
	bodies[idx[0]] = perturbed
	bad, err = s.checkReferences(ctx, bodies, idx)
	if err != nil || len(bad) != 1 {
		t.Fatalf("perturbed check: got %v %v, want one mismatch", bad, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.95, 3.85}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A failed request's latency is +Inf: it must count as missing every
	// limit, never turn a quantile into NaN.
	failed := []float64{1, 2, math.Inf(1), math.Inf(1), math.Inf(1)}
	for _, c := range []struct{ q, want float64 }{{0.25, 2}, {0.375, math.Inf(1)}, {0.5, math.Inf(1)}} {
		if got := quantile(failed, c.q); got != c.want {
			t.Errorf("quantile(%v) with failures = %v, want %v", c.q, got, c.want)
		}
	}
}
