package preexec_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"preexec"
)

// testMachine returns the base machine with test-sized windows.
func testMachine() preexec.MachineConfig {
	m := preexec.DefaultMachine()
	m.WarmInsts, m.MeasureInsts = 20_000, 60_000
	return m
}

func buildBench(t testing.TB, name string) *preexec.Program {
	t.Helper()
	w, err := preexec.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Build(1)
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_report_golden.txt from the current engine")

const reportGoldenPath = "testdata/engine_report_golden.txt"

// goldenConfigs are the evaluation configurations the report golden covers,
// all with test-sized windows: the paper's base flow; a zero-value
// selection with only Optimize/Merge set, so every selection default comes
// from normalization; per-region selection; a narrow, slow machine whose
// width and latency the selector must inherit; and a cross-validation +
// ablation cell that lies to the selector about the machine, shortens the
// selection profile, and flips both model-refinement switches.
func goldenConfigs() []struct {
	name string
	cfg  preexec.Config
} {
	def := preexec.DefaultConfig()
	def.Machine = testMachine()

	zeroSel := preexec.Config{Machine: testMachine()}
	zeroSel.Selection.Optimize, zeroSel.Selection.Merge = true, true

	regions := def
	regions.Selection.RegionInsts = 20_000

	machine := def
	machine.Machine.Width, machine.Machine.MemLat = 4, 140

	xval := def
	xval.Selection.MemLat, xval.Selection.Width = 140, 4
	xval.Selection.ProfileInsts = 30_000
	xval.Ablation = preexec.AblationConfig{ModelLoadLat: 1, NoRSThrottle: true}

	return []struct {
		name string
		cfg  preexec.Config
	}{{"default", def}, {"zero-selection", zeroSel}, {"regions", regions}, {"machine", machine}, {"xval-ablate", xval}}
}

// goldenModes are the five simulation modes the golden's Simulate lines
// cover, in order.
var goldenModes = []preexec.Mode{
	preexec.ModeBase, preexec.ModeNormal, preexec.ModeOverheadExecute,
	preexec.ModeOverheadSequence, preexec.ModeLatencyOnly,
}

// goldenHash renders one golden line: the SHA-256 of v's JSON encoding.
func goldenHash(t *testing.T, b *strings.Builder, name string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "%s %x\n", name, sha256.Sum256(raw))
}

// TestEngineReportGolden pins the public pipeline byte for byte: for every
// workload it hashes the JSON of Engine.Evaluate's report under each golden
// configuration (plus, for vpr.p, selection on its test input) and of
// Engine.Simulate's stats in all five modes with the default selection's
// p-threads, and compares the hashes against the checked-in table. Each
// evaluation also runs through an engine sharing a stage cache, whose
// report must hash identically — the memoized base, profile, and
// trace-replay routing is pinned to the uncached path. Regenerate with
// `go test -run TestEngineReportGolden -update .` only for an intentional
// model change.
func TestEngineReportGolden(t *testing.T) {
	cache := preexec.NewStageCache()
	var got strings.Builder
	for _, w := range preexec.Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Build(1)
			cases := goldenConfigs()
			if w.Name == "vpr.p" {
				onTest := cases[0]
				onTest.name = "profile-on-test"
				onTest.cfg.Selection.ProfileOn = w.BuildTest(1)
				cases = append(cases, onTest)
			}
			var pts []*preexec.PThread
			for _, c := range cases {
				rep, err := preexec.New(preexec.WithConfig(c.cfg)).Evaluate(t.Context(), prog)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				cached, err := preexec.New(preexec.WithConfig(c.cfg), preexec.WithStageCache(cache)).Evaluate(t.Context(), prog)
				if err != nil {
					t.Fatalf("%s (cached): %v", c.name, err)
				}
				if !reflect.DeepEqual(rep, cached) {
					t.Errorf("%s: cached evaluation diverges from uncached", c.name)
				}
				goldenHash(t, &got, w.Name+"/"+c.name, rep)
				if c.name == "default" {
					pts = rep.PThreads
				}
			}
			eng := preexec.New(preexec.WithConfig(cases[0].cfg))
			cachedEng := preexec.New(preexec.WithConfig(cases[0].cfg), preexec.WithStageCache(cache))
			for _, mode := range goldenModes {
				modePts := pts
				if mode == preexec.ModeBase {
					modePts = nil
				}
				stats, err := eng.Simulate(t.Context(), prog, modePts, mode)
				if err != nil {
					t.Fatalf("simulate %v: %v", mode, err)
				}
				cached, err := cachedEng.Simulate(t.Context(), prog, modePts, mode)
				if err != nil {
					t.Fatalf("simulate %v (cached): %v", mode, err)
				}
				if stats != cached {
					t.Errorf("simulate %v: cached run diverges from uncached", mode)
				}
				goldenHash(t, &got, w.Name+"/simulate/"+mode.String(), stats)
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(reportGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if bytes.Equal(want, []byte(got.String())) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, engine produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("report changed:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}

// TestDefaultConfigNormalization pins the paper's base configuration:
// DefaultConfig and the normalized zero Config agree on scope 1024, length
// 32, an 8-wide machine, and 70-cycle memory; only DefaultConfig turns
// optimization and merging on.
func TestDefaultConfigNormalization(t *testing.T) {
	for name, c := range map[string]preexec.Config{
		"DefaultConfig": preexec.DefaultConfig().Normalized(),
		"zero":          preexec.Config{}.Normalized(),
	} {
		if c.Selection.Scope != 1024 || c.Selection.MaxLen != 32 {
			t.Errorf("%s selection = %+v, want scope 1024 length 32", name, c.Selection)
		}
		if c.Machine.Width != 8 || c.Machine.MemLat != 70 {
			t.Errorf("%s machine = %+v, want 8-wide 70-cycle", name, c.Machine)
		}
	}
	if s := preexec.DefaultConfig().Selection; !s.Optimize || !s.Merge {
		t.Errorf("DefaultConfig selection = %+v, want optimize and merge on", s)
	}
}

// TestEvaluateVprP checks the paper's headline behaviour on vpr.p: substantial
// coverage, a measured speedup, and a model forecast of improvement.
func TestEvaluateVprP(t *testing.T) {
	m := testMachine()
	m.MeasureInsts = 80_000
	rep, err := preexec.New(preexec.WithMachine(m)).Evaluate(t.Context(), buildBench(t, "vpr.p"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base.IPC <= 0 || rep.Pre.IPC <= 0 {
		t.Fatal("missing IPCs")
	}
	if rep.BaseMisses == 0 {
		t.Fatal("no base misses measured")
	}
	if rep.CoveragePct() < 30 {
		t.Errorf("vpr.p coverage = %.1f%%, want substantial", rep.CoveragePct())
	}
	if rep.SpeedupPct() <= 0 {
		t.Errorf("vpr.p speedup = %.1f%%, want positive", rep.SpeedupPct())
	}
	if rep.PredIPC <= rep.Base.IPC {
		t.Errorf("prediction should forecast improvement: pred %.2f base %.2f", rep.PredIPC, rep.Base.IPC)
	}
}

// TestProfileOnTestInput selects on vpr.p's test input, which fits the L2
// (paper Fig. 7): nothing is selected, and the coverage denominator still
// comes from the measured machine rather than the selection profile.
func TestProfileOnTestInput(t *testing.T) {
	w, err := preexec.WorkloadByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	sel := preexec.DefaultSelection()
	sel.ProfileOn = w.BuildTest(1)
	sel.ProfileInsts = 40_000
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithSelection(sel))
	prog := w.Build(1)
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PThreads) != 0 {
		t.Errorf("test-input selection found %d p-threads, want 0", len(rep.PThreads))
	}
	base, err := eng.Simulate(t.Context(), prog, nil, preexec.ModeBase)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseMisses == 0 || rep.BaseMisses != base.L2Misses {
		t.Errorf("BaseMisses = %d, want the measured machine's %d", rep.BaseMisses, base.L2Misses)
	}
}

// TestSimulateOverheadSequence re-simulates a selection in the paper's
// sequence-overhead diagnostic mode (§4.3): p-threads cost bandwidth but
// cover no misses, so IPC cannot beat the unassisted machine.
func TestSimulateOverheadSequence(t *testing.T) {
	prog := buildBench(t, "vpr.r")
	eng := preexec.New(preexec.WithMachine(testMachine()))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PThreads) == 0 {
		t.Skip("nothing selected")
	}
	seq, err := eng.Simulate(t.Context(), prog, rep.PThreads, preexec.ModeOverheadSequence)
	if err != nil {
		t.Fatal(err)
	}
	if seq.MissesCovered != 0 {
		t.Error("sequence mode must not cover misses")
	}
	if seq.IPC > rep.Base.IPC*1.02 {
		t.Errorf("overhead-only IPC %.3f should not exceed base %.3f", seq.IPC, rep.Base.IPC)
	}
}

// TestRegionGranularity checks per-region selection (§4.4, Figure 6): the
// chosen p-threads are gated to their regions and still launch.
func TestRegionGranularity(t *testing.T) {
	m := testMachine()
	m.MeasureInsts = 80_000
	sel := preexec.DefaultSelection()
	sel.RegionInsts = 20_000
	rep, err := preexec.New(preexec.WithMachine(m), preexec.WithSelection(sel)).Evaluate(t.Context(), buildBench(t, "vpr.p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PThreads) == 0 {
		t.Fatal("regioned selection chose nothing")
	}
	gated := 0
	for _, pt := range rep.PThreads {
		if pt.RegionEnd != 0 {
			gated++
		}
	}
	if gated == 0 {
		t.Error("expected region-gated p-threads")
	}
	if rep.Pre.Launches == 0 {
		t.Error("regioned p-threads never launched")
	}
}

// TestEvaluateDeterministic guards the golden test's premise: two runs of
// the same engine on the same program are identical.
func TestEvaluateDeterministic(t *testing.T) {
	prog := buildBench(t, "vpr.r")
	eng := preexec.New(preexec.WithMachine(testMachine()))
	a, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two evaluations of the same program diverge")
	}
}

// TestEvaluateCancelled proves an already-cancelled context fails fast with
// ctx.Err() before any simulation work.
func TestEvaluateCancelled(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := preexec.New(preexec.WithMachine(testMachine()))
	if _, err := eng.Evaluate(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvaluateCancelMidRun proves a cancellation arriving mid-simulation
// returns promptly — the hot loops poll the context every few thousand
// cycles rather than running the evaluation to completion.
func TestEvaluateCancelMidRun(t *testing.T) {
	// A big, slow evaluation: full windows, scaled workload.
	w, err := preexec.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(4)
	machine := preexec.DefaultMachine()
	machine.MeasureInsts = 4_000_000
	eng := preexec.New(preexec.WithMachine(machine))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = eng.Evaluate(ctx, prog)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full evaluation takes seconds; a prompt cancellation returns in
	// tens of milliseconds. Allow generous slack for loaded CI machines.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEvaluateDeadline proves deadline expiry surfaces as DeadlineExceeded.
func TestEvaluateDeadline(t *testing.T) {
	prog := buildBench(t, "mcf")
	machine := preexec.DefaultMachine()
	machine.MeasureInsts = 4_000_000
	eng := preexec.New(preexec.WithMachine(machine))
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := eng.Evaluate(ctx, prog); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// countingProfiler wraps the default profiling stage to prove WithProfiler
// swaps the backend in.
type countingProfiler struct {
	inner preexec.Profiler
	calls int
}

func (c *countingProfiler) Profile(ctx context.Context, p *preexec.Program, opts preexec.ProfileOptions) ([]preexec.ProfileRegion, error) {
	c.calls++
	return c.inner.Profile(ctx, p, opts)
}

// defaultProfiler recovers the reference Profiler via a fresh engine.
type defaultProfiler struct{ eng *preexec.Engine }

func (d defaultProfiler) Profile(ctx context.Context, p *preexec.Program, opts preexec.ProfileOptions) ([]preexec.ProfileRegion, error) {
	regions, err := d.eng.Profile(ctx, p)
	_ = opts // the engine re-derives options from its own config
	return regions, err
}

func TestWithProfilerPluggable(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	base := preexec.New(preexec.WithMachine(testMachine()))
	cp := &countingProfiler{inner: defaultProfiler{base}}
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithProfiler(cp))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if cp.calls != 1 {
		t.Errorf("custom profiler called %d times, want 1", cp.calls)
	}
	if len(rep.PThreads) == 0 {
		t.Error("evaluation through the custom profiler selected nothing")
	}
}

// TestEngineProfileAndSelectForest exercises the split tsim/tselect flow on
// the public API: profile once, select from the forest, and check the
// result matches the fused Select path.
func TestEngineProfileAndSelectForest(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	eng := preexec.New(preexec.WithMachine(testMachine()))

	base, err := eng.Simulate(t.Context(), prog, nil, preexec.ModeBase)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := eng.Profile(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	fromForest := eng.SelectForest(regions[0].Forest, base.IPC)

	fused, misses, err := eng.Select(t.Context(), prog, base.IPC)
	if err != nil {
		t.Fatal(err)
	}
	if misses != regions[0].Forest.L2Misses {
		t.Errorf("miss counts diverge: %d vs %d", misses, regions[0].Forest.L2Misses)
	}
	if !reflect.DeepEqual(fromForest.Pred, fused.Pred) {
		t.Errorf("forest and fused selection diverge:\n%+v\n%+v", fromForest.Pred, fused.Pred)
	}
	if len(fromForest.PThreads) != len(fused.PThreads) {
		t.Errorf("p-thread counts diverge: %d vs %d", len(fromForest.PThreads), len(fused.PThreads))
	}
}

// stageCounter is a StageObserver counting stage executions by name.
type stageCounter map[string]int

func (c stageCounter) StageStart(stage, _ string) func() {
	c[stage]++
	return func() {}
}

// TestStageObserverSeesEverySelect pins StageObserver's "every stage
// execution" contract on each selection entry point: Evaluate, Select, and
// the tselect flow's SelectForest each report their selection.
func TestStageObserverSeesEverySelect(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	obs := stageCounter{}
	eng := preexec.New(preexec.WithMachine(testMachine()), preexec.WithStageObserver(obs))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if want := (stageCounter{"base": 1, "profile": 1, "select": 1, "sim": 1}); !reflect.DeepEqual(obs, want) {
		t.Fatalf("after Evaluate observed %v, want %v", obs, want)
	}
	if _, _, err := eng.Select(t.Context(), prog, rep.Base.IPC); err != nil {
		t.Fatal(err)
	}
	regions, err := eng.Profile(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	eng.SelectForest(regions[0].Forest, rep.Base.IPC)
	if want := (stageCounter{"base": 1, "profile": 3, "select": 3, "sim": 1}); !reflect.DeepEqual(obs, want) {
		t.Errorf("after Select, Profile and SelectForest observed %v, want %v", obs, want)
	}
}

// TestReportJSONRoundTrip checks the -json output surface: derived metrics
// present, raw fields intact.
func TestReportJSONRoundTrip(t *testing.T) {
	prog := buildBench(t, "vpr.p")
	eng := preexec.New(preexec.WithMachine(testMachine()))
	rep, err := eng.Evaluate(t.Context(), prog)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"program":"vpr.p"`, `"coverage_pct"`, `"speedup_pct"`, `"pthreads"`, `"prediction"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON report missing %s:\n%s", key, data)
		}
	}
}
