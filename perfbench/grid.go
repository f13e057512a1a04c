package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"preexec"
)

// gridDef is a library Sweep workload: every builtin benchmark crossed with
// a fixed set of configuration points.
type gridDef struct {
	name   string
	points func(m preexec.MachineConfig) []preexec.ConfigPoint
}

// sliceGrid is the paper's core use (Fig. 4-5): p-thread length x
// optimization+merging over one program sample. Every cell of a benchmark
// shares its base run and trace; each MaxLen needs its own profile.
var sliceGrid = gridDef{"slice_grid", func(m preexec.MachineConfig) []preexec.ConfigPoint {
	var pts []preexec.ConfigPoint
	for _, maxLen := range []int{8, 16, 32, 64} {
		for _, om := range []bool{false, true} {
			cfg := preexec.DefaultConfig()
			cfg.Machine = m
			cfg.Selection.MaxLen = maxLen
			cfg.Selection.Optimize, cfg.Selection.Merge = om, om
			pts = append(pts, preexec.ConfigPoint{Name: fmt.Sprintf("len%d-om%t", maxLen, om), Config: cfg})
		}
	}
	return pts
}}

// machineGrid is the memory-latency x width cross-validation (Fig. 8,
// §4.5): every cell has its own base-run identity, so each trace is recorded
// for a single replay, while all cells of a benchmark share one profile.
var machineGrid = gridDef{"machine_grid", func(m preexec.MachineConfig) []preexec.ConfigPoint {
	var pts []preexec.ConfigPoint
	for _, memLat := range []int{35, 70, 140, 280} {
		for _, width := range []int{4, 8} {
			cfg := preexec.DefaultConfig()
			cfg.Machine = m
			cfg.Machine.MemLat, cfg.Machine.Width = memLat, width
			pts = append(pts, preexec.ConfigPoint{Name: fmt.Sprintf("lat%d-w%d", memLat, width), Config: cfg})
		}
	}
	return pts
}}

// machine is the sampling window shared by every workload.
func (s size) machine() preexec.MachineConfig {
	m := preexec.DefaultMachine()
	m.WarmInsts, m.MeasureInsts = s.warm, s.measure
	return m
}

// workloadList resolves the builtin benchmarks a size uses.
func (s size) workloadList() ([]preexec.Workload, error) {
	if s.benches == nil {
		return preexec.Workloads(), nil
	}
	ws := make([]preexec.Workload, len(s.benches))
	for i, name := range s.benches {
		w, err := preexec.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// buildBenches builds the benchmark programs (the grids' set-up).
func buildBenches(ws []preexec.Workload) []preexec.SweepBench {
	benches := make([]preexec.SweepBench, len(ws))
	for i, w := range ws {
		benches[i] = preexec.SweepBench{Name: w.Name, Program: w.Build(1)}
	}
	return benches
}

// wantCache is the exact stage work a grid performs on a fresh cache: one
// run per distinct stage identity (as preexec.StageKeys names them), and a
// hit for every other lookup — each cell looks up its base run, profile and
// trace once.
func wantCache(benches []preexec.SweepBench, points []preexec.ConfigPoint) preexec.CacheStats {
	base, prof, trace := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, b := range benches {
		for _, pt := range points {
			k := preexec.StageKeys(b.Name, 1, pt.Config)
			base[k.Base], prof[k.Profile], trace[k.Trace] = true, true, true
		}
	}
	cells := int64(len(benches) * len(points))
	return preexec.CacheStats{
		BaseRuns: int64(len(base)), BaseHits: cells - int64(len(base)),
		ProfileRuns: int64(len(prof)), ProfileHits: cells - int64(len(prof)),
		TraceRuns: int64(len(trace)), TraceHits: cells - int64(len(trace)),
	}
}

// gridRep is one repetition of a grid: a Sweep.Run on a fresh StageCache.
type gridRep struct {
	res     *preexec.SweepResult
	wall    time.Duration
	latency []float64 // per cell: ms from Sweep.Run start to its progress event
	failed  int64
	hash    string
	sim     simulated
}

type gridBench struct {
	o       options
	def     gridDef
	benches []preexec.SweepBench
	points  []preexec.ConfigPoint
	want    preexec.CacheStats
}

func (g *gridBench) cells() int64 { return int64(len(g.benches) * len(g.points)) }

// rep runs the grid once. A non-nil recorder traces it as repetition run.
func (g *gridBench) rep(ctx context.Context, workers int, rec *recorder, run int) (gridRep, error) {
	sw := &preexec.Sweep{Workers: workers}
	if rec != nil {
		sw.Engine = preexec.New(preexec.WithStageObserver(rec))
		rec.beginRun(run, "sweep")
	}
	var r gridRep
	// Start every repetition from the same heap: the previous one's stage
	// cache is garbage by now, and collecting it is not this one's work.
	runtime.GC()
	start := time.Now()
	sw.Progress = func(ev preexec.SuiteEvent) {
		r.latency = append(r.latency, ms(time.Since(start)))
		if rec != nil {
			rec.cellDone(ev.Name)
		}
	}
	res, err := sw.Run(ctx, g.benches, g.points)
	r.wall = time.Since(start)
	if rec != nil {
		rec.endRun()
	}
	if res == nil {
		return r, fmt.Errorf("%s: %w", g.def.name, err)
	}
	r.res = res
	h := newResultHash()
	for _, c := range res.Cells {
		if c.Err != nil {
			r.failed++
			continue
		}
		data, err := json.Marshal(c.Report)
		if err != nil {
			return r, fmt.Errorf("%s: encode %s/%s: %w", g.def.name, c.Bench, c.Point, err)
		}
		h.add(c.Bench+"/"+c.Point, data)
		r.sim.add(c.Report.SpeedupPct(), c.Report.PredIPC, c.Report.Pre.IPC)
	}
	r.hash = h.sum()
	return r, nil
}

// check compares a repetition against the warm-up's outputs and the grid's
// exact cache counts.
func (g *gridBench) check(out *outcome, r gridRep, ref gridRep) {
	if r.failed > 0 {
		out.fail("%s: %d of %d cells failed", g.def.name, r.failed, g.cells())
	}
	if r.hash != ref.hash {
		out.fail("%s: repetition results differ from the warm-up's", g.def.name)
	}
	if r.res.Cache != g.want {
		out.fail("%s: cache counts %+v, want %+v", g.def.name, r.res.Cache, g.want)
	}
}

// parityCells picks the seeded sample of cells the parity check re-runs.
func (g *gridBench) parityCells() []int {
	rng := rand.New(rand.NewPCG(g.o.seed, 0x9a41))
	n := min(g.o.size.parity, int(g.cells()))
	return rng.Perm(int(g.cells()))[:n]
}

// parity re-runs the given cells uncached with the trace-replay fast path
// off and returns one message per cell whose Report JSON differs from the
// sweep's. A non-nil recorder observes the full simulations.
func (g *gridBench) parity(ctx context.Context, cells []preexec.SweepCell, idx []int, rec *recorder) ([]string, error) {
	var bad []string
	for _, i := range idx {
		b, pt := g.benches[i/len(g.points)], g.points[i%len(g.points)]
		opts := []preexec.Option{preexec.WithConfig(pt.Config), preexec.WithReplay(false)}
		if rec != nil {
			opts = append(opts, preexec.WithStageObserver(rec))
		}
		rep, err := preexec.New(opts...).Evaluate(ctx, b.Program)
		if err != nil {
			return nil, fmt.Errorf("parity %s/%s: %w", b.Name, pt.Name, err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		got, err := json.Marshal(cells[i].Report)
		if err != nil {
			return nil, err
		}
		if string(got) != string(want) {
			bad = append(bad, fmt.Sprintf("%s/%s: sweep report differs from the uncached full simulation", b.Name, pt.Name))
		}
	}
	return bad, nil
}

// repeat runs rep until starting another repetition would overrun budget
// (judged by the previous one's duration), and at least minReps times.
func repeat(budget time.Duration, minReps int, rep func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+last > budget {
			return nil
		}
		t := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// setupGrid builds the benchmark programs setups times and keeps the last
// build; set-up time is the median.
func setupGrid(o options, def gridDef) (*gridBench, []float64, error) {
	ws, err := o.size.workloadList()
	if err != nil {
		return nil, nil, err
	}
	g := &gridBench{o: o, def: def}
	var times []float64
	for i := 0; i < max(o.size.setups, 1); i++ {
		t := time.Now()
		g.benches = buildBenches(ws)
		g.points = def.points(o.size.machine())
		g.want = wantCache(g.benches, g.points)
		times = append(times, time.Since(t).Seconds())
	}
	return g, times, nil
}

func runGrid(ctx context.Context, o options, def gridDef) (*outcome, error) {
	g, setups, err := setupGrid(o, def)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true, metrics: map[string]float64{}}
	// The untimed warm-up repetition: a first repetition runs 10-35% slower
	// than later ones. Its outputs are the reference every later repetition
	// must reproduce.
	ref, err := g.rep(ctx, 2, nil, 0)
	if err != nil {
		return nil, err
	}
	g.check(out, ref, ref)
	out.note("results_sha256 %s %s", def.name, ref.hash)

	if o.traced {
		err = g.traced(ctx, out, ref, setups)
	} else {
		err = g.untraced(ctx, out, ref, setups)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// untraced measures the end-to-end metrics at Workers: 2.
func (g *gridBench) untraced(ctx context.Context, out *outcome, ref gridRep, setups []float64) error {
	var cellRates, sweepRates, p50, p95 []float64
	var latencies int
	err := repeat(g.o.budget, 1, func(i int) error {
		r, err := g.rep(ctx, 2, nil, i)
		if err != nil {
			return err
		}
		g.check(out, r, ref)
		out.attempted += g.cells()
		out.failed += r.failed
		cellRates = append(cellRates, float64(g.cells())/r.wall.Seconds())
		sweepRates = append(sweepRates, 1/r.wall.Seconds())
		p50 = append(p50, quantile(r.latency, 0.50))
		p95 = append(p95, quantile(r.latency, 0.95))
		latencies += len(r.latency)
		return nil
	})
	if err != nil {
		return err
	}
	bad, err := g.parity(ctx, ref.res.Cells, g.parityCells(), nil)
	if err != nil {
		return err
	}
	for _, msg := range bad {
		out.fail("%s", msg)
	}
	m := out.metrics
	m["setup_s"] = median(setups)
	m["cells_per_s"] = median(cellRates)
	m["requests_per_s"] = median(sweepRates)
	m["latency_ms_p50"] = median(p50)
	m["latency_ms_p95"] = median(p95)
	m["peak_rss_mb"] = peakRSSMB()
	m["ok_frac"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	m["speedup_pct_mean"] = ref.sim.speedupMean()
	m["ipc_pred_error_pct"] = ref.sim.ipcErrMean()
	out.note("samples %s: setups=%d repetitions=%d cells=%d latencies=%d parity_cells=%d cells_per_s=%.4g",
		g.def.name, len(setups), len(cellRates), out.attempted, latencies, len(g.parityCells()), cellRates)
	return nil
}

// traced alternates traced and untraced Workers: 1 repetitions — one cell
// at a time, so stage spans never overlap and their shares of the wall time
// add up — and reports the per-layer metrics.
func (g *gridBench) traced(ctx context.Context, out *outcome, ref gridRep, setups []float64) error {
	rec := newRecorder()
	var (
		tracedWall, plainWall []float64
		first                 map[string]stageTotals
		busy                  = map[string][]float64{}
		allocMB               = map[string][]float64{}
		allocs                = map[string][]float64{}
		share                 = map[string][]float64{}
		rest                  []float64
	)
	err := repeat(g.o.budget, 2, func(i int) error {
		traced := i%2 == 0
		var rr *recorder
		if traced {
			rr = rec
		}
		r, err := g.rep(ctx, 1, rr, i)
		if err != nil {
			return err
		}
		g.check(out, r, ref)
		out.attempted += g.cells()
		out.failed += r.failed
		if !traced {
			plainWall = append(plainWall, ms(r.wall))
			return nil
		}
		tracedWall = append(tracedWall, ms(r.wall))
		tot := rec.totals(i)
		g.checkObserved(out, tot, r.res.Cache)
		if first == nil {
			first = tot
		}
		var sum time.Duration
		for _, st := range stageNames {
			t := tot[st]
			if t.calls != first[st].calls {
				out.fail("%s: %s calls %d in repetition %d, %d in the first", g.def.name, st, t.calls, i, first[st].calls)
			}
			busy[st] = append(busy[st], ms(t.busy))
			share[st] = append(share[st], ratio(ms(t.busy), ms(r.wall)))
			allocMB[st] = append(allocMB[st], float64(t.allocBytes)/(1<<20))
			allocs[st] = append(allocs[st], float64(t.allocObjs))
			sum += t.busy
		}
		rest = append(rest, ms(r.wall-sum))
		return nil
	})
	if err != nil {
		return err
	}

	// The parity re-runs are the only full simulations: they supply sim.*.
	prec := newRecorder()
	prec.beginRun(-1, "parity")
	pstart := time.Now()
	bad, err := g.parity(ctx, ref.res.Cells, g.parityCells(), prec)
	if err != nil {
		return err
	}
	pwall := time.Since(pstart)
	prec.endRun()
	for _, msg := range bad {
		out.fail("%s", msg)
	}
	sim := prec.totals(-1)["sim"]

	m := out.metrics
	for _, st := range stageNames {
		m[st+".calls"] = float64(first[st].calls)
		m[st+".busy_ms"] = median(busy[st])
		m[st+".share"] = median(share[st])
		m[st+".alloc_mb"] = median(allocMB[st])
		m[st+".allocs"] = median(allocs[st])
	}
	m["sim.calls"] = float64(sim.calls)
	m["sim.busy_ms"] = ms(sim.busy)
	m["sim.share"] = ratio(ms(sim.busy), ms(pwall))
	m["sim.alloc_mb"] = float64(sim.allocBytes) / (1 << 20)
	m["sim.allocs"] = float64(sim.allocObjs)

	c := ref.res.Cache
	setCache(m, c)
	m["trace.replays_per_record"] = ratio(float64(first["replay"].calls), float64(first["trace"].calls))
	for _, k := range []string{"serve.overhead_ms", "serve.coalesced_ratio", "serve.flights_started",
		"serve.flights_coalesced", "synth.gen_ms", "synth.specs"} {
		m[k] = 0
	}
	m["build.ms"] = median(setups) * 1000
	m["build.calls"] = float64(len(g.benches))
	m["orchestration.ms"] = median(rest)
	m["orchestration.share"] = ratio(median(rest), median(tracedWall))
	m["obs.overhead_pct"] = (median(tracedWall)/median(plainWall) - 1) * 100
	m["traced.wall_ms"] = median(tracedWall)
	out.note("samples %s: traced_repetitions=%d untraced_repetitions=%d parity_cells=%d (Workers: 1)",
		g.def.name, len(tracedWall), len(plainWall), len(g.parityCells()))
	return rec.write(g.o.spansDir, fmt.Sprintf("%s-seed%d.ndjson", g.def.name, g.o.seed))
}

// checkObserved checks the observer saw exactly the stage executions the
// cache counted: cache hits never reach it, and every cell selects and
// replays once.
func (g *gridBench) checkObserved(out *outcome, tot map[string]stageTotals, c preexec.CacheStats) {
	for _, x := range []struct {
		stage string
		want  int64
	}{
		{"base", c.BaseRuns}, {"profile", c.ProfileRuns}, {"trace", c.TraceRuns},
		{"select", g.cells()}, {"replay", g.cells()}, {"sim", 0},
	} {
		if got := tot[x.stage].calls; got != x.want {
			out.fail("%s: observed %d %s executions, want %d", g.def.name, got, x.stage, x.want)
		}
	}
}

// setCache records a StageCache's counters as per-layer metrics.
func setCache(m map[string]float64, c preexec.CacheStats) {
	for _, x := range []struct {
		stage      string
		runs, hits int64
	}{{"base", c.BaseRuns, c.BaseHits}, {"profile", c.ProfileRuns, c.ProfileHits}, {"trace", c.TraceRuns, c.TraceHits}} {
		m["cache."+x.stage+".runs"] = float64(x.runs)
		m["cache."+x.stage+".hits"] = float64(x.hits)
		m["cache."+x.stage+".hit_ratio"] = ratio(float64(x.hits), float64(x.runs+x.hits))
	}
	m["cache.evictions"] = float64(c.Evictions)
}
