package preexec

import (
	"context"
	"fmt"

	"preexec/internal/selector"
	"preexec/internal/slice"
	"preexec/internal/timing"
)

// Profiler is the functional profiling stage: it runs a program through the
// cache model and builds slice trees for every dynamic L2 load miss. The
// engine asks for at least the default p-thread length (MaxSlice >= 32)
// and projects what a profiler returns to any shorter Selection.MaxLen
// (slice.Forest.Project), so one profile serves every length up to the
// default.
type Profiler interface {
	Profile(ctx context.Context, p *Program, opts ProfileOptions) ([]ProfileRegion, error)
}

// Selector is the p-thread selection stage: it solves the profiled slice
// trees for the p-thread set with maximal aggregate advantage. regioned
// reports whether per-region selection was requested.
type Selector interface {
	Select(regions []ProfileRegion, opts SelectorOptions, regioned bool) SelectionResult
}

// Simulator is the detailed timing stage: it measures a program — with
// optional p-threads — on the simulated machine.
type Simulator interface {
	Simulate(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error)
}

// TraceReplayer is the optional Simulator extension behind the trace-replay
// fast path: RecordTrace captures the base run's front-end event stream once
// (fetch order, effective addresses, predictor verdicts — all
// selection-independent), and Replay scores a p-thread set against the
// recorded stream without re-simulating, bit-identical to Simulate. Engines
// with a stage cache route selection-dependent timing runs — and Evaluate's
// cached base run, replayed with no p-threads — through this interface
// automatically when their Simulator implements it (the reference simulator
// does); a Simulator without it simply always simulates in full. See
// WithReplay for the escape hatch.
type TraceReplayer interface {
	RecordTrace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error)
	Replay(ctx context.Context, t *Trace, pts []*PThread, cfg TimingConfig) (Stats, error)
}

// The reference stage implementations.
type (
	sliceProfiler   struct{}
	treeSelector    struct{}
	timingSimulator struct{}
)

func (sliceProfiler) Profile(ctx context.Context, p *Program, opts ProfileOptions) ([]ProfileRegion, error) {
	return slice.ProfileContext(ctx, p, opts)
}

func (treeSelector) Select(regions []ProfileRegion, opts SelectorOptions, regioned bool) SelectionResult {
	if regioned {
		return selector.SelectRegions(regions, opts)
	}
	return selector.SelectForest(regions[0].Forest, opts)
}

func (timingSimulator) Simulate(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig) (Stats, error) {
	return timing.RunContext(ctx, p, pts, cfg)
}

func (timingSimulator) RecordTrace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error) {
	return timing.RecordTrace(ctx, p, cfg)
}

func (timingSimulator) Replay(ctx context.Context, t *Trace, pts []*PThread, cfg TimingConfig) (Stats, error) {
	return timing.Replay(ctx, t, pts, cfg)
}

// StageObserver receives a callback around every pipeline stage execution:
// StageStart is called when a stage begins and the func it returns when the
// stage ends. Stages are named "base" (the unassisted timing run — under
// Evaluate's replay fast path, a replay of the recorded trace with no
// p-threads), "profile", "select", "sim" (a fully simulated p-thread timing
// run), "trace" (a base-run trace recording), and "replay" (a p-thread run
// scored against the recorded trace); bench is the program under evaluation
// ("" where no single program applies). Stages never nest: one ends before
// the next starts, so a sequential run's stage times add up. With a stage
// cache attached, only real executions are observed — cache hits never
// reach the observer, so observed latencies are true stage costs.
//
// Observers exist for instrumentation (the serve package feeds stage
// latency histograms and span traces from this hook) and must not influence
// results: the engine calls them for their side effects only.
type StageObserver interface {
	StageStart(stage, bench string) func()
}

// ReferenceStages returns the built-in reference stage backends — the ones
// New installs by default. They exist for callers that wrap stages with
// cross-cutting behaviour (the serve package gates the expensive stages
// through a server-wide worker pool) while keeping results bit-identical to
// the defaults.
func ReferenceStages() (Profiler, Selector, Simulator) {
	return sliceProfiler{}, treeSelector{}, timingSimulator{}
}

// Engine runs the pre-execution pipeline. Build one with New; the zero
// Engine is not usable.
type Engine struct {
	cfg       Config
	profiler  Profiler
	selector  Selector
	simulator Simulator
	// cache, if non-nil, memoizes base timing runs, profiles, and base-run
	// traces across engines sharing it (see StageCache and Sweep).
	cache *StageCache
	// replay enables the trace-replay fast path for Evaluate's base run and
	// selection-dependent timing runs (see WithReplay). It only engages with
	// a cache attached: without memoization, recording a trace to replay it
	// once costs as much as simulating directly.
	replay bool
	// observer, if non-nil, is called around every stage execution.
	observer StageObserver
}

// Option customizes an Engine.
type Option func(*Engine)

// WithMachine sets the machine configuration.
func WithMachine(m MachineConfig) Option { return func(e *Engine) { e.cfg.Machine = m } }

// WithSelection sets the selection configuration.
func WithSelection(s SelectionConfig) Option { return func(e *Engine) { e.cfg.Selection = s } }

// WithAblation sets the ablation switches.
func WithAblation(a AblationConfig) Option { return func(e *Engine) { e.cfg.Ablation = a } }

// WithConfig sets all three configuration groups at once.
func WithConfig(c Config) Option { return func(e *Engine) { e.cfg = c } }

// WithProfiler swaps the functional profiling backend.
func WithProfiler(p Profiler) Option { return func(e *Engine) { e.profiler = p } }

// WithSelector swaps the selection backend.
func WithSelector(s Selector) Option { return func(e *Engine) { e.selector = s } }

// WithSimulator swaps the timing-simulation backend.
func WithSimulator(s Simulator) Option { return func(e *Engine) { e.simulator = s } }

// WithStageCache attaches a shared stage cache: base timing runs and
// profiles are memoized in it, so engines sharing one cache — a sweep's
// cells — perform each per-benchmark stage once. Results are bit-for-bit
// identical to uncached evaluation; see StageCache for the key structure.
//
// The cache keys on program and configuration, not on the stage backends:
// every engine sharing a cache must use the same Profiler and Simulator
// backends (as Sweep-built engines do), or cells will silently serve each
// other's backend results.
func WithStageCache(c *StageCache) Option { return func(e *Engine) { e.cache = c } }

// WithReplay toggles the trace-replay fast path (on by default). With a
// stage cache attached, a Simulator implementing TraceReplayer, and a run
// small enough to record (timing.Traceable), selection-dependent timing runs
// are scored against a memoized base-run trace instead of re-simulating, and
// Evaluate computes an uncached base run by replaying that trace with no
// p-threads — bit-identical results, several times faster on selection-only
// grids, and one trace per benchmark and run length on machine grids.
// WithReplay(false) is the escape hatch forcing every cell through full
// simulation (the -replay=off flag of cmd/tsweep).
func WithReplay(on bool) Option { return func(e *Engine) { e.replay = on } }

// WithStageObserver installs an observer called around every stage
// execution (nil = none, the default — the hot path then pays one nil check
// and nothing else). Sweep-built cell engines inherit their base engine's
// observer, so one observer sees a whole sweep's stage work.
func WithStageObserver(o StageObserver) Option { return func(e *Engine) { e.observer = o } }

// New builds an Engine over the paper's base configuration (DefaultConfig)
// and the reference stage implementations, then applies the options in
// order.
func New(opts ...Option) *Engine {
	e := &Engine{
		cfg:       DefaultConfig(),
		profiler:  sliceProfiler{},
		selector:  treeSelector{},
		simulator: timingSimulator{},
		replay:    true,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// trace returns the memoized base-run trace for runs of p under cfg,
// recording it on a miss, or nil when the fast path does not apply: it needs
// replay enabled, a stage cache attached, a run small enough to record, and
// a Simulator implementing TraceReplayer. The observer sees a "trace" stage
// only when the recording actually happens, and it ends before any stage
// that replays the trace starts.
func (e *Engine) trace(ctx context.Context, p *Program, cfg TimingConfig) (*Trace, error) {
	tr, ok := e.simulator.(TraceReplayer)
	if !ok || !e.replay || e.cache == nil || !timing.Traceable(cfg) {
		return nil, nil
	}
	return e.cache.traceFor(ctx, p, cfg, func() (*Trace, error) {
		if e.observer != nil {
			defer e.observer.StageStart("trace", p.Name)()
		}
		return tr.RecordTrace(ctx, p, cfg)
	})
}

// simulateRun routes one timing run. t is the run's base-run trace (see
// trace), or nil to simulate in full. Unassisted base runs go through the
// stage cache when one is attached, as a "base" stage; selection-dependent
// runs are a "replay" stage with a trace and a "sim" stage without.
// Results are bit-identical either way (the refsim-style equivalence suite
// in internal/timing and synth pins this). There is no silent fall back
// from a failed replay to full simulation, so a replay bug can never hide as
// a performance regression.
func (e *Engine) simulateRun(ctx context.Context, p *Program, pts []*PThread, cfg TimingConfig, t *Trace) (Stats, error) {
	// The observer wraps only actual executions: the cached base path runs
	// this inside the cache's compute closure, so cache hits are never
	// observed.
	run := func(stage string) (Stats, error) {
		if e.observer != nil {
			defer e.observer.StageStart(stage, p.Name)()
		}
		if t != nil {
			return e.simulator.(TraceReplayer).Replay(ctx, t, pts, cfg)
		}
		return e.simulator.Simulate(ctx, p, pts, cfg)
	}
	if pts == nil && cfg.Mode == ModeBase {
		if e.cache != nil {
			return e.cache.baseStats(ctx, p, cfg, func() (Stats, error) { return run("base") })
		}
		return run("base")
	}
	if t != nil {
		return run("replay")
	}
	return run("sim")
}

// profile returns p's selection profile under the normalized configuration
// cfg. The profiling backend runs at no less than the default p-thread
// length (see profileOptions), through the stage cache when one is
// attached; a shorter MaxLen gets the exact projection of that profile to
// its own length (slice.Forest.Project). The stage observer wraps the
// compute closure, not the cache lookup, so only real profile executions
// are timed.
func (e *Engine) profile(ctx context.Context, p *Program, cfg Config) ([]ProfileRegion, error) {
	opts := cfg.profileOptions()
	compute := func() ([]ProfileRegion, error) {
		if e.observer != nil {
			defer e.observer.StageStart("profile", p.Name)()
		}
		return e.profiler.Profile(ctx, p, opts)
	}
	var regions []ProfileRegion
	var err error
	if e.cache != nil {
		regions, err = e.cache.regions(ctx, p, opts, compute)
	} else {
		regions, err = compute()
	}
	if l := cfg.Selection.MaxLen; err == nil && l > 0 && l < opts.MaxSlice {
		regions = slice.ProjectRegions(regions, l)
	}
	return regions, err
}

// selectRegions runs the selection backend under the stage observer.
func (e *Engine) selectRegions(regions []ProfileRegion, opts SelectorOptions, regioned bool) SelectionResult {
	if e.observer != nil {
		defer e.observer.StageStart("select", "")()
	}
	return e.selector.Select(regions, opts, regioned)
}

// selectOn runs the selection half of the pipeline under the normalized
// configuration cfg: profile (on Selection.ProfileOn or p itself), then
// slice-tree selection. It returns the selection and the profile's observed
// L2 miss count.
func (e *Engine) selectOn(ctx context.Context, p *Program, baseIPC float64, cfg Config) (SelectionResult, int64, error) {
	target := cfg.Selection.ProfileOn
	if target == nil {
		target = p
	}
	regions, err := e.profile(ctx, target, cfg)
	if err != nil {
		return SelectionResult{}, 0, err
	}
	var misses int64
	for _, r := range regions {
		misses += r.Forest.L2Misses
	}
	return e.selectRegions(regions, cfg.selectorOptions(baseIPC), cfg.Selection.RegionInsts > 0), misses, nil
}

// Evaluate runs the full pipeline on one program: base timing run,
// selection, and the pre-execution timing run. Cancelling ctx stops the
// active simulation stage promptly and returns ctx.Err().
func (e *Engine) Evaluate(ctx context.Context, p *Program) (Report, error) {
	// Keep the "core:" error prefixes stable: sweep JSON and CSV error
	// fields carry these strings to clients.
	cfg := e.cfg.Normalized()
	baseCfg := cfg.timingConfig(ModeBase)
	// One trace lookup serves both timing runs: the base run (when it is not
	// cached already) and the pre-execution run replay the same recording.
	t, err := e.trace(ctx, p, baseCfg)
	if err != nil {
		return Report{}, fmt.Errorf("core: base run: %w", err)
	}
	base, err := e.simulateRun(ctx, p, nil, baseCfg, t)
	if err != nil {
		return Report{}, fmt.Errorf("core: base run: %w", err)
	}
	sel, _, err := e.selectOn(ctx, p, base.IPC, cfg)
	if err != nil {
		return Report{}, fmt.Errorf("core: selection: %w", err)
	}
	pre, err := e.simulateRun(ctx, p, sel.PThreads, cfg.timingConfig(ModeNormal), t)
	if err != nil {
		return Report{}, fmt.Errorf("core: pre-execution run: %w", err)
	}
	return Report{
		Program:  p.Name,
		Config:   cfg,
		Base:     base,
		Pre:      pre,
		PThreads: sel.PThreads,
		Pred:     sel.Pred,
		// The coverage denominator is the measured machine's own demand-miss
		// count, NOT the selection profile's (which may cover a different
		// input or a shorter window — Figure 7's dynamic and static
		// scenarios).
		BaseMisses: base.L2Misses,
		PredIPC:    PredictIPC(sel.Pred, cfg.Machine.MeasureInsts, base.IPC, float64(cfg.Machine.Width)),
	}, nil
}

// Profile runs only the functional profiling stage on p with the engine's
// selection parameters, returning the slice-tree regions (a single region
// unless Selection.RegionInsts is set). The forest of the first region is
// what tsim -profile persists for tselect. A MaxLen below the default gets
// the exact projection of the default-length profile.
//
// With a stage cache attached (WithStageCache) the regions may be shared
// with other engines: treat them as immutable.
func (e *Engine) Profile(ctx context.Context, p *Program) ([]ProfileRegion, error) {
	return e.profile(ctx, p, e.cfg.Normalized())
}

// Select runs only the selection half of the pipeline: profile (on
// Selection.ProfileOn or the program itself) and slice-tree selection.
// baseIPC is the unassisted main-thread IPC fed to the advantage model; it
// returns the selection and the profile's observed L2 miss count.
func (e *Engine) Select(ctx context.Context, p *Program, baseIPC float64) (SelectionResult, int64, error) {
	return e.selectOn(ctx, p, baseIPC, e.cfg.Normalized())
}

// SelectForest applies the engine's selection parameters to an
// already-profiled forest (the tselect flow: many p-thread sets from one
// profile).
func (e *Engine) SelectForest(f *Forest, baseIPC float64) SelectionResult {
	return e.selectRegions(
		[]ProfileRegion{{End: f.Insts, Forest: f}},
		e.cfg.Normalized().selectorOptions(baseIPC),
		false,
	)
}

// Simulate measures a program with the given p-threads under one of the
// simulation modes (ModeBase with nil p-threads is the unassisted machine;
// the overhead/latency modes are the paper's §4.3 validation diagnostics).
func (e *Engine) Simulate(ctx context.Context, p *Program, pts []*PThread, mode Mode) (Stats, error) {
	cfg := e.cfg.Normalized().timingConfig(mode)
	if pts == nil && mode == ModeBase {
		// A lone base run simulates in full: recording a trace to replay it
		// once costs as much.
		return e.simulateRun(ctx, p, nil, cfg, nil)
	}
	t, err := e.trace(ctx, p, cfg)
	if err != nil {
		return Stats{}, err
	}
	return e.simulateRun(ctx, p, pts, cfg, t)
}
