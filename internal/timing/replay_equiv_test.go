package timing

// Equivalence tests for trace replay: Replay against a recorded base-run
// trace must produce Stats bit-for-bit identical to a full RunContext
// simulation — the same refsim discipline that pins the optimized core to
// the frozen reference core. The synth.Zoo corpus and the differential fuzz
// target live in the synth package (which can import this one; the reverse
// would cycle).

import (
	"context"
	"testing"

	"preexec/internal/program"
	"preexec/internal/pthread"
	"preexec/internal/workload"
)

// recordFor records a trace for the given run sizing using the same Config
// family the runs use.
func recordFor(t *testing.T, prog *program.Program, cfg Config) *Trace {
	t.Helper()
	tr, err := RecordTrace(context.Background(), prog, cfg)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	return tr
}

// TestReplayMatchesSimulation pins replay to full simulation on all ten
// workloads in all five modes, one recorded trace per workload serving every
// mode, with selected p-threads in play.
func TestReplayMatchesSimulation(t *testing.T) {
	const warm, measure = 10_000, 40_000
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			pts := selectFor(t, prog, warm, measure)
			cfg := DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			tr := recordFor(t, prog, cfg)
			for _, mode := range allModes {
				cfg.Mode = mode
				want, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: simulation: %v", w.Name, mode, err)
				}
				got, err := Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s: replay: %v", w.Name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s: replay diverges from simulation\n got: %+v\nwant: %+v", w.Name, mode, got, want)
				}
			}
		})
	}
}

// TestReplayAcrossMachines pins the machine independence of a recorded
// trace: one trace per workload, recorded under Width 4 and MemLat 35,
// replays every machine of the paper's cross-validation grid (MemLat
// {35, 70, 140, 280} x Width {4, 8}) bit-identically to full simulation,
// both unassisted and with selected p-threads. At this window every machine
// needs the same TraceRecords, so the stage cache serves all eight from one
// recording.
func TestReplayAcrossMachines(t *testing.T) {
	const warm, measure = 10_000, 30_000
	rec := DefaultConfig()
	rec.WarmInsts, rec.MaxInsts = warm, measure
	rec.Width, rec.MemLat = 4, 35
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog := w.Build(1)
			pts := selectFor(t, prog, warm, measure)
			tr := recordFor(t, prog, rec)
			if got, want := int64(tr.Records()), TraceRecords(rec); got != want {
				t.Fatalf("trace holds %d records, TraceRecords = %d", got, want)
			}
			for _, memLat := range []int{35, 70, 140, 280} {
				for _, width := range []int{4, 8} {
					cfg := rec
					cfg.MemLat, cfg.Width = memLat, width
					if TraceRecords(cfg) != TraceRecords(rec) {
						t.Fatalf("MemLat %d Width %d needs %d records, the trace has %d",
							memLat, width, TraceRecords(cfg), TraceRecords(rec))
					}
					for _, run := range []struct {
						mode Mode
						pts  []*pthread.PThread
					}{{ModeBase, nil}, {ModeNormal, pts}} {
						cfg.Mode = run.mode
						want, err := Run(prog, run.pts, cfg)
						if err != nil {
							t.Fatalf("l%d/w%d/%s: simulation: %v", memLat, width, run.mode, err)
						}
						got, err := Replay(context.Background(), tr, run.pts, cfg)
						if err != nil {
							t.Fatalf("l%d/w%d/%s: replay: %v", memLat, width, run.mode, err)
						}
						if got != want {
							t.Errorf("l%d/w%d/%s: replay diverges from simulation\n got: %+v\nwant: %+v",
								memLat, width, run.mode, got, want)
						}
					}
				}
			}
		})
	}
}

// TestReplayMatchesSimulationEdgeConfigs stresses the replay structures the
// same way the optimized-vs-reference edge suite stresses the core: tiny
// backends, starved store queues, context-count extremes, throttle off, and
// memory-latency extremes. The trace is re-recorded per geometry (the
// extent depends on ROB/Width).
func TestReplayMatchesSimulationEdgeConfigs(t *testing.T) {
	const warm, measure = 5_000, 25_000
	mutate := []struct {
		name string
		fn   func(*Config)
	}{
		{"tiny-backend", func(c *Config) { c.Width, c.ROB, c.RS, c.StoreQueue = 1, 4, 4, 2 }},
		{"narrow-wide-rob", func(c *Config) { c.Width, c.ROB = 2, 256 }},
		{"small-storeq", func(c *Config) { c.StoreQueue = 4 }},
		{"one-context", func(c *Config) { c.PtContexts = 1 }},
		{"many-contexts", func(c *Config) { c.PtContexts = 8 }},
		{"no-throttle", func(c *Config) { c.NoRSThrottle = true }},
		{"slow-memory", func(c *Config) { c.MemLat = 280 }},
		{"fast-memory", func(c *Config) { c.MemLat = 8 }},
		{"few-mshrs", func(c *Config) { c.MSHRs = 2 }},
		{"wide-burst", func(c *Config) { c.PtBurst = 16 }},
	}
	for _, wname := range []string{"mcf", "vpr.p", "vortex"} {
		w, err := workload.ByName(wname)
		if err != nil {
			t.Fatal(err)
		}
		prog := w.Build(1)
		pts := selectFor(t, prog, warm, measure)
		for _, m := range mutate {
			cfg := DefaultConfig()
			cfg.WarmInsts, cfg.MaxInsts = warm, measure
			m.fn(&cfg)
			tr := recordFor(t, prog, cfg)
			for _, mode := range []Mode{ModeBase, ModeNormal} {
				cfg.Mode = mode
				want, err := Run(prog, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: simulation: %v", wname, m.name, mode, err)
				}
				got, err := Replay(context.Background(), tr, pts, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: replay: %v", wname, m.name, mode, err)
				}
				if got != want {
					t.Errorf("%s/%s/%s: replay diverges from simulation\n got: %+v\nwant: %+v", wname, m.name, mode, got, want)
				}
			}
		}
	}
}

// TestReplayTruncatedTrace pins the oracle-error parity: a program that runs
// off the end of its text truncates the trace, and replay of the truncated
// trace matches the simulator (whose fetch swallows the same error at the
// same instruction).
func TestReplayTruncatedTrace(t *testing.T) {
	b := program.NewBuilder("runs-off-end")
	b.Li(1, 0).Li(2, 500)
	b.Label("loop").
		Addi(1, 1, 1).
		Blt(1, 2, "loop")
	// Falls through past the last instruction: the oracle errors out.
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 0, 50_000
	tr := recordFor(t, p, cfg)
	if !tr.truncated {
		t.Fatalf("trace not truncated: %d records", tr.Records())
	}
	want, err := Run(p, nil, cfg)
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	got, err := Replay(context.Background(), tr, nil, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got != want {
		t.Errorf("truncated-trace replay diverges\n got: %+v\nwant: %+v", got, want)
	}
}

// TestReplayRejectsShortTrace asserts the loud-failure contract: a trace
// recorded for a smaller run than the replay configuration demands is
// refused up front, and a version-mismatched trace is refused outright.
func TestReplayRejectsShortTrace(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 0, 10_000
	tr := recordFor(t, prog, cfg)

	big := cfg
	big.MaxInsts = 200_000
	if _, err := Replay(context.Background(), tr, nil, big); err == nil {
		t.Error("replay of a too-short trace did not fail")
	}

	stale := &Trace{prog: tr.prog, version: "rt0-stale", recs: tr.recs}
	if _, err := Replay(context.Background(), stale, nil, cfg); err == nil {
		t.Error("replay of a version-mismatched trace did not fail")
	}
}

// TestReplayUntraceableRun pins the RecordTrace bounds: the unbounded
// MaxInsts default must be refused (a trace of it could not be stored), and
// Traceable must agree.
func TestReplayUntraceableRun(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // MaxInsts stays the unbounded 1<<62 default
	if Traceable(cfg) {
		t.Error("Traceable(unbounded) = true")
	}
	if _, err := RecordTrace(context.Background(), w.Build(1), cfg); err == nil {
		t.Error("RecordTrace of an unbounded run did not fail")
	}
	cfg.MaxInsts = 10_000
	if !Traceable(cfg) {
		t.Error("Traceable(10k) = false")
	}
}

// TestReplayCancellation pins the PR 5 guarantee on the replay path: both
// recording and replay poll the context on the same bounded cadence as
// RunContext (every 1<<12 loop iterations), so a cancelled context stops
// them within a bounded number of events rather than at stage boundaries.
func TestReplayCancellation(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 10_000, 40_000
	tr := recordFor(t, prog, cfg)
	pts := selectFor(t, prog, 10_000, 40_000)
	cfg.Mode = ModeNormal

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context must be noticed at the first poll — within
	// ctxCheckMask+1 loop iterations, i.e. before any meaningful work.
	if _, err := Replay(cancelled, tr, pts, cfg); err != context.Canceled {
		t.Errorf("cancelled replay returned %v, want context.Canceled", err)
	}
	if _, err := RecordTrace(cancelled, prog, cfg); err != context.Canceled {
		t.Errorf("cancelled recording returned %v, want context.Canceled", err)
	}
}

// TestReplayDeterministic asserts repeated replays of one trace are
// bit-for-bit identical (the slot arena and free list must not leak
// allocation order into results).
func TestReplayDeterministic(t *testing.T) {
	w, err := workload.ByName("vpr.p")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(1)
	pts := selectFor(t, prog, 10_000, 40_000)
	cfg := DefaultConfig()
	cfg.WarmInsts, cfg.MaxInsts = 10_000, 40_000
	cfg.Mode = ModeNormal
	tr := recordFor(t, prog, cfg)
	a, err := Replay(context.Background(), tr, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(context.Background(), tr, pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated replays diverge\n first: %+v\nsecond: %+v", a, b)
	}
}
