package preexec

import (
	"strings"
	"testing"

	"preexec/internal/timing"
)

// stagekeyGrid crosses every axis cmd/tsweep exposes (the warm/measure
// window, scope, maxlen, opt, merge, region, memlat, selmemlat, width,
// selwidth) with a default and one or two variant values: 2304
// configurations covering every combination of stage-feeding and
// stage-irrelevant knobs. The maxlen axis has a value on each side of the
// default, since lengths up to the default share its profile.
func stagekeyGrid() []Config {
	type mut struct {
		name  string
		apply func(*Config)
	}
	axes := [][]mut{
		{
			{"window=30k/120k", nil},
			// Rounds to the default window's trace record count.
			{"window=30k/121k", func(c *Config) { c.Machine.MeasureInsts = 121_000 }},
			{"window=10k/30k", func(c *Config) { c.Machine.WarmInsts, c.Machine.MeasureInsts = 10_000, 30_000 }},
		},
		{{"scope=1024", nil}, {"scope=512", func(c *Config) { c.Selection.Scope = 512 }}},
		{
			{"maxlen=32", nil},
			{"maxlen=16", func(c *Config) { c.Selection.MaxLen = 16 }},
			{"maxlen=64", func(c *Config) { c.Selection.MaxLen = 64 }},
		},
		{{"opt=true", nil}, {"opt=false", func(c *Config) { c.Selection.Optimize = false }}},
		{{"merge=true", nil}, {"merge=false", func(c *Config) { c.Selection.Merge = false }}},
		{{"region=0", nil}, {"region=5000", func(c *Config) { c.Selection.RegionInsts = 5000 }}},
		{{"memlat=70", nil}, {"memlat=140", func(c *Config) { c.Machine.MemLat = 140 }}},
		{{"selmemlat=0", nil}, {"selmemlat=140", func(c *Config) { c.Selection.MemLat = 140 }}},
		{{"width=8", nil}, {"width=4", func(c *Config) { c.Machine.Width = 4 }}},
		{{"selwidth=0", nil}, {"selwidth=4", func(c *Config) { c.Selection.Width = 4 }}},
	}
	cfgs := []Config{DefaultConfig()}
	for _, ax := range axes {
		next := make([]Config, 0, len(cfgs)*len(ax))
		for _, cfg := range cfgs {
			for _, m := range ax {
				c := cfg
				if m.apply != nil {
					m.apply(&c)
				}
				next = append(next, c)
			}
		}
		cfgs = next
	}
	return cfgs
}

// localTraceIdentity is the run-dependent part of a StageCache trace key:
// the record count and the simulator fingerprint.
type localTraceIdentity struct {
	records int64
	version string
}

// localStageIdentity is the StageCache's view of one configuration: the
// exact struct keys its stages group entries by (program identity held
// fixed). The timing config is derived precisely the way the engine derives
// it for the cached stages — normalization, ModeBase, then the shared
// base-run reduction — and the trace identity from the config the engine
// looks its trace up under.
func localStageIdentity(cfg Config) (base TimingConfig, prof ProfileOptions, trace localTraceIdentity, traceable bool) {
	n := cfg.Normalized()
	base = normalizeBaseTiming(n.timingConfig(ModeBase))
	prof = n.profileOptions()
	trace = localTraceIdentity{timing.TraceRecords(n.timingConfig(ModeBase)), timing.TraceVersion}
	return base, prof, trace, timing.Traceable(base)
}

// TestStageKeysMatchLocalCacheIdentity is the single-source regression for
// the key renderer: across the full cmd/tsweep axis cross product, two cells
// share a rendered stage key exactly when the StageCache would group them
// onto one entry. The serve coordinator routes by these rendered keys
// (serve's stageKeys delegates to StageKeys), so any drift between routing
// identity and local memoization — a knob rendered into the string but not
// the struct key, or vice versa — fails here for the axis that drifted.
func TestStageKeysMatchLocalCacheIdentity(t *testing.T) {
	cfgs := stagekeyGrid()
	keys := make([]StageKeySet, len(cfgs))
	bases := make([]TimingConfig, len(cfgs))
	profs := make([]ProfileOptions, len(cfgs))
	traces := make([]localTraceIdentity, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = StageKeys("bench", 1, cfg)
		var traceable bool
		bases[i], profs[i], traces[i], traceable = localStageIdentity(cfg)
		if (keys[i].Trace != "") != traceable {
			t.Fatalf("config %d: trace key %q, Traceable=%v", i, keys[i].Trace, traceable)
		}
	}
	for i := range cfgs {
		for j := i + 1; j < len(cfgs); j++ {
			if got, want := keys[i].Base == keys[j].Base, bases[i] == bases[j]; got != want {
				t.Errorf("configs %d/%d: base keys equal=%v, cache identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Base, keys[j].Base)
			}
			if got, want := keys[i].Profile == keys[j].Profile, profs[i] == profs[j]; got != want {
				t.Errorf("configs %d/%d: profile keys equal=%v, cache identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Profile, keys[j].Profile)
			}
			// The trace stage groups by record count and fingerprint: the
			// recorded stream depends on nothing else of the run.
			if got, want := keys[i].Trace == keys[j].Trace, traces[i] == traces[j]; got != want {
				t.Errorf("configs %d/%d: trace keys equal=%v, trace identity equal=%v\n i: %s\n j: %s",
					i, j, got, want, keys[i].Trace, keys[j].Trace)
			}
		}
	}
}

// TestStageKeysDisambiguate pins the key namespace: benchmark, scale, and
// stage prefix must each separate otherwise-identical cells, the trace key
// must embed the simulator fingerprint so a timing-core version bump
// invalidates routed traces, and p-thread lengths up to the default share
// one profile key.
func TestStageKeysDisambiguate(t *testing.T) {
	cfg := DefaultConfig()
	a := StageKeys("crafty", 1, cfg)
	if b := StageKeys("mcf", 1, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different benchmarks share a stage key: %+v vs %+v", a, b)
	}
	if b := StageKeys("crafty", 2, cfg); b.Base == a.Base || b.Profile == a.Profile || b.Trace == a.Trace {
		t.Errorf("different scales share a stage key: %+v vs %+v", a, b)
	}
	set := map[string]bool{a.Base: true, a.Profile: true, a.Trace: true}
	if len(set) != 3 {
		t.Errorf("stage keys collide across stages: %+v", a)
	}
	if !strings.HasSuffix(a.Trace, "|"+timing.TraceVersion) {
		t.Errorf("trace key %q does not end in the simulator fingerprint %q", a.Trace, timing.TraceVersion)
	}

	// Every MaxLen up to the default shares the default's profile, which the
	// engine projects to the shorter lengths; a longer MaxLen profiles at
	// its own length.
	maxLen := func(l int) string {
		c := cfg
		c.Selection.MaxLen = l
		return StageKeys("crafty", 1, c).Profile
	}
	for _, l := range []int{8, 16, 32} {
		if got := maxLen(l); got != a.Profile {
			t.Errorf("MaxLen %d: profile key %q, want the default's %q", l, got, a.Profile)
		}
	}
	if got := maxLen(64); got == a.Profile {
		t.Errorf("MaxLen 64 shares the default's profile key %q", got)
	}

	// The trace key names the record count, not the machine: every memory
	// latency and width of a machine grid at the 30k/120k window shares one
	// trace (Width 4 and 8 fetch ahead by 160 and 192 records, which round
	// to one count), while a different run total does not.
	machine := func(memLat, width int, warm, measure int64) Config {
		c := cfg
		c.Machine.MemLat, c.Machine.Width = memLat, width
		c.Machine.WarmInsts, c.Machine.MeasureInsts = warm, measure
		return c
	}
	ref := StageKeys("crafty", 1, machine(35, 4, 30_000, 120_000))
	for _, c := range []Config{machine(280, 4, 30_000, 120_000), machine(35, 8, 30_000, 120_000), machine(280, 8, 30_000, 120_000)} {
		if ks := StageKeys("crafty", 1, c); ks.Trace != ref.Trace || ks.Base == ref.Base {
			t.Errorf("MemLat %d Width %d: trace key %q (base %q), want the shared trace %q under a distinct base %q",
				c.Machine.MemLat, c.Machine.Width, ks.Trace, ks.Base, ref.Trace, ref.Base)
		}
	}
	for _, c := range []Config{machine(35, 4, 30_000, 60_000), machine(35, 4, 10_000, 120_000)} {
		if ks := StageKeys("crafty", 1, c); ks.Trace == ref.Trace {
			t.Errorf("window %d+%d shares the 30k+120k trace key %q",
				c.Machine.WarmInsts, c.Machine.MeasureInsts, ks.Trace)
		}
	}

	// An untraceable run (too large to record) renders no trace key.
	big := cfg
	big.Machine.MeasureInsts = 1 << 40
	if ks := StageKeys("crafty", 1, big); ks.Trace != "" {
		t.Errorf("untraceable run rendered trace key %q", ks.Trace)
	}
}
