package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. BENCHMARK.json lists
// the same names; the self-test keeps the two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, reported by every
// workload with tracing off. README.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"speedup_pct_mean", "%"},
	{"ipc_pred_error_pct", "%"},
}

// stageNames are the pipeline stages the engine's StageObserver and the
// server's preexec_stage_duration_seconds histogram report.
var stageNames = []string{"profile", "select", "base", "sim", "trace", "replay"}

// perLayer returns the traced run's metrics: five per pipeline stage, then
// the cache, serve, set-up and unattributed-remainder layers.
func perLayer() []metricSpec {
	var specs []metricSpec
	for _, st := range stageNames {
		specs = append(specs,
			metricSpec{st + ".calls", "count"},
			metricSpec{st + ".busy_ms", "ms"},
			metricSpec{st + ".share", "ratio"},
			metricSpec{st + ".alloc_mb", "MB"},
			metricSpec{st + ".allocs", "count"},
		)
	}
	for _, st := range []string{"base", "profile", "trace"} {
		specs = append(specs,
			metricSpec{"cache." + st + ".runs", "count"},
			metricSpec{"cache." + st + ".hits", "count"},
			metricSpec{"cache." + st + ".hit_ratio", "ratio"},
		)
	}
	return append(specs,
		metricSpec{"cache.evictions", "count"},
		metricSpec{"trace.replays_per_record", "ratio"},
		metricSpec{"serve.overhead_ms", "ms"},
		metricSpec{"serve.coalesced_ratio", "ratio"},
		metricSpec{"serve.flights_started", "count"},
		metricSpec{"serve.flights_coalesced", "count"},
		metricSpec{"build.ms", "ms"},
		metricSpec{"build.calls", "count"},
		metricSpec{"synth.gen_ms", "ms"},
		metricSpec{"synth.specs", "count"},
		metricSpec{"orchestration.ms", "ms"},
		metricSpec{"orchestration.share", "ratio"},
		metricSpec{"obs.overhead_pct", "%"},
		metricSpec{"traced.wall_ms", "ms"},
	)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	// Equal neighbours (+Inf ones included) and exact positions need no
	// interpolation, which would turn 0*Inf into NaN.
	if lo+1 >= len(s) || frac == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio is num/den, 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// canonicalJSON re-encodes a JSON document with sorted object keys and
// numbers kept as written, so two encodings of one value compare equal
// byte for byte regardless of key order, indentation or trailing newline.
func canonicalJSON(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decode JSON: %w", err)
	}
	return json.Marshal(v)
}

// resultHash accumulates a workload's outputs in a fixed order into the
// informational results_sha256.
type resultHash struct{ h hash.Hash }

func newResultHash() resultHash { return resultHash{sha256.New()} }

func (r resultHash) add(label string, data []byte) {
	r.h.Write([]byte(label))
	r.h.Write([]byte{'\n'})
	r.h.Write(data)
	r.h.Write([]byte{'\n'})
}

func (r resultHash) sum() string { return hex.EncodeToString(r.h.Sum(nil)) }

// simulated collects the simulated-time results of one repetition's
// evaluations. The means sum in sorted order, so they repeat exactly
// whatever order the evaluations completed in.
type simulated struct{ speedup, ipcErr []float64 }

func (s *simulated) add(speedupPct, predIPC, preIPC float64) {
	s.speedup = append(s.speedup, speedupPct)
	if preIPC > 0 {
		s.ipcErr = append(s.ipcErr, math.Abs(predIPC-preIPC)/preIPC*100)
	}
}

func sortedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

func (s simulated) speedupMean() float64 { return sortedMean(s.speedup) }
func (s simulated) ipcErrMean() float64  { return sortedMean(s.ipcErr) }
