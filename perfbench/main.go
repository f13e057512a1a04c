// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the pre-execution pipeline — a library selection grid, a
// library machine grid, or mixed traffic against an in-process preexecd —
// checks the outputs, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload slice_grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time, tracing
// off); with --trace 1 a separate traced run reports the per-layer ones.
// README.md documents the workloads, the metrics and which layer metric
// should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runTimeout bounds one invocation, build excluded.
const runTimeout = 170 * time.Second

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	budget   time.Duration // measured time per run
	traced   bool
	size     size
	// spansDir, if non-empty, receives the traced run's spans as NDJSON.
	spansDir string
}

// size fixes how much work one repetition does. The self-test shrinks it;
// every published number uses fullSize.
type size struct {
	warm, measure int64
	benches       []string // builtin workloads the grids and hot requests use
	mix           mix      // serve_mixed operations per repetition
	setups        int      // set-up repetitions per run (setup_s is their median)
	parity        int      // grid cells re-run uncached per run
}

// fullSize is the paper's sampling window (30k warm-up, 120k measured
// instructions) over all ten builtin workloads.
var fullSize = size{
	warm:    30_000,
	measure: 120_000,
	benches: nil, // all ten
	mix:     mix{hot: 15, novel: 3, sweeps: 1, uploads: 18},
	setups:  21,
	parity:  3,
}

// outcome is what one workload run hands to the emitter.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	// info lines are printed before the result line (sample counts, the
	// results hash, failed checks).
	info []string
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.info = append(o.info, "check failed: "+fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options) (*outcome, error){
	"slice_grid":   func(ctx context.Context, o options) (*outcome, error) { return runGrid(ctx, o, sliceGrid) },
	"machine_grid": func(ctx context.Context, o options) (*outcome, error) { return runGrid(ctx, o, machineGrid) },
	"serve_mixed":  runServe,
}

func main() {
	var (
		o       options
		seconds float64
		trace   int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: slice_grid, machine_grid or serve_mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the serve mix, the synth specs and the sampled parity cells")
	flag.Float64Var(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.spansDir, "spans", "", "directory for the traced run's spans (empty = keep them in memory only)")
	flag.Parse()
	o.budget = time.Duration(seconds * float64(time.Second))
	o.traced = trace == 1
	o.size = fullSize
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// A run must end within 180 s; a hung stage fails it instead.
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload, prints its info lines, and returns the result
// carrying exactly the metric set the run mode promises.
func run(ctx context.Context, o options) (*result, error) {
	runner, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want slice_grid, machine_grid or serve_mixed)", o.workload)
	}
	out, err := runner(ctx, o)
	if err != nil {
		return nil, err
	}
	for _, line := range out.info {
		fmt.Println(line)
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer()
	}
	res := &result{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", o.workload)
	}
	return res, nil
}
