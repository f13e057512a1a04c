package timing

import (
	"context"
	"fmt"

	"preexec/internal/branch"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
)

// This file implements the recording half of trace replay.
//
// The key observation is that the simulator's entire front-end input stream
// is selection-independent: fetch is execution-driven on the correct path, so
// the dynamic instruction sequence, the effective addresses, and the branch
// predictor's verdicts depend only on the program and the fetch (= program)
// order in which the predictor trains — never on p-threads, which occupy
// their own SMT contexts and are invisible to fetch — nor on the machine's
// memory latency or width, which only time the stream. One recorded trace
// therefore serves every selection, every p-thread mode, and every machine
// whose run needs the same number of records (TraceRecords): Replay
// (replay.go) re-times the backend against the recorded stream and produces
// Stats bit-identical to a full RunContext simulation.
//
// P-thread launches read the architectural register file and memory image at
// the launch point, which moves with timing; to reconstruct that state at any
// fetch position the trace also records each instruction's architectural
// effect (destination value, or store value), and Replay maintains its own
// register file and memory image applied in fetch order.

// TraceVersion is the simulator fingerprint baked into every recorded trace.
// Replay refuses a trace recorded under a different version, and the stage
// caches key trace entries by it, so any change to the timing core's
// semantics invalidates recorded traces cleanly: bump the version whenever
// sim.go, replay.go, memsys.go, or the predictor change behaviour.
const TraceVersion = "rt1-2026-08"

// traceRec flags.
const (
	tfStore      = 1 << iota // ST: val is the stored value, effAddr the address
	tfHasDest                // writes rd (rd may be the zero register)
	tfBrLookup               // conditional branch: counts a predictor lookup
	tfMispredict             // mispredicted branch or JR: becomes the fetch blocker
	tfBreak                  // taken control: fetch stops after this instruction
	tfHalt                   // HALT: fetch is done after this instruction
)

// traceRec is one fetched instruction with everything the replay engine
// needs precomputed: the renamer's producer links, the scheduler's class and
// latency, the predictor's verdict, the architectural effect, and the
// backward same-word store link that replaces the store-forwarding map.
//
// prod holds the record index of each source operand's producer — the most
// recent earlier record writing that register — or -1 (no producer, or the
// zero register). The rename table is maintained in program order, which is
// exactly fetch order, so its whole evolution is a property of the trace and
// is precomputed here; the runtime "producer already retired" case is
// recovered during replay by comparing the link against the retirement
// watermark, because retirement is strictly program-ordered too.
type traceRec struct {
	effAddr   int64
	val       int64 // rd value (tfHasDest) or stored value (tfStore)
	prod      [2]int32
	prevStore int32 // most recent earlier store record to the same word; -1
	pc        int32
	rd        uint8 // destination register; 0xff = none
	class     uint8 // isa.Class
	latAdd    uint8 // non-memory completion latency (Mul: 3, else 1)
	flags     uint8
}

// noSrc marks an absent destination register in traceRec.rd.
const noSrc = 0xff

// Trace is a recorded base-run event stream: the complete front-end input of
// any timing simulation of its program whose run it covers (all modes, any
// selection, any machine with the same TraceRecords). Traces are immutable
// after recording and safe for concurrent Replay calls.
type Trace struct {
	prog    *program.Program
	version string
	recs    []traceRec
	// truncated marks a trace ended by an oracle step error (the simulator
	// swallows the error and stops fetching; replay mirrors that). A
	// non-truncated trace ends at the recorded extent or at HALT.
	truncated bool
}

// Program returns the program the trace was recorded from.
func (t *Trace) Program() *program.Program { return t.prog }

// Version returns the simulator fingerprint the trace was recorded under.
func (t *Trace) Version() string { return t.version }

// Records returns the number of recorded instructions.
func (t *Trace) Records() int { return len(t.recs) }

// Bytes approximates the trace's memory footprint, for cache sizing.
func (t *Trace) Bytes() int64 { return int64(len(t.recs)) * 40 }

// maxTraceInsts bounds recordable runs: beyond this the trace's memory
// footprint (40 bytes/record) is unreasonable for a long-lived stage cache
// and callers should simulate directly. 4M instructions caps a trace near
// 160MB and comfortably covers the evaluation windows the suite and the
// service sweep (tens of thousands to ~1M instructions).
const maxTraceInsts = int64(4) << 20

// traceExtent returns how many instructions past the measured total the
// recording must extend. A replaying (or simulating) machine's fetch runs
// ahead of retirement by at most the ROB plus the front-end queue (under
// 3xWidth entries) plus one retire bundle of overshoot; 8xWidth leaves that
// bound comfortable headroom. Replay fails loudly — it never silently stalls
// — if a trace turns out too short (see replay.go), so an undersized extent
// cannot produce wrong numbers, only an error the equivalence suite catches.
func traceExtent(cfg Config) int64 {
	return int64(cfg.ROB + 8*cfg.Width)
}

// traceQuantum is the granularity of recorded trace lengths (see
// TraceRecords). It exceeds every fetch-ahead difference between the
// paper's machines (Width 4 and 8 differ by 32 records), so they share one
// trace, and costs a trace at most traceQuantum-1 spare records (≈160 KB).
const traceQuantum = 4096

// runInsts returns the instructions a run under cfg (with defaults applied)
// retires: warm-up plus measurement.
func runInsts(cfg Config) int64 {
	total := cfg.WarmInsts + cfg.MaxInsts
	if total < 0 { // overflow of the "unbounded" default
		total = cfg.MaxInsts
	}
	return total
}

// Traceable reports whether a configuration's run is small enough to record.
func Traceable(cfg Config) bool {
	cfg = cfg.withDefaults()
	total := runInsts(cfg)
	return total > 0 && total <= maxTraceInsts
}

// TraceRecords returns how many records RecordTrace captures for a run
// under cfg: the run's instruction total plus its maximum fetch-ahead
// (traceExtent), rounded up to a multiple of traceQuantum. It is 0 for a run
// that is not Traceable. The recorded stream depends only on the program and
// this count, so two configurations with equal TraceRecords replay one
// trace, whatever their memory latency, width or mode.
func TraceRecords(cfg Config) int64 {
	if !Traceable(cfg) {
		return 0
	}
	cfg = cfg.withDefaults()
	n := runInsts(cfg) + traceExtent(cfg)
	return (n + traceQuantum - 1) / traceQuantum * traceQuantum
}

// RecordTrace records the front-end event stream a simulation of prog under
// cfg (any mode) consumes: it drives the functional oracle and the branch
// predictor — exactly the simulator's fetch stage, minus the machinery — for
// TraceRecords(cfg) instructions, or until HALT or an oracle error. Only the
// record count depends on cfg: the trace serves every configuration with
// the same TraceRecords, whatever its memory latency, width, p-thread mode
// or ablation switches.
func RecordTrace(ctx context.Context, prog *program.Program, cfg Config) (*Trace, error) {
	extent := TraceRecords(cfg)
	if extent == 0 {
		return nil, fmt.Errorf("timing: run of %d instructions is not traceable (max %d)",
			runInsts(cfg.withDefaults()), maxTraceInsts)
	}

	oracle := cpu.New(prog)
	pred := branch.New(branch.DefaultConfig())
	t := &Trace{
		prog:    prog,
		version: TraceVersion,
		recs:    make([]traceRec, 0, extent),
	}
	// lastStore maps a word address to the most recent store record to it,
	// building the backward forwarding links as the stream is recorded.
	// regProd is the renamer's producer table over record indices; it builds
	// the dependence links the same way the simulator's rename stage builds
	// them over in-flight uops (rename is program-ordered, so both see the
	// same most-recent writer).
	lastStore := make(map[int64]int32)
	var regProd [isa.NumRegs]int32
	for i := range regProd {
		regProd[i] = -1
	}
	done := ctx.Done()
	for int64(len(t.recs)) < extent {
		if done != nil && len(t.recs)&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if oracle.Halted {
			break
		}
		e, err := oracle.Step()
		if err != nil {
			// The simulator's fetch swallows oracle errors and stops
			// fetching; the truncation mark makes replay do the same.
			t.truncated = true
			break
		}
		rec := traceRec{
			effAddr:   e.EffAddr,
			prevStore: -1,
			pc:        int32(e.PC),
			class:     uint8(isa.ClassOf(e.Inst.Op)),
			latAdd:    uint8(isa.Latency(e.Inst.Op)),
		}
		srcs, ns := e.Inst.Sources()
		rec.prod[0], rec.prod[1] = -1, -1
		for i := 0; i < ns; i++ {
			if srcs[i] != isa.Zero {
				rec.prod[i] = regProd[srcs[i]]
			}
		}
		rec.rd = noSrc
		if e.Inst.HasDest() {
			rec.rd = uint8(e.Inst.Rd)
			rec.flags |= tfHasDest
			rec.val = e.RdVal
			regProd[e.Inst.Rd] = int32(len(t.recs))
		}
		switch isa.Class(rec.class) {
		case isa.ClassLoad:
			if j, ok := lastStore[e.EffAddr&^7]; ok {
				rec.prevStore = j
			}
		case isa.ClassStore:
			w := e.EffAddr &^ 7
			if j, ok := lastStore[w]; ok {
				rec.prevStore = j
			}
			lastStore[w] = int32(len(t.recs))
			rec.flags |= tfStore
			// ST reads no destination; val carries the stored value so
			// replay can maintain the memory image in fetch order.
			rec.val = oracle.Regs[e.Inst.Rs2]
		case isa.ClassBranch:
			rec.flags |= tfBrLookup
			if _, correct := pred.PredictAndTrain(e.PC, e.Taken); !correct {
				rec.flags |= tfMispredict
			} else if e.Taken {
				rec.flags |= tfBreak
			}
		case isa.ClassJump:
			if e.Inst.Op == isa.JR {
				if pred.BTBLookup(e.PC) != e.NextPC {
					rec.flags |= tfMispredict
					pred.BTBInsert(e.PC, e.NextPC)
				}
			}
			rec.flags |= tfBreak
		case isa.ClassHalt:
			rec.flags |= tfHalt
		}
		t.recs = append(t.recs, rec)
	}
	return t, nil
}
