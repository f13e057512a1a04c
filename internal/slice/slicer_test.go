package slice

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/trace"
	"preexec/internal/workload"
)

// referenceBackward is the straightforward formulation of Backward — a Seq
// map for slice membership, a full sort of the pending list before every
// pop, and a Seq-to-position map — kept as the oracle for the scratch-reusing
// implementation.
func referenceBackward(tr *trace.Tracker, miss *trace.Entry, maxLen int) []Inst {
	inSlice := map[int64]*trace.Entry{miss.Seq: miss}
	pending := []int64{miss.Seq}
	var ordered []*trace.Entry
	for len(pending) > 0 && len(ordered) < maxLen {
		sort.Slice(pending, func(i, j int) bool { return pending[i] > pending[j] })
		ent := inSlice[pending[0]]
		pending = pending[1:]
		ordered = append(ordered, ent)
		for _, prodSeq := range []int64{ent.SrcProd[0], ent.SrcProd[1], ent.MemProd} {
			if prodSeq == trace.NoProducer {
				continue
			}
			if _, seen := inSlice[prodSeq]; seen {
				continue
			}
			if prod, ok := tr.Get(prodSeq); ok {
				inSlice[prodSeq] = prod
				pending = append(pending, prodSeq)
			}
		}
	}
	pos := make(map[int64]int, len(ordered))
	for i, ent := range ordered {
		pos[ent.Seq] = i
	}
	lookup := func(seq int64) int {
		if p, ok := pos[seq]; ok && seq != trace.NoProducer {
			return p
		}
		return NoDep
	}
	out := make([]Inst, len(ordered))
	for i, ent := range ordered {
		out[i] = Inst{
			PC:        ent.PC,
			Op:        ent.Inst,
			Dist:      miss.Seq - ent.Seq,
			DepPos:    [2]int{lookup(ent.SrcProd[0]), lookup(ent.SrcProd[1])},
			MemDepPos: lookup(ent.MemProd),
		}
	}
	return out
}

func TestSeqHeapPopsDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h seqHeap
	for round := 0; round < 200; round++ {
		h = h[:0]
		n := 1 + rng.Intn(64)
		want := rng.Perm(4 * n)[:n]
		for _, v := range want {
			h.push(int64(v))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(want)))
		for i, w := range want {
			if got := h.pop(); got != int64(w) {
				t.Fatalf("round %d pop %d = %d, want %d", round, i, got, w)
			}
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d left after draining", round, len(h))
		}
	}
}

// randomExecs returns a dynamic stream over few registers and few words, so
// instructions reconverge on shared producers and two-source ADDs and
// stores fan the pending set out well past the handful of entries real
// workload slices reach.
func randomExecs(rng *rand.Rand, n int) []cpu.Exec {
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(6)) }
	execs := make([]cpu.Exec, n)
	for i := range execs {
		var in isa.Inst
		var addr int64
		switch rng.Intn(6) {
		case 0:
			in = isa.Inst{Op: isa.LI, Rd: reg()}
		case 1:
			in = isa.Inst{Op: isa.ADDI, Rd: reg(), Rs1: reg(), Imm: 8}
		case 2, 3:
			in = isa.Inst{Op: isa.ADD, Rd: reg(), Rs1: reg(), Rs2: reg()}
		case 4:
			in = isa.Inst{Op: isa.LD, Rd: reg(), Rs1: reg()}
			addr = 8 * int64(rng.Intn(16))
		default:
			in = isa.Inst{Op: isa.ST, Rs1: reg(), Rs2: reg()}
			addr = 8 * int64(rng.Intn(16))
		}
		execs[i] = cpu.Exec{Seq: int64(i), PC: rng.Intn(32), Inst: in, EffAddr: addr}
	}
	return execs
}

// workloadExecs returns the first n dynamic instructions of a workload.
func workloadExecs(t *testing.T, name string, n int) []cpu.Exec {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	st := cpu.New(w.Build(1))
	var execs []cpu.Exec
	for len(execs) < n && !st.Halted {
		e, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, e)
	}
	return execs
}

// reuseRun feeds execs through a tracker of the given scope and, at every
// load (each treated as a miss), checks that the shared Slicer returns
// exactly what a fresh Slicer and the reference return. before, if non-nil,
// runs ahead of every shared call. It returns how many slice instructions
// had an in-scope producer that was queued but cut off by MaxLen.
func reuseRun(t *testing.T, shared *Slicer, scope int, execs []cpu.Exec, before func()) (cutoffs int) {
	t.Helper()
	tr := trace.NewTracker(scope)
	for _, e := range execs {
		ent := tr.Observe(e)
		if e.Inst.Op != isa.LD {
			continue
		}
		if before != nil {
			before()
		}
		got := shared.Backward(tr, ent)
		fresh := (&Slicer{MaxLen: shared.MaxLen}).Backward(tr, ent)
		want := referenceBackward(tr, ent, shared.MaxLen)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(fresh, want) {
			t.Fatalf("scope %d maxlen %d miss seq %d:\n shared %+v\n fresh  %+v\n want   %+v",
				scope, shared.MaxLen, ent.Seq, got, fresh, want)
		}
		for i, si := range got {
			prods := []int64{ent.SrcProd[0], ent.SrcProd[1], ent.MemProd}
			if i > 0 {
				prev, _ := tr.Get(ent.Seq - si.Dist)
				prods = []int64{prev.SrcProd[0], prev.SrcProd[1], prev.MemProd}
			}
			deps := []int{si.DepPos[0], si.DepPos[1], si.MemDepPos}
			for k, p := range prods {
				if p != trace.NoProducer && tr.InScope(p) && deps[k] == NoDep {
					cutoffs++
				}
			}
		}
	}
	return cutoffs
}

// TestSlicerReuseMatchesFresh pins the scratch-reuse contract of Backward:
// one Slicer carried across every miss of several runs returns exactly what
// a fresh Slicer (and the reference formulation) returns for each miss.
func TestSlicerReuseMatchesFresh(t *testing.T) {
	t.Run("workloads", func(t *testing.T) {
		shared := &Slicer{MaxLen: 32}
		for _, name := range []string{"vpr.r", "mcf", "bzip2"} {
			reuseRun(t, shared, 1024, workloadExecs(t, name, 20_000), nil)
		}
	})

	// The tracker is reset to a different scope between runs, so the slot
	// marks are re-indexed under a new modulus while earlier marks remain.
	t.Run("scope-reset", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		execs := randomExecs(rng, 3_000)
		shared := &Slicer{MaxLen: 24}
		for _, scope := range []int{256, 16, 1024, 7, 64, 256} {
			reuseRun(t, shared, scope, execs, nil)
		}
	})

	// The generation stamp wraps. The first call stamps the miss's slice
	// with generation 1 and the call after the wrap is generation 1 again,
	// so unless wraparound clears the marks it would read the whole slice
	// as already visited.
	t.Run("generation-wrap", func(t *testing.T) {
		execs := randomExecs(rand.New(rand.NewSource(3)), 2_000)
		execs = append(execs, cpu.Exec{Seq: int64(len(execs)), PC: 99,
			Inst: isa.Inst{Op: isa.LD, Rd: 1, Rs1: 2}, EffAddr: 0x40})
		tr, miss := feed(128, execs)
		want := referenceBackward(tr, miss, 16)
		if len(want) < 4 {
			t.Fatalf("miss slice has %d instructions; too short to show stale marks", len(want))
		}
		shared := &Slicer{MaxLen: 16}
		shared.Backward(tr, miss)
		shared.gen = math.MaxUint32
		if got := shared.Backward(tr, miss); !reflect.DeepEqual(got, want) {
			t.Fatalf("after wraparound:\n got  %+v\n want %+v", got, want)
		}
		if shared.gen != 1 {
			t.Fatalf("generation after wraparound = %d, want 1", shared.gen)
		}
		reuseRun(t, shared, 128, execs, nil)
	})

	// Short MaxLen cuts slices off with producers still queued; those must
	// read NoDep rather than a stale or out-of-range position.
	t.Run("maxlen-cutoff", func(t *testing.T) {
		execs := randomExecs(rand.New(rand.NewSource(4)), 3_000)
		shared := &Slicer{}
		cutoffs := 0
		for _, maxLen := range []int{1, 2, 3, 5, 8} {
			shared.MaxLen = maxLen
			cutoffs += reuseRun(t, shared, 64, execs, nil)
		}
		if cutoffs == 0 {
			t.Fatal("no slice had a queued producer cut off by MaxLen; the case is not exercised")
		}
	})
}
