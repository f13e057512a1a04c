package slice

import (
	"math/rand"
	"reflect"
	"testing"

	"preexec/internal/isa"
	"preexec/internal/trace"
	"preexec/internal/workload"
)

// truncate returns the first l instructions of sl with every producer
// position at or past l read as NoDep: what Backward returns at MaxLen l.
func truncate(sl []Inst, l int) []Inst {
	out := append([]Inst(nil), sl[:min(l, len(sl))]...)
	cut := func(p int) int {
		if p >= l {
			return NoDep
		}
		return p
	}
	for i := range out {
		out[i].DepPos = [2]int{cut(out[i].DepPos[0]), cut(out[i].DepPos[1])}
		out[i].MemDepPos = cut(out[i].MemDepPos)
	}
	return out
}

// TestBackwardPrefixProperty pins the fact Forest.Project rests on: at every
// load of every workload (each treated as a miss), the slice at a shorter
// MaxLen is the first MaxLen instructions of the slice at maxProjectLen,
// with producer positions at or past the cut read as NoDep.
func TestBackwardPrefixProperty(t *testing.T) {
	long := &Slicer{MaxLen: maxProjectLen}
	short := &Slicer{}
	for _, w := range workload.All() {
		tr := trace.NewTracker(1024)
		var misses, cut int
		for _, e := range workloadExecs(t, w.Name, 20_000) {
			ent := tr.Observe(e)
			if e.Inst.Op != isa.LD {
				continue
			}
			misses++
			full := append([]Inst(nil), long.Backward(tr, ent)...)
			for _, l := range []int{4, 8, 16, 32} {
				short.MaxLen = l
				got := short.Backward(tr, ent)
				if want := truncate(full, l); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s miss seq %d at MaxLen %d:\n got  %+v\n want %+v", w.Name, ent.Seq, l, got, want)
				}
				if len(full) > l {
					cut++
				}
			}
		}
		if misses == 0 || cut == 0 {
			t.Fatalf("%s: %d loads, %d cut slices; the prefix property is not exercised", w.Name, misses, cut)
		}
	}
}

// TestProjectRecordLows checks producer positions through Tree.Insert and
// Project: the node that reads positions 40, then 10, then 5 keeps 40 at
// length 64, 10 at 16 and 5 at 8, because a shorter profile would have read
// the earlier, longer positions as NoDep.
func TestProjectRecordLows(t *testing.T) {
	pcs := make([]int, 48)
	for i := range pcs {
		pcs[i] = 100 + i
	}
	f := NewForest()
	tr := f.TreeFor(pcs[0], isa.Inst{Op: isa.LD})
	for _, pos := range []struct{ dep, mem int }{{40, 33}, {10, 20}, {5, 3}, {20, 40}} {
		sl := mkSlice(pcs...)
		sl[1].DepPos[0] = pos.dep
		sl[2].MemDepPos = pos.mem
		tr.Insert(sl)
	}
	for _, c := range []struct{ l, dep, mem, noLows int }{
		{64, 40, 33, NoDep},
		{32, 10, 20, NoDep},
		{16, 10, 3, NoDep},
		{8, 5, 3, NoDep},
		{4, NoDep, 3, NoDep},
		{3, NoDep, NoDep, NoDep},
	} {
		n1 := f.Project(c.l).Trees[pcs[0]].Root.child(pcs[1])
		if n1.DepPos[0] != c.dep || n1.DepPos[1] != c.noLows {
			t.Errorf("length %d: node 1 DepPos = %v, want [%d %d]", c.l, n1.DepPos, c.dep, c.noLows)
		}
		if n2 := n1.child(pcs[2]); n2.MemDepPos != c.mem {
			t.Errorf("length %d: node 2 MemDepPos = %d, want %d", c.l, n2.MemDepPos, c.mem)
		}
	}

	// A hand-built node has no record lows: its kept position survives
	// wherever it is below the length, and reads NoDep elsewhere.
	hand := &Forest{Trees: map[int]*Tree{7: {RootPC: 7, Root: &Node{
		PC: 7, DepPos: [2]int{5, NoDep}, MemDepPos: NoDep,
		Children: []*Node{{PC: 6, Depth: 1, DepPos: [2]int{NoDep, NoDep}, MemDepPos: NoDep}},
	}}}}
	for _, c := range []struct{ l, dep, kids int }{{8, 5, 1}, {6, 5, 1}, {5, NoDep, 1}, {1, NoDep, 0}} {
		r := hand.Project(c.l).Trees[7].Root
		if r.DepPos[0] != c.dep || len(r.Children) != c.kids {
			t.Errorf("hand-built, length %d: DepPos %v with %d children, want %d with %d", c.l, r.DepPos, len(r.Children), c.dep, c.kids)
		}
	}
}

// TestProjectMatchesTruncatedInserts builds one forest from random long
// slices and, for every length, another from the same slices truncated to
// that length; projecting the first must reproduce the second exactly,
// record lows included.
func TestProjectMatchesTruncatedInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pos := func(i int) int {
		if rng.Intn(3) == 0 {
			return NoDep
		}
		return i + 1 + rng.Intn(maxProjectLen-i)
	}
	var slices [][]Inst
	for range 400 {
		sl := make([]Inst, 1+rng.Intn(maxProjectLen))
		for i := range sl {
			sl[i] = Inst{PC: 10*i + rng.Intn(2), Op: isa.Inst{Op: isa.ADD}, Dist: int64(i + rng.Intn(3)),
				DepPos: [2]int{pos(i), pos(i)}, MemDepPos: pos(i)}
		}
		sl[0].PC, sl[0].Op = rng.Intn(3), isa.Inst{Op: isa.LD}
		slices = append(slices, sl)
	}
	build := func(l int) *Forest {
		f := NewForest()
		for _, sl := range slices {
			f.TreeFor(sl[0].PC, sl[0].Op).Insert(truncate(sl, l))
		}
		f.DCtrig[1], f.Insts, f.Loads, f.L2Misses = 9, 1000, 300, int64(len(slices))
		return f
	}
	full := build(maxProjectLen)
	for _, l := range []int{1, 2, 3, 5, 8, 13, 16, 31, 32, 63, 64} {
		if got, want := full.Project(l), build(l); !reflect.DeepEqual(got, want) {
			t.Errorf("length %d: projection differs from a forest of truncated slices", l)
		}
	}
}

func TestProjectRejectsLength(t *testing.T) {
	for _, l := range []int{0, maxProjectLen + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Project(%d) did not panic", l)
				}
			}()
			NewForest().Project(l)
		}()
	}
}
