// Package slice implements dynamic backward slicing of cache-miss loads and
// the slice tree, the paper's data structure for compactly representing the
// space of all candidate static p-threads for a static problem load (§3.2).
package slice

import (
	"preexec/internal/isa"
	"preexec/internal/trace"
)

// NoDep marks a source operand with no producer inside the slice (a live-in
// seeded from the main thread at launch).
const NoDep = -1

// Inst is one instruction of a backward slice. Position 0 is the problem
// load itself; increasing positions move backward in dynamic execution
// order (deeper in the slice tree).
type Inst struct {
	PC int
	Op isa.Inst
	// Dist is the dynamic main-thread distance (in instructions) from this
	// instruction to the problem load: root.Seq - this.Seq. The SCDH model
	// derives main-thread sequencing constraints from it.
	Dist int64
	// DepPos[i] is the slice position of the producer of register source i,
	// or NoDep. For loads, a memory dependence on an in-slice store is
	// reported through MemDepPos.
	DepPos    [2]int
	MemDepPos int
}

// Slicer extracts backward slices from a Tracker's window. It keeps its
// working buffers between calls, so the steady state of a profiling run
// allocates nothing per miss; a Slicer is therefore not safe for concurrent
// use.
type Slicer struct {
	// MaxLen bounds the number of instructions in a slice (the paper's
	// maximum p-thread length; default configuration uses 32).
	MaxLen int

	heap    seqHeap        // pending producers, by Seq
	ordered []*trace.Entry // the slice so far, in pop (decreasing-Seq) order
	out     []Inst         // Backward's result buffer
	// marks records slice membership, indexed by Seq & mask. The table is a
	// power of two no smaller than the tracker's scope, so every Seq inside
	// the window has a slot of its own. A mark belongs to the slice being
	// built only if its gen is the current one and its seq matches.
	marks []slotMark
	mask  int64
	gen   uint32
}

// slotMark is one Seq's membership in the current slice: its tracker entry
// and its slice position once popped (NoDep while still pending).
type slotMark struct {
	ent *trace.Entry
	seq int64
	gen uint32
	pos int32
}

// seqHeap is an in-place binary max-heap of Seqs. The Seqs of one slice are
// unique, so popping the maximum yields exactly the decreasing-Seq order.
type seqHeap []int64

func (h *seqHeap) push(v int64) {
	a := append(*h, v)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] >= v {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = v
	*h = a
}

func (h *seqHeap) pop() int64 {
	a := *h
	top, n := a[0], len(a)-1
	last := a[n]
	a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && a[c+1] > a[c] {
				c++
			}
			if last >= a[c] {
				break
			}
			a[i] = a[c]
			i = c
		}
		a[i] = last
	}
	*h = a
	return top
}

// Backward builds the dynamic backward data-dependence slice of the given
// miss entry. The slice includes the load itself at position 0 and follows
// register producers and (for loads) store producers, bounded by the
// tracker's scope window and by MaxLen instructions. The returned slice is
// ordered by decreasing Seq (equivalently, increasing Dist). It is owned by
// the Slicer and valid only until the next call; Tree.Insert copies what it
// keeps.
//
// Slices follow dataflow only — control instructions never appear because
// they produce no register values the computation consumes (JAL link values
// are followed like any dataflow, but workload miss computations do not use
// them). This realizes the paper's control-less p-thread model.
func (s *Slicer) Backward(tr *trace.Tracker, miss *trace.Entry) []Inst {
	maxLen := s.MaxLen
	if maxLen <= 0 {
		maxLen = 32
	}
	s.begin(tr.Scope())
	// Collect the slice's dynamic instructions by walking producers
	// breadth-first in decreasing-Seq order. A max-heap keyed by Seq ensures
	// we always expand the latest unprocessed instruction first, so the
	// MaxLen cutoff keeps the instructions nearest the miss — the ones that
	// form the shortest candidate p-threads.
	s.heap = s.heap[:0]
	s.ordered = s.ordered[:0]
	s.mark(miss)
	for len(s.heap) > 0 && len(s.ordered) < maxLen {
		m := &s.marks[s.heap.pop()&s.mask]
		m.pos = int32(len(s.ordered))
		ent := m.ent
		s.ordered = append(s.ordered, ent)
		s.expand(tr, ent.SrcProd[0])
		s.expand(tr, ent.SrcProd[1])
		s.expand(tr, ent.MemProd)
	}
	s.out = s.out[:0]
	for _, ent := range s.ordered {
		s.out = append(s.out, Inst{
			PC:        ent.PC,
			Op:        ent.Inst,
			Dist:      miss.Seq - ent.Seq,
			DepPos:    [2]int{s.posOf(ent.SrcProd[0]), s.posOf(ent.SrcProd[1])},
			MemDepPos: s.posOf(ent.MemProd),
		})
	}
	return s.out
}

// begin starts a new slice: it sizes the marks for the tracker's scope and
// advances the generation, which invalidates every earlier mark at once.
// Only on generation wraparound are the marks cleared.
func (s *Slicer) begin(scope int) {
	size := 1
	for size < scope {
		size <<= 1
	}
	if len(s.marks) < size {
		s.marks = make([]slotMark, size)
	}
	s.mask = int64(size - 1)
	s.gen++
	if s.gen == 0 {
		clear(s.marks)
		s.gen = 1
	}
}

// mark adds ent to the current slice as pending.
func (s *Slicer) mark(ent *trace.Entry) {
	s.marks[ent.Seq&s.mask] = slotMark{ent: ent, seq: ent.Seq, gen: s.gen, pos: NoDep}
	s.heap.push(ent.Seq)
}

// expand queues a producer that is in scope and not yet in the slice. A
// mark matches only its own Seq, and only the miss and in-scope producers
// are marked, so a matching mark needs no scope check.
func (s *Slicer) expand(tr *trace.Tracker, prodSeq int64) {
	if prodSeq == trace.NoProducer {
		return
	}
	if m := &s.marks[prodSeq&s.mask]; m.gen == s.gen && m.seq == prodSeq {
		return
	}
	if prod, ok := tr.Get(prodSeq); ok {
		s.mark(prod)
	} // else outside the slicing scope: live-in
}

// posOf returns the slice position of seq, or NoDep if seq is no producer,
// lies outside the scope, or was queued but cut off by MaxLen.
func (s *Slicer) posOf(seq int64) int {
	if seq == trace.NoProducer {
		return NoDep
	}
	m := &s.marks[seq&s.mask]
	if m.gen != s.gen || m.seq != seq {
		return NoDep
	}
	return int(m.pos)
}
