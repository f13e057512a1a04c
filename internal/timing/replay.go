package timing

import (
	"context"
	"fmt"
	"math/bits"

	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/mem"
	"preexec/internal/pthread"
)

// This file is the replay half of trace replay: a re-timing engine that
// consumes a recorded Trace (trace.go) instead of stepping the functional
// oracle and querying the branch predictor. It mirrors sim.go stage for
// stage — retire/issue/rename/fetch in the same order, the same event-driven
// scheduler, the same idle fast-forward, the same memory system — so its
// Stats are bit-identical to RunContext's (pinned by replay_equiv_test.go
// across every workload, mode, and the synth zoo, the refsim discipline).
//
// Beyond skipping the oracle and the predictor, replay is specialized for
// being run many times per trace (once per sweep cell):
//
//   - Main-thread instructions live in a ring of slots indexed by their trace
//     record sequence. No allocation, no free list, and no reference counts:
//     every reference to a main-thread slot dies by the time it retires (the
//     waiter chain drains at issue, producer links resolve against issued or
//     retired producers, the ROB entry leaves at retire), and the ring spans
//     the maximum fetch-ahead, so a slot cannot be overwritten while
//     reachable. Only p-thread slots, whose lifetime is not program-ordered,
//     keep the arena-and-pins discipline.
//   - Producer links are not re-derived through a rename table: the trace
//     records each instruction's producer record index (trace.go), and the
//     strictly program-ordered retirement watermark distinguishes live
//     producers from retired ones — the same trick the store-forwarding walk
//     uses on the prevStore links.
//   - The ready "heap" is a winSeq-indexed bitmap ring (readyQ): window
//     sequence numbers are unique, so ascending-bit order is exactly the
//     uopHeap's pop order, at one bit set per wakeup and a short word scan
//     per issue instead of O(log n) sift chains.

// rslot is one in-flight instruction in the replay engine — the uop struct
// flattened into a slot. Producer references (prod) are either p-thread slot
// ids (>= 0, always in the arena region) or encoded main-thread record
// indices (mainRef, <= -2); none (-1) is empty. `pins` reference-counts
// p-thread slots exactly as uop.pins does; it is unused for ring slots.
type rslot struct {
	readyMin int64
	availC   int64
	compC    int64
	effAddr  int64

	prod       [3]int32
	seq        int32 // trace record index; -1 for p-thread slots
	winSeq     int32
	waiterHead int32
	nextWaiter int32
	pins       int32

	class   uint8
	latAdd  uint8
	issued  bool
	isPt    bool
	fwdHit  bool
	isStore bool
}

// none is the nil slot id / producer reference.
const none = int32(-1)

// wheelSize is the timing wheel's horizon in cycles (power of two). It
// comfortably covers ordinary completion latencies (memory plus queueing);
// the rare farther-out completion spills into a heap, which is correct at
// any horizon — the size only trades memory for spill frequency.
const wheelSize = 2048

// mainRef encodes a main-thread producer reference by trace record index;
// mainSeq decodes it. The encoding keeps record indices (which overlap slot
// ids numerically) distinct from p-thread slot ids in prod entries.
func mainRef(seq int32) int32 { return -2 - seq }
func mainSeq(ref int32) int32 { return -2 - ref }

// khent is a pending-heap entry: the inline readyMin key plus the slot id,
// keeping the sift loops free of slot-array indirections.
type khent struct {
	key int64
	id  int32
}

// keyHeap is a binary min-heap over inline keys. Its sift comparisons are
// the same as uopHeap's (strict < to prefer the later child, <= to stop), so
// equal-key entries pop in the same order as the simulator's heaps. (For the
// pending heap the equal-key order is additionally irrelevant: every entry
// with key <= cycle transfers to the ready queue before any issue, and the
// ready queue orders by unique winSeq.)
type keyHeap []khent

func (h *keyHeap) push(key int64, id int32) {
	a := append(*h, khent{key, id})
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].key <= a[i].key {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *keyHeap) pop() int32 {
	a := *h
	top := a[0].id
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].key < a[c].key {
			c++
		}
		if a[i].key <= a[c].key {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// readyQ holds the ready-to-issue instructions as a bitmap ring indexed by
// winSeq, popping in ascending winSeq order. winSeq values are unique, so
// this is exactly the order a min-heap keyed by winSeq produces. All live
// winSeqs stay within one ring window ([min, min+mask]); push grows the ring
// when a new value would widen the span past that (only reachable with the
// RS throttle ablated).
type readyQ struct {
	idOf  []int32
	bits  []uint64
	mask  int32
	min   int32 // lower bound on the smallest set winSeq; exact after a pop
	max   int32 // upper bound on the largest set winSeq
	count int32
}

func newReadyQ(capacity int) readyQ {
	c := int32(64)
	for int(c) < capacity {
		c <<= 1
	}
	return readyQ{idOf: make([]int32, c), bits: make([]uint64, c/64), mask: c - 1}
}

func (q *readyQ) push(ws, id int32) {
	if q.count == 0 {
		q.min, q.max = ws, ws
	} else {
		lo, hi := q.min, q.max
		if ws < lo {
			lo = ws
		}
		if ws > hi {
			hi = ws
		}
		for hi-lo > q.mask {
			q.grow()
		}
		q.min, q.max = lo, hi
	}
	q.count++
	i := ws & q.mask
	q.idOf[i] = id
	q.bits[i>>6] |= 1 << uint(i&63)
}

// grow doubles the ring, re-placing the set bits (all within the old
// [min, min+mask] window, so each maps to a distinct old index).
func (q *readyQ) grow() {
	c := (q.mask + 1) * 2
	n := readyQ{
		idOf:  make([]int32, c),
		bits:  make([]uint64, c/64),
		mask:  c - 1,
		min:   q.min,
		max:   q.max,
		count: q.count,
	}
	for ws := q.min; ws <= q.max; ws++ {
		i := ws & q.mask
		if q.bits[i>>6]&(1<<uint(i&63)) != 0 {
			j := ws & n.mask
			n.idOf[j] = q.idOf[i]
			n.bits[j>>6] |= 1 << uint(j&63)
		}
	}
	*q = n
}

// pop removes and returns the slot with the smallest winSeq. Caller
// guarantees count > 0. The scan walks absolute word positions upward from
// min; ring words are word-aligned images of absolute words, and the one
// ring word shared by the window's two ends keeps its low/high halves in
// disjoint bit ranges, so the absolute walk reads each live bit exactly once.
func (q *readyQ) pop() int32 {
	nw := int32(len(q.bits))
	ws := q.min
	aw := ws >> 6
	w := q.bits[aw&(nw-1)] >> uint(ws&63)
	for w == 0 {
		aw++
		ws = aw << 6
		w = q.bits[aw&(nw-1)]
	}
	ws += int32(bits.TrailingZeros64(w))
	i := ws & q.mask
	q.bits[i>>6] &^= 1 << uint(i&63)
	q.min = ws + 1
	q.count--
	return q.idOf[i]
}

// i32ring is uopRing over slot ids.
type i32ring struct {
	buf  []int32
	head int
	size int
}

func newI32Ring(capacity int) i32ring {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return i32ring{buf: make([]int32, c)}
}

func (r *i32ring) len() int     { return r.size }
func (r *i32ring) front() int32 { return r.buf[r.head] }

func (r *i32ring) push(id int32) {
	if r.size == len(r.buf) {
		grown := make([]int32, len(r.buf)*2)
		for i := 0; i < r.size; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = id
	r.size++
}

func (r *i32ring) pop() int32 {
	id := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return id
}

// rctx is ptContext over slot ids.
type rctx struct {
	pending []int32
	head    int
	burstAt int64
}

func (c *rctx) busy() bool { return c.head < len(c.pending) }

// ptBodyMeta caches per-body-instruction scheduling facts so launches index
// flat arrays instead of re-deriving class and latency per dynamic instance.
type ptBodyMeta struct {
	insts  []isa.Inst
	class  []uint8
	latAdd []uint8
}

// replaySim is one replay of a recorded trace. It is the Sim structure with
// the oracle, predictor, rename table, and store-chain map replaced by the
// trace.
type replaySim struct {
	cfg   Config
	trace *Trace
	mem   *memsys
	stats Stats

	cycle int64

	frontEndDepth   int64
	redirectPenalty int64
	agenLat         int64
	forwardLat      int64
	l2Lat           int64

	// Slot storage: slots[0:ringSz] is the main-thread ring (slot id ==
	// record sequence & slotMask); slots[ringSz:] is the p-thread arena,
	// recycled through freeL when a slot's pin count drops to zero. Callers
	// must not hold *rslot across an allocPt (the backing array may grow).
	slots    []rslot
	freeL    []int32
	ringSz   int32
	slotMask int64

	// Front end: pos is the next trace record to fetch; regs/memImg track
	// the architectural state at the fetch frontier (the simulator's oracle
	// state) for p-thread launches.
	fetchQ    i32ring
	blocker   int32
	fetchDone bool
	exhausted bool // fetch ran off a non-truncated trace: trace too short
	pos       int
	regs      [isa.NumRegs]int64
	memImg    *mem.Memory

	rsCount int
	winSeq  int32
	ready   readyQ

	// Pending instructions (scheduled, producers resolved, completion-gated)
	// wait in a timing wheel of intrusive per-cycle lists threaded through
	// rslot.nextWaiter (free to reuse: a slot waits on producers or on a
	// cycle, never both). Entries beyond the wheel horizon spill into a
	// keyHeap. Transfer order into the ready queue is irrelevant — issue
	// order is decided by unique winSeqs — so buckets need no internal order.
	wheel      []int32  // per-bucket list head (slot id), none = empty
	wheelBits  []uint64 // nonempty-bucket bitmap
	wheelMask  int64
	wheelCount int
	spillH     keyHeap

	busyCtxs int

	rob         i32ring
	storeQCount int

	// Pre-execution: trig[pc] is 1+index into trigList, 0 for none.
	trig     []int32
	trigList [][]*pthread.PThread
	ctxs     []rctx
	ptMeta   map[*pthread.PThread]ptBodyMeta

	launchRegs []int64
	bodyExec   cpu.BodyExec
}

// Replay scores the p-thread selection pts under cfg against the recorded
// trace t, without re-simulating fetch: the returned Stats are bit-identical
// to RunContext(ctx, t.Program(), pts, cfg). The trace must have been
// recorded under the same TraceVersion and extend past cfg's
// WarmInsts+MaxInsts by cfg's maximum fetch-ahead (RecordTrace under any
// configuration with the same TraceRecords guarantees both, whatever its
// memory latency, width or mode); a too-short trace returns an error, never
// silently wrong numbers.
func Replay(ctx context.Context, t *Trace, pts []*pthread.PThread, cfg Config) (Stats, error) {
	if t.version != TraceVersion {
		return Stats{}, fmt.Errorf("timing: trace version %q does not match simulator %q", t.version, TraceVersion)
	}
	cfg = cfg.withDefaults()
	total := runInsts(cfg)
	// A trace ending in HALT (or truncated by an oracle error) covers the
	// whole fetch stream; an extent-bounded trace must cover this run's
	// total plus its maximum fetch-ahead.
	complete := t.truncated ||
		(len(t.recs) > 0 && t.recs[len(t.recs)-1].flags&tfHalt != 0)
	if !complete && total+traceExtent(cfg) > int64(len(t.recs)) {
		return Stats{}, fmt.Errorf("timing: trace of %d records too short for a %d-instruction run", len(t.recs), total)
	}
	return newReplay(t, pts, cfg).run(ctx, total)
}

func newReplay(t *Trace, pts []*pthread.PThread, cfg Config) *replaySim {
	// The ring must span the maximum distance between the retirement
	// watermark and the fetch frontier: ROB occupancy plus the fetch queue's
	// high-water mark (under 3xWidth).
	sz := int32(8)
	for int(sz) < cfg.ROB+4*cfg.Width {
		sz <<= 1
	}
	r := &replaySim{
		cfg:             cfg,
		trace:           t,
		frontEndDepth:   int64(cfg.FrontEndDepth),
		redirectPenalty: int64(cfg.RedirectPenalty),
		agenLat:         int64(cfg.AgenLat),
		forwardLat:      int64(cfg.ForwardLat),
		l2Lat:           int64(cfg.L2Lat),
		slots:           make([]rslot, sz, int(sz)+cfg.RS+4*cfg.Width),
		ringSz:          sz,
		slotMask:        int64(sz - 1),
		fetchQ:          newI32Ring(3 * cfg.Width),
		rob:             newI32Ring(cfg.ROB),
		ready:           newReadyQ(cfg.ROB + cfg.RS),
		wheel:           make([]int32, wheelSize),
		wheelBits:       make([]uint64, wheelSize/64),
		wheelMask:       wheelSize - 1,
		blocker:         none,
		ctxs:            make([]rctx, cfg.PtContexts),
		memImg:          t.prog.Data.Clone(),
	}
	for i := range r.wheel {
		r.wheel[i] = none
	}
	r.mem = newMemsys(cfg, &r.stats)
	if cfg.Mode != ModeBase && len(pts) > 0 {
		r.trig = make([]int32, len(t.prog.Insts))
		r.ptMeta = make(map[*pthread.PThread]ptBodyMeta, len(pts))
		for _, pt := range pts {
			if pt.TriggerPC >= 0 && pt.TriggerPC < len(r.trig) {
				i := r.trig[pt.TriggerPC]
				if i == 0 {
					r.trigList = append(r.trigList, nil)
					i = int32(len(r.trigList))
					r.trig[pt.TriggerPC] = i
				}
				r.trigList[i-1] = append(r.trigList[i-1], pt)
			}
			insts := pt.Insts()
			meta := ptBodyMeta{
				insts:  insts,
				class:  make([]uint8, len(insts)),
				latAdd: make([]uint8, len(insts)),
			}
			for i, in := range insts {
				meta.class[i] = uint8(isa.ClassOf(in.Op))
				meta.latAdd[i] = uint8(isa.Latency(in.Op))
			}
			r.ptMeta[pt] = meta
		}
		r.launchRegs = make([]int64, isa.PtRegs)
	}
	return r
}

// allocPt hands out a recycled (or fresh) p-thread arena slot, reset with
// nil references and one pin (the caller's pending-list reference).
func (r *replaySim) allocPt() int32 {
	blank := rslot{prod: [3]int32{none, none, none}, seq: -1, waiterHead: none, nextWaiter: none, isPt: true, pins: 1}
	if n := len(r.freeL); n > 0 {
		id := r.freeL[n-1]
		r.freeL = r.freeL[:n-1]
		r.slots[id] = blank
		return id
	}
	r.slots = append(r.slots, blank)
	return int32(len(r.slots) - 1)
}

// unpin drops one reference from a p-thread slot; the last reference
// recycles it. Main-thread ring slots are not reference-counted.
func (r *replaySim) unpin(id int32) {
	if id < r.ringSz {
		return
	}
	if r.slots[id].pins--; r.slots[id].pins == 0 {
		r.freeL = append(r.freeL, id)
	}
}

// run executes the replay loop — the same cadence, warm snapshot, livelock
// guard, and idle fast-forward as Sim.RunContext.
func (r *replaySim) run(ctx context.Context, total int64) (Stats, error) {
	guard := livelockGuard(total)
	done := ctx.Done()
	var warm Stats
	var warmCycle int64
	var iter int64
	warmed := r.cfg.WarmInsts == 0
	for {
		if done != nil && iter&ctxCheckMask == 0 {
			select {
			case <-done:
				return r.stats, ctx.Err()
			default:
			}
		}
		iter++
		retired := r.retire()
		issued := r.issue()
		renamed := r.rename()
		fetched := r.fetch()
		r.cycle++
		if !warmed && r.stats.Retired >= r.cfg.WarmInsts {
			warm = r.stats
			warmCycle = r.cycle
			warmed = true
		}
		if r.stats.Retired >= total {
			break
		}
		if r.fetchDone && r.fetchQ.len() == 0 && r.rob.len() == 0 {
			break
		}
		if !retired && !issued && !renamed && !fetched {
			if next := r.nextEventCycle(); next > r.cycle {
				if next > guard+1 {
					next = guard + 1
				}
				if r.blocker != none && !r.fetchDone {
					r.stats.FetchStalls += next - r.cycle
				}
				r.cycle = next
			}
		}
		if r.cycle > guard {
			return r.stats, fmt.Errorf("timing: no forward progress after %d cycles (%s)", r.cycle, r.trace.prog.Name)
		}
	}
	if r.exhausted {
		return r.stats, fmt.Errorf("timing: trace of %d records exhausted mid-run (%s)", len(r.trace.recs), r.trace.prog.Name)
	}
	st := subStats(r.stats, warm)
	st.Cycles = r.cycle - warmCycle
	if st.Cycles > 0 {
		st.IPC = float64(st.Retired) / float64(st.Cycles)
	}
	if st.Launches > 0 {
		st.AvgPtLen = float64(st.PtInsts) / float64(st.Launches)
	}
	return st, nil
}

// pendWait parks a completion-gated slot until cycle t (> r.cycle): in the
// timing wheel within the horizon, in the spill heap beyond it.
func (r *replaySim) pendWait(id int32, t int64) {
	if t-r.cycle >= wheelSize {
		r.spillH.push(t, id)
		return
	}
	i := t & r.wheelMask
	r.slots[id].nextWaiter = r.wheel[i]
	r.wheel[i] = id
	r.wheelBits[i>>6] |= 1 << uint(i&63)
	r.wheelCount++
}

// nextPendingCycle returns the earliest cycle holding a parked slot (wheel
// or spill), or sentinel if none. The wheel scan starts at the current
// cycle: the loop advances the clock before consulting events, so a slot
// due exactly now (its bucket not yet drained — issue has not run for this
// cycle) must be reported, exactly as the pending heap's min was. Every
// parked time is in [cycle, cycle+wheelSize), so ring position encodes the
// absolute cycle uniquely.
func (r *replaySim) nextPendingCycle(sentinel int64) int64 {
	next := sentinel
	if len(r.spillH) > 0 {
		next = r.spillH[0].key
	}
	if r.wheelCount > 0 {
		from := r.cycle
		aw := from >> 6
		w := r.wheelBits[aw&(r.wheelMask>>6)] >> uint(from&63)
		for w == 0 {
			aw++
			from = aw << 6
			w = r.wheelBits[aw&(r.wheelMask>>6)]
		}
		pos := (from + int64(bits.TrailingZeros64(w))) & r.wheelMask
		t := r.cycle + ((pos - r.cycle) & r.wheelMask)
		if t < next {
			next = t
		}
	}
	return next
}

// nextEventCycle mirrors Sim.nextEventCycle over slot ids.
func (r *replaySim) nextEventCycle() int64 {
	next := unboundedGuard + 1
	if r.rob.len() > 0 {
		if h := &r.slots[r.rob.front()]; h.issued && h.compC < next {
			next = h.compC
		}
	}
	if t := r.nextPendingCycle(next); t < next {
		next = t
	}
	if r.busyCtxs > 0 {
		for i := range r.ctxs {
			if c := &r.ctxs[i]; c.busy() && c.burstAt >= r.cycle && c.burstAt < next {
				next = c.burstAt
			}
		}
	}
	if r.fetchQ.len() > 0 {
		if a := r.slots[r.fetchQ.front()].availC; a < next {
			next = a
		}
	}
	if b := r.blocker; b != none && r.slots[b].issued {
		if t := r.slots[b].compC + r.redirectPenalty; t < next {
			next = t
		}
	}
	return next
}

// fetch mirrors Sim.fetch, consuming trace records instead of oracle steps
// and applying each record's architectural effect to the replay's register
// file and memory image (keeping them at the fetch frontier, exactly the
// oracle state the simulator's launches read). Fetched instructions land in
// their ring slot directly: the slot's previous occupant retired at least a
// full ROB ago.
func (r *replaySim) fetch() bool {
	if r.fetchDone {
		return false
	}
	work := false
	if b := r.blocker; b != none {
		bs := &r.slots[b]
		if !bs.issued || r.cycle < bs.compC+r.redirectPenalty {
			r.stats.FetchStalls++
			return false
		}
		r.blocker = none
		work = true
	}
	if r.fetchQ.len() >= 2*r.cfg.Width {
		return work
	}
	recs := r.trace.recs
	for n := 0; n < r.cfg.Width; n++ {
		if r.pos >= len(recs) {
			// The simulator's fetch stops on an oracle error at exactly the
			// truncation point; a non-truncated trace ending here is too
			// short for this run — fail the replay rather than diverge.
			if !r.trace.truncated {
				r.exhausted = true
			}
			r.fetchDone = true
			return true
		}
		rec := &recs[r.pos]
		id := int32(int64(r.pos) & r.slotMask)
		r.slots[id] = rslot{
			effAddr:    rec.effAddr,
			availC:     r.cycle + r.frontEndDepth,
			prod:       [3]int32{none, none, none},
			seq:        int32(r.pos),
			waiterHead: none,
			nextWaiter: none,
			class:      rec.class,
			latAdd:     rec.latAdd,
		}
		if rec.flags&tfHasDest != 0 {
			r.regs[rec.rd] = rec.val
		} else if rec.flags&tfStore != 0 {
			r.slots[id].isStore = true
			r.memImg.Write(rec.effAddr, rec.val)
		}
		r.fetchQ.push(id)
		r.pos++
		work = true
		if rec.flags&tfBrLookup != 0 {
			r.stats.BrLookups++
		}
		if rec.flags&tfMispredict != 0 {
			r.stats.BrMispred++
			r.blocker = id
			return true
		}
		if rec.flags&tfHalt != 0 {
			r.fetchDone = true
			return true
		}
		if rec.flags&tfBreak != 0 {
			return true
		}
	}
	return work
}

// rename mirrors Sim.rename: p-thread burst injection under the RS
// throttle, then main-thread rename with producers taken from the trace's
// precomputed links and triggers launched.
func (r *replaySim) rename() bool {
	budget := r.cfg.Width
	work := false

	rsHeadroom := r.cfg.RS - 2*r.cfg.Width
	for i := 0; r.busyCtxs > 0 && i < len(r.ctxs); i++ {
		ctx := &r.ctxs[i]
		if !ctx.busy() || r.cycle < ctx.burstAt {
			continue
		}
		if !r.cfg.NoRSThrottle && r.cfg.Mode != ModeOverheadSequence && r.rsCount >= rsHeadroom {
			continue
		}
		n := r.cfg.PtBurst
		if pend := len(ctx.pending) - ctx.head; n > pend {
			n = pend
		}
		if r.cfg.Mode != ModeLatencyOnly {
			if n > budget {
				n = budget
			}
			budget -= n
		}
		if n == 0 {
			continue
		}
		for _, id := range ctx.pending[ctx.head : ctx.head+n] {
			r.stats.PtInsts++
			if r.cfg.Mode == ModeOverheadSequence {
				r.unpin(id)
				continue
			}
			u := &r.slots[id]
			u.availC = r.cycle
			u.pins++ // scheduler
			r.enterWindow(id)
			r.unpin(id) // pending slot released
		}
		ctx.head += n
		if ctx.head == len(ctx.pending) {
			ctx.pending = ctx.pending[:0]
			ctx.head = 0
			r.busyCtxs--
		}
		ctx.burstAt = r.cycle + int64(r.cfg.PtBurst)
		work = true
	}

	for budget > 0 && r.fetchQ.len() > 0 {
		id := r.fetchQ.front()
		u := &r.slots[id]
		if u.availC > r.cycle || r.rob.len() >= r.cfg.ROB || r.rsCount >= r.cfg.RS {
			return work
		}
		if u.isStore && r.storeQCount >= r.cfg.StoreQueue {
			return work
		}
		r.fetchQ.pop()
		budget--
		work = true
		rec := &r.trace.recs[u.seq]
		// The trace's producer links point at the most recent earlier writer
		// of each source; a link at or past the retirement watermark is the
		// producer the live rename table would have held, a retired link is
		// a dependency the table had already cleared.
		for i := 0; i < 2; i++ {
			if j := rec.prod[i]; j >= 0 && int64(j) >= r.stats.Retired {
				u.prod[i] = mainRef(j)
			}
		}
		if u.isStore {
			r.storeQCount++
		}
		r.rob.push(id)
		r.enterWindow(id)
		if r.trig != nil {
			if ti := r.trig[rec.pc]; ti != 0 {
				// launch allocates slots: u is invalid after this call.
				r.launch(r.trigList[ti-1], id)
			}
		}
	}
	return work
}

// enterWindow mirrors Sim.enterWindow.
func (r *replaySim) enterWindow(id int32) {
	r.slots[id].winSeq = r.winSeq
	r.winSeq++
	r.rsCount++
	r.schedule(id)
}

// schedule mirrors Sim.schedule over slot ids. Main-thread producer
// references resolve through the retirement watermark: a retired producer
// completed at or before the current cycle, so it constrains nothing.
func (r *replaySim) schedule(id int32) {
	u := &r.slots[id]
	for i, p := range u.prod {
		if p == none {
			continue
		}
		var ps *rslot
		if p < none {
			seq := mainSeq(p)
			if int64(seq) < r.stats.Retired {
				u.prod[i] = none
				continue
			}
			ps = &r.slots[int64(seq)&r.slotMask]
		} else {
			ps = &r.slots[p]
		}
		if !ps.issued {
			u.nextWaiter = ps.waiterHead
			ps.waiterHead = id
			return
		}
		if ps.compC > u.readyMin {
			u.readyMin = ps.compC
		}
		u.prod[i] = none
		if p >= 0 {
			r.unpin(p)
		}
	}
	if u.readyMin <= r.cycle {
		r.ready.push(u.winSeq, id)
	} else {
		r.pendWait(id, u.readyMin)
	}
}

// launch mirrors Sim.launch: body execution runs against the replay's own
// fetch-frontier register file and memory image, which are identical to the
// simulator's oracle state at the same rename event.
func (r *replaySim) launch(pts []*pthread.PThread, triggerID int32) {
	trigSeq := r.slots[triggerID].seq
	for _, pt := range pts {
		if !pt.ActiveAt(int64(trigSeq)) {
			continue
		}
		var ctx *rctx
		for i := range r.ctxs {
			if c := &r.ctxs[i]; !c.busy() {
				ctx = c
				break
			}
		}
		if ctx == nil {
			r.stats.Drops++
			continue
		}
		r.stats.Launches++
		ctx.pending = ctx.pending[:0]
		ctx.head = 0
		if r.cfg.Mode == ModeOverheadSequence {
			for range pt.Body {
				ctx.pending = append(ctx.pending, r.allocPt())
			}
			if len(ctx.pending) > 0 {
				r.busyCtxs++
			}
			ctx.burstAt = r.cycle + 1
			continue
		}
		regs := r.launchRegs
		copy(regs[:isa.NumRegs], r.regs[:])
		clear(regs[isa.NumRegs:])
		meta := r.ptMeta[pt]
		res := r.bodyExec.Exec(meta.insts, regs, r.memImg)
		for i, bi := range pt.Body {
			id := r.allocPt()
			u := &r.slots[id]
			u.class = meta.class[i]
			u.latAdd = meta.latAdd[i]
			u.effAddr = res.EffAddrs[i]
			u.readyMin = r.cycle
			for k := 0; k < 2; k++ {
				switch d := bi.Dep[k]; {
				case d >= 0 && d < i:
					p := ctx.pending[d]
					u.prod[k] = p
					r.slots[p].pins++
				case d == pthread.DepTrigger:
					u.prod[k] = mainRef(trigSeq)
				}
			}
			if d := bi.MemDep; d >= 0 && d < i {
				p := ctx.pending[d]
				u.prod[2] = p
				r.slots[p].pins++
			}
			u.fwdHit = res.FromStoreBuf[i]
			ctx.pending = append(ctx.pending, id)
		}
		if len(ctx.pending) > 0 {
			r.busyCtxs++
		}
		ctx.burstAt = r.cycle + 1
	}
}

// issue mirrors Sim.issue: transfer every pending slot whose cycle arrived
// (this cycle's wheel bucket, plus any due spill entries), then pop ready
// slots in winSeq order up to the issue width.
func (r *replaySim) issue() bool {
	if r.wheelCount > 0 {
		if i := r.cycle & r.wheelMask; r.wheelBits[i>>6]&(1<<uint(i&63)) != 0 {
			for id := r.wheel[i]; id != none; {
				next := r.slots[id].nextWaiter
				r.slots[id].nextWaiter = none
				r.ready.push(r.slots[id].winSeq, id)
				r.wheelCount--
				id = next
			}
			r.wheel[i] = none
			r.wheelBits[i>>6] &^= 1 << uint(i&63)
		}
	}
	for len(r.spillH) > 0 && r.spillH[0].key <= r.cycle {
		id := r.spillH.pop()
		r.ready.push(r.slots[id].winSeq, id)
	}
	issued := 0
	for issued < r.cfg.Width && r.ready.count > 0 {
		id := r.ready.pop()
		issued++
		u := &r.slots[id]
		u.issued = true
		u.compC = r.complete(id)
		u = &r.slots[id] // complete does not alloc, but re-take for clarity
		r.rsCount--
		for w := u.waiterHead; w != none; {
			next := r.slots[w].nextWaiter
			r.slots[w].nextWaiter = none
			r.schedule(w)
			w = next
		}
		u.waiterHead = none
		r.unpin(id) // scheduler reference released (p-thread slots)
	}
	return issued > 0
}

// complete mirrors Sim.complete, with the instruction class and non-memory
// latency read from the slot instead of re-derived from the opcode.
func (r *replaySim) complete(id int32) int64 {
	u := &r.slots[id]
	now := r.cycle
	switch isa.Class(u.class) {
	case isa.ClassLoad:
		t := now + r.agenLat
		if u.isPt {
			if u.fwdHit {
				return t + r.forwardLat
			}
			if r.cfg.Mode == ModeOverheadExecute {
				return t + r.l2Lat
			}
			return r.mem.ptLoad(u.effAddr, t)
		}
		r.stats.Loads++
		if r.forwardFrom(u) {
			u.fwdHit = true
			return t + r.forwardLat
		}
		return r.mem.mainLoad(u.effAddr, t)
	case isa.ClassStore:
		return now + r.agenLat
	case isa.ClassMul:
		return now + int64(u.latAdd)
	default:
		return now + 1
	}
}

// forwardFrom mirrors Sim.forwardFrom against the trace's precomputed
// backward same-word store links: it reports whether any in-flight older
// store to the load's word has issued. The simulator's per-word chain holds
// exactly the renamed-but-unretired stores; here "in flight" is the record
// index being at or past the retirement watermark (retirement is strictly
// program-ordered), and prevStore links are strictly decreasing, so the walk
// stops at the first retired store. Renamed-but-unissued stores are in both
// structures and in neither case forward.
func (r *replaySim) forwardFrom(u *rslot) bool {
	recs := r.trace.recs
	for j := recs[u.seq].prevStore; j >= 0 && int64(j) >= r.stats.Retired; j = recs[j].prevStore {
		if r.slots[int64(j)&r.slotMask].issued {
			return true
		}
	}
	return false
}

// retire mirrors Sim.retire. The per-word store chains need no maintenance
// here (the trace's links are static; forwardFrom's watermark excludes
// retired stores), so retiring a store just updates the memory system and
// releases its store-queue slot.
func (r *replaySim) retire() bool {
	n := 0
	for n < r.cfg.Width && r.rob.len() > 0 {
		id := r.rob.front()
		u := &r.slots[id]
		if !u.issued || u.compC > r.cycle {
			break
		}
		r.rob.pop()
		if u.isStore {
			r.mem.mainStore(u.effAddr, r.cycle)
			r.storeQCount--
		}
		r.stats.Retired++
		n++
	}
	return n > 0
}
