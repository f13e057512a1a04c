package timing

import (
	"context"
	"fmt"

	"preexec/internal/branch"
	"preexec/internal/cpu"
	"preexec/internal/isa"
	"preexec/internal/program"
	"preexec/internal/pthread"
)

// The simulator hot path is built around three ideas, all of which preserve
// bit-for-bit identical Stats (asserted against the frozen reference core in
// refsim_test.go):
//
//  1. Zero steady-state allocation: uops live in a chunked arena and are
//     recycled through a free list as soon as their reference count drops to
//     zero; the front-end queue, ROB, and store queue are ring buffers; and
//     p-thread launches reuse per-Sim scratch (register file, functional
//     body executor, body instruction cache) instead of allocating per
//     launch.
//  2. Incremental accounting: the O(window)-per-cycle issue scan is replaced
//     by an event-driven wakeup scheduler — a uop waiting on an unissued
//     producer parks on that producer's waiter list; once all producers have
//     issued, their completion times fold into the uop's ready time and it
//     sits in a time-ordered heap until it matures into the age-ordered
//     ready heap — so each uop is touched O(log window) times total instead
//     of once per cycle. Reservation-station occupancy is a counter, and
//     store-to-load forwarding consults a per-word chain of in-flight stores
//     instead of scanning the whole store queue per load.
//  3. Idle-cycle fast-forward: when a cycle performs no work, the next cycle
//     at which any pipeline stage could act is computed from the in-flight
//     timestamps and the clock jumps there directly — the common case in the
//     miss-dominated regime the paper evaluates, where the whole machine
//     sits behind a ~100-cycle memory access. All state is timestamp-based,
//     so skipped cycles are observationally identical to ticked ones (the
//     one per-cycle statistic, FetchStalls, is accounted for explicitly).

// uop is one in-flight instruction (main-thread or p-thread). uops are
// arena-allocated and recycled; `pins` counts the live references (queue
// membership, rename-table entry, consumer producer-slots, fetch blocker)
// and the uop returns to the free list when it reaches zero.
type uop struct {
	seq     int64 // main-thread dynamic index; -1 for p-thread uops
	pc      int
	inst    isa.Inst
	effAddr int64

	prod     [3]*uop // register (0,1) and memory/extra (2) producers
	readyMin int64   // earliest issue cycle; producer completions fold in

	availC int64 // cycle the front end delivers it to rename
	issued bool
	compC  int64

	isPt   bool
	fwdHit bool // load satisfied by store-queue / p-thread store buffer

	pins       int32
	winSeq     int64 // window-entry order (issue priority: oldest first)
	nextStore  *uop  // next in-flight store to the same word (forwarding chain)
	waiterHead *uop  // unissued consumers parked on this producer
	nextWaiter *uop  // link in the producer's waiter list
}

func (u *uop) isStore() bool { return u.inst.Op == isa.ST }

// uopChunk is the arena allocation granularity. In-flight uops are bounded
// by the backend resources (ROB + RS + store queue + p-thread bodies), so a
// run touches only a handful of chunks regardless of instruction count.
const uopChunk = 256

// uopArena hands out recycled uops from a free list, allocating a fresh
// chunk only when the list runs dry.
type uopArena struct {
	free []*uop
}

func (a *uopArena) get() *uop {
	n := len(a.free)
	if n == 0 {
		chunk := make([]uop, uopChunk)
		if cap(a.free) < uopChunk {
			a.free = make([]*uop, 0, uopChunk)
		}
		for i := uopChunk - 1; i >= 1; i-- {
			a.free = append(a.free, &chunk[i])
		}
		return &chunk[0]
	}
	u := a.free[n-1]
	a.free = a.free[:n-1]
	*u = uop{}
	return u
}

// unpin drops one reference; the last reference returns the uop to the arena.
func (s *Sim) unpin(u *uop) {
	if u.pins--; u.pins == 0 {
		s.arena.free = append(s.arena.free, u)
	}
}

// uopRing is a power-of-two circular queue of uops (FIFO). It replaces the
// reslice-and-append pattern whose backing arrays churned an allocation
// every few hundred queue operations.
type uopRing struct {
	buf  []*uop
	head int
	size int
}

func newUopRing(capacity int) uopRing {
	c := 8
	for c < capacity {
		c <<= 1
	}
	return uopRing{buf: make([]*uop, c)}
}

func (r *uopRing) len() int    { return r.size }
func (r *uopRing) front() *uop { return r.buf[r.head] }

func (r *uopRing) push(u *uop) {
	if r.size == len(r.buf) {
		grown := make([]*uop, len(r.buf)*2)
		for i := 0; i < r.size; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = u
	r.size++
}

func (r *uopRing) pop() *uop {
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return u
}

// uopHeap is a binary min-heap of uops. The ready heap keys on winSeq
// (oldest-first issue priority); the pending heap keys on readyMin (next
// maturation). The sift routines are duplicated per key to keep the hot
// path free of indirect calls.
type uopHeap []*uop

func (h *uopHeap) pushReady(u *uop) {
	a := append(*h, u)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].winSeq <= a[i].winSeq {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *uopHeap) popReady() *uop {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].winSeq < a[c].winSeq {
			c++
		}
		if a[i].winSeq <= a[c].winSeq {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

func (h *uopHeap) pushPending(u *uop) {
	a := append(*h, u)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].readyMin <= a[i].readyMin {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*h = a
}

func (h *uopHeap) popPending() *uop {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].readyMin < a[c].readyMin {
			c++
		}
		if a[i].readyMin <= a[c].readyMin {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// storeChain is the per-word list of in-flight stores (program order). The
// head is always the oldest, so retirement pops in O(1) and forwarding scans
// only the handful of stores to the load's own word.
type storeChain struct{ head, tail *uop }

// ptContext is one of the additional SMT contexts p-threads run in. The
// pending slice's backing array is reused across launches; head marks the
// injection point so draining never reslices the backing away.
type ptContext struct {
	pending []*uop // body uops, pending[head:] not yet injected
	head    int
	burstAt int64 // next injection cycle
}

func (c *ptContext) busy() bool { return c.head < len(c.pending) }

// Sim is a single timing simulation.
type Sim struct {
	cfg    Config
	prog   *program.Program
	oracle *cpu.State
	pred   *branch.Predictor
	mem    *memsys
	stats  Stats

	cycle int64

	// Precomputed int64 copies of per-cycle config latencies.
	frontEndDepth   int64
	redirectPenalty int64
	agenLat         int64
	forwardLat      int64
	l2Lat           int64

	arena uopArena

	// Front end.
	fetchQ       uopRing
	fetchBlocker *uop // mispredicted branch stalling fetch
	fetchDone    bool

	// Rename state.
	regProd [isa.NumRegs]*uop

	// Backend. The "window" of renamed-but-unissued uops is maintained as an
	// event-driven scheduler instead of a scan list: rsCount tracks its
	// size, readyH holds issuable uops ordered oldest-first (winSeq), and
	// pendingH holds fully folded uops ordered by the cycle they mature;
	// uops still waiting on an unissued producer are parked on that
	// producer's waiter list and are re-scheduled when it issues.
	rsCount  int
	winSeq   int64
	readyH   uopHeap // ready to issue, keyed by winSeq
	pendingH uopHeap // folded, keyed by readyMin

	rob         uopRing // main-thread program order, renamed, not yet retired
	storeQ      uopRing // renamed, unretired stores (for forwarding)
	storeByWord map[int64]storeChain

	// Pre-execution.
	triggers map[int][]*pthread.PThread
	ctxs     []ptContext
	ptBodies map[*pthread.PThread][]isa.Inst // pt.Insts() cached per static p-thread

	// Launch scratch, reused across launches.
	launchRegs []int64
	bodyExec   cpu.BodyExec
}

// New prepares a simulation of prog with the given static p-threads (ignored
// in ModeBase).
func New(prog *program.Program, pts []*pthread.PThread, cfg Config) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg:             cfg,
		prog:            prog,
		oracle:          cpu.New(prog),
		pred:            branch.New(branch.DefaultConfig()),
		triggers:        make(map[int][]*pthread.PThread),
		ctxs:            make([]ptContext, cfg.PtContexts),
		frontEndDepth:   int64(cfg.FrontEndDepth),
		redirectPenalty: int64(cfg.RedirectPenalty),
		agenLat:         int64(cfg.AgenLat),
		forwardLat:      int64(cfg.ForwardLat),
		l2Lat:           int64(cfg.L2Lat),
		fetchQ:          newUopRing(3 * cfg.Width),
		rob:             newUopRing(cfg.ROB),
		storeQ:          newUopRing(cfg.StoreQueue),
		readyH:          make(uopHeap, 0, 2*cfg.Width),
		pendingH:        make(uopHeap, 0, cfg.RS+2*cfg.PtBurst),
		storeByWord:     make(map[int64]storeChain, cfg.StoreQueue),
	}
	s.mem = newMemsys(cfg, &s.stats)
	if cfg.Mode != ModeBase && len(pts) > 0 {
		s.ptBodies = make(map[*pthread.PThread][]isa.Inst, len(pts))
		for _, pt := range pts {
			s.triggers[pt.TriggerPC] = append(s.triggers[pt.TriggerPC], pt)
			s.ptBodies[pt] = pt.Insts()
		}
		s.launchRegs = make([]int64, isa.PtRegs)
	}
	return s
}

// Run simulates to completion and returns the statistics.
func Run(prog *program.Program, pts []*pthread.PThread, cfg Config) (Stats, error) {
	return New(prog, pts, cfg).Run()
}

// RunContext simulates to completion, honouring ctx: a cancelled or expired
// context stops the simulation within a few thousand iterations and returns
// ctx.Err().
func RunContext(ctx context.Context, prog *program.Program, pts []*pthread.PThread, cfg Config) (Stats, error) {
	return New(prog, pts, cfg).RunContext(ctx)
}

// Run executes the simulation loop.
func (s *Sim) Run() (Stats, error) {
	return s.RunContext(context.Background())
}

// ctxCheckMask gates how often the simulation loop polls ctx.Done(): every
// 4096 loop iterations, cheap enough to be invisible in the hot loop yet
// prompt enough (microseconds of host time) for interactive cancellation.
// (Iterations, not cycles: the idle fast-forward makes cycle values sparse.)
const ctxCheckMask = 1<<12 - 1

// unboundedGuard caps the livelock guard. It is astronomically larger than
// any reachable cycle count but far enough from the int64 edge that
// guard-relative arithmetic cannot overflow.
const unboundedGuard = int64(1) << 61

// livelockGuard returns the no-forward-progress backstop for a run of total
// instructions. The naive total*64+1e6 overflows when MaxInsts is the
// unbounded 1<<62 default — wrapping to a small value that falsely tripped
// the guard on unbounded runs longer than ~1M cycles — so it saturates.
func livelockGuard(total int64) int64 {
	if total >= (unboundedGuard-1_000_000)/64 {
		return unboundedGuard
	}
	return total*64 + 1_000_000
}

// RunContext executes the simulation loop under a context.
func (s *Sim) RunContext(ctx context.Context) (Stats, error) {
	total := runInsts(s.cfg)
	guard := livelockGuard(total) // deadlock/livelock backstop
	done := ctx.Done()
	var warm Stats
	var warmCycle int64
	var iter int64
	warmed := s.cfg.WarmInsts == 0
	for {
		if done != nil && iter&ctxCheckMask == 0 {
			select {
			case <-done:
				return s.stats, ctx.Err()
			default:
			}
		}
		iter++
		retired := s.retire()
		issued := s.issue()
		renamed := s.rename()
		fetched := s.fetch()
		s.cycle++
		if !warmed && s.stats.Retired >= s.cfg.WarmInsts {
			warm = s.stats
			warmCycle = s.cycle
			warmed = true
		}
		if s.stats.Retired >= total {
			break
		}
		if s.fetchDone && s.fetchQ.len() == 0 && s.rob.len() == 0 {
			break
		}
		if !retired && !issued && !renamed && !fetched {
			// Idle cycle: nothing can happen until the earliest in-flight
			// timestamp matures, so jump the clock there. A stalled front
			// end would have counted one FetchStalls per skipped cycle.
			if next := s.nextEventCycle(); next > s.cycle {
				if next > guard+1 {
					next = guard + 1
				}
				if s.fetchBlocker != nil && !s.fetchDone {
					s.stats.FetchStalls += next - s.cycle
				}
				s.cycle = next
			}
		}
		if s.cycle > guard {
			return s.stats, fmt.Errorf("timing: no forward progress after %d cycles (%s)", s.cycle, s.prog.Name)
		}
	}
	st := subStats(s.stats, warm)
	st.Cycles = s.cycle - warmCycle
	if st.Cycles > 0 {
		st.IPC = float64(st.Retired) / float64(st.Cycles)
	}
	if st.Launches > 0 {
		st.AvgPtLen = float64(st.PtInsts) / float64(st.Launches)
	}
	return st, nil
}

// nextEventCycle returns the earliest future cycle at which any pipeline
// stage could make progress, given that the cycle just simulated made none.
// Every stage's enabling condition is a monotone comparison of the clock
// against an in-flight timestamp (completion, delivery, burst, redirect), so
// the minimum of those timestamps bounds the next state change from below;
// extra candidates only shorten the jump, never skip work.
func (s *Sim) nextEventCycle() int64 {
	next := unboundedGuard + 1
	// Retire: the ROB head completes.
	if s.rob.len() > 0 {
		if h := s.rob.front(); h.issued && h.compC < next {
			next = h.compC
		}
	}
	// Issue: the earliest pending uop matures. (Uops parked on an unissued
	// producer wake on that producer's issue — itself a covered event — and
	// a non-empty ready heap would have made this a work cycle.)
	if len(s.pendingH) > 0 {
		if r := s.pendingH[0].readyMin; r < next {
			next = r
		}
	}
	// Rename: a p-thread burst comes due (bursts blocked on the RS throttle
	// instead wait on an issue event), or the front-end head is delivered.
	for i := range s.ctxs {
		if c := &s.ctxs[i]; c.busy() && c.burstAt >= s.cycle && c.burstAt < next {
			next = c.burstAt
		}
	}
	if s.fetchQ.len() > 0 {
		if h := s.fetchQ.front(); h.availC < next {
			next = h.availC
		}
	}
	// Fetch: a resolved mispredicted branch finishes its redirect penalty.
	if b := s.fetchBlocker; b != nil && b.issued {
		if r := b.compC + s.redirectPenalty; r < next {
			next = r
		}
	}
	return next
}

// subStats returns the measured-region statistics: totals minus the warm-up
// snapshot.
func subStats(total, warm Stats) Stats {
	return Stats{
		Retired:           total.Retired - warm.Retired,
		Launches:          total.Launches - warm.Launches,
		Drops:             total.Drops - warm.Drops,
		PtInsts:           total.PtInsts - warm.PtInsts,
		Loads:             total.Loads - warm.Loads,
		L2Misses:          total.L2Misses - warm.L2Misses,
		MissesCovered:     total.MissesCovered - warm.MissesCovered,
		MissesFullCovered: total.MissesFullCovered - warm.MissesFullCovered,
		BrLookups:         total.BrLookups - warm.BrLookups,
		BrMispred:         total.BrMispred - warm.BrMispred,
		FetchStalls:       total.FetchStalls - warm.FetchStalls,
	}
}

// fetch advances the functional oracle up to Width instructions, consulting
// the branch predictor; a misprediction blocks fetch until the branch
// resolves plus the redirect penalty. It reports whether any state changed
// (FetchStalls accounting aside).
func (s *Sim) fetch() bool {
	if s.fetchDone {
		return false
	}
	work := false
	if b := s.fetchBlocker; b != nil {
		if !b.issued || s.cycle < b.compC+s.redirectPenalty {
			s.stats.FetchStalls++
			return false
		}
		s.fetchBlocker = nil
		s.unpin(b)
		work = true
	}
	if s.fetchQ.len() >= 2*s.cfg.Width {
		return work // front-end buffer full
	}
	for n := 0; n < s.cfg.Width; n++ {
		if s.oracle.Halted {
			s.fetchDone = true
			return true
		}
		e, err := s.oracle.Step()
		if err != nil {
			s.fetchDone = true
			return true
		}
		u := s.arena.get()
		u.seq, u.pc, u.inst, u.effAddr = e.Seq, e.PC, e.Inst, e.EffAddr
		u.availC = s.cycle + s.frontEndDepth
		u.pins = 1 // fetch queue
		s.fetchQ.push(u)
		work = true
		switch isa.ClassOf(e.Inst.Op) {
		case isa.ClassBranch:
			s.stats.BrLookups++
			_, correct := s.pred.PredictAndTrain(e.PC, e.Taken)
			if !correct {
				s.stats.BrMispred++
				u.pins++ // fetch blocker
				s.fetchBlocker = u
				return true
			}
			if e.Taken {
				return true // fetch break on taken branch
			}
		case isa.ClassJump:
			if e.Inst.Op == isa.JR {
				// Indirect: needs the BTB for its target.
				if s.pred.BTBLookup(e.PC) != e.NextPC {
					s.stats.BrMispred++
					u.pins++ // fetch blocker
					s.fetchBlocker = u
					s.pred.BTBInsert(e.PC, e.NextPC)
					return true
				}
			}
			return true // fetch break on taken control
		case isa.ClassHalt:
			s.fetchDone = true
			return true
		}
	}
	return work
}

// rename moves instructions from the front end into the backend, injects
// p-thread bursts (stealing sequencing slots), and launches p-threads when
// triggers rename. It reports whether anything was injected or renamed.
func (s *Sim) rename() bool {
	budget := s.cfg.Width
	work := false

	// P-thread injection first: bursts preempt main-thread slots. Injection
	// is throttled when the shared reservation stations back up, leaving
	// headroom for the main thread (ICOUNT-style SMT fairness): without
	// this, long p-thread bodies full of cache misses would park in the RS
	// and starve the main thread outright. rsCount tracks exactly the
	// renamed-but-unissued uops, i.e. the RS occupancy.
	rsHeadroom := s.cfg.RS - 2*s.cfg.Width
	for i := range s.ctxs {
		ctx := &s.ctxs[i]
		if !ctx.busy() || s.cycle < ctx.burstAt {
			continue
		}
		if !s.cfg.NoRSThrottle && s.cfg.Mode != ModeOverheadSequence && s.rsCount >= rsHeadroom {
			continue // retry next cycle
		}
		n := s.cfg.PtBurst
		if pend := len(ctx.pending) - ctx.head; n > pend {
			n = pend
		}
		if s.cfg.Mode != ModeLatencyOnly {
			if n > budget {
				n = budget
			}
			budget -= n
		}
		if n == 0 {
			continue
		}
		for _, u := range ctx.pending[ctx.head : ctx.head+n] {
			s.stats.PtInsts++
			if s.cfg.Mode == ModeOverheadSequence {
				s.unpin(u) // sequenced and immediately discarded
				continue
			}
			u.availC = s.cycle
			u.pins++ // scheduler
			s.enterWindow(u)
			s.unpin(u) // pending slot released
		}
		ctx.head += n
		if ctx.head == len(ctx.pending) {
			ctx.pending = ctx.pending[:0]
			ctx.head = 0
		}
		ctx.burstAt = s.cycle + int64(s.cfg.PtBurst)
		work = true
	}

	// Main thread.
	for budget > 0 && s.fetchQ.len() > 0 {
		u := s.fetchQ.front()
		if u.availC > s.cycle || s.rob.len() >= s.cfg.ROB || s.rsCount >= s.cfg.RS {
			return work
		}
		if u.isStore() && s.storeQ.len() >= s.cfg.StoreQueue {
			return work
		}
		s.fetchQ.pop()
		budget--
		work = true
		// Resolve producers from the rename table. (Retired producers are
		// cleared from the table at retirement, so a non-nil entry is live.)
		srcs, ns := u.inst.Sources()
		for i := 0; i < ns; i++ {
			if srcs[i] != isa.Zero {
				if p := s.regProd[srcs[i]]; p != nil {
					u.prod[i] = p
					p.pins++
				}
			}
		}
		if u.inst.HasDest() {
			if old := s.regProd[u.inst.Rd]; old != nil {
				s.unpin(old)
			}
			s.regProd[u.inst.Rd] = u
			u.pins++
		}
		if u.isStore() {
			u.pins++ // store queue
			s.storeQ.push(u)
			w := u.effAddr &^ 7
			c := s.storeByWord[w]
			if c.head == nil {
				c.head = u
			} else {
				c.tail.nextStore = u
			}
			c.tail = u
			s.storeByWord[w] = c
		}
		u.pins += 2 // ROB + scheduler
		s.rob.push(u)
		s.enterWindow(u)
		if pts := s.triggers[u.pc]; pts != nil {
			s.launch(pts, u)
		}
		s.unpin(u) // fetch-queue slot released
	}
	return work
}

// enterWindow admits a renamed uop to the issue scheduler: it takes the next
// age stamp, counts against the reservation stations, and is folded/parked
// by schedule. The caller has already pinned the scheduler reference.
func (s *Sim) enterWindow(u *uop) {
	u.winSeq = s.winSeq
	s.winSeq++
	s.rsCount++
	s.schedule(u)
}

// schedule folds the completion times of already-issued producers into u's
// ready time, releasing each folded producer reference, and then places u:
// parked on the first still-unissued producer's waiter list (to be
// re-scheduled when it issues), ready for issue, or pending until its ready
// cycle matures.
func (s *Sim) schedule(u *uop) {
	for i, p := range u.prod {
		if p == nil {
			continue
		}
		if !p.issued {
			u.nextWaiter = p.waiterHead
			p.waiterHead = u
			return
		}
		if p.compC > u.readyMin {
			u.readyMin = p.compC
		}
		u.prod[i] = nil
		s.unpin(p)
	}
	if u.readyMin <= s.cycle {
		s.readyH.pushReady(u)
	} else {
		s.pendingH.pushPending(u)
	}
}

// launch starts dynamic instances of the static p-threads triggered by u.
func (s *Sim) launch(pts []*pthread.PThread, trigger *uop) {
	for _, pt := range pts {
		if !pt.ActiveAt(trigger.seq) {
			continue
		}
		var ctx *ptContext
		for i := range s.ctxs {
			if c := &s.ctxs[i]; !c.busy() {
				ctx = c
				break
			}
		}
		if ctx == nil {
			s.stats.Drops++
			continue
		}
		s.stats.Launches++
		ctx.pending = ctx.pending[:0]
		ctx.head = 0
		if s.cfg.Mode == ModeOverheadSequence {
			// Bodies are discarded at injection; only sizes matter.
			for range pt.Body {
				pu := s.arena.get()
				pu.seq, pu.isPt, pu.pins = -1, true, 1
				ctx.pending = append(ctx.pending, pu)
			}
			ctx.burstAt = s.cycle + 1
			continue
		}
		// Execute the body functionally against the current architectural
		// state to learn its effective addresses.
		regs := s.launchRegs
		copy(regs[:isa.NumRegs], s.oracle.Regs[:])
		clear(regs[isa.NumRegs:])
		res := s.bodyExec.Exec(s.ptBodies[pt], regs, s.oracle.Mem)
		for i, bi := range pt.Body {
			pu := s.arena.get()
			pu.seq, pu.isPt = -1, true
			pu.inst = bi.Inst
			pu.effAddr = res.EffAddrs[i]
			pu.readyMin = s.cycle
			pu.pins = 1 // pending slot
			for k := 0; k < 2; k++ {
				switch d := bi.Dep[k]; {
				case d >= 0 && d < i:
					p := ctx.pending[d]
					pu.prod[k] = p
					p.pins++
				case d == pthread.DepTrigger:
					pu.prod[k] = trigger
					trigger.pins++
				}
			}
			if d := bi.MemDep; d >= 0 && d < i {
				p := ctx.pending[d]
				pu.prod[2] = p
				p.pins++
			}
			pu.fwdHit = res.FromStoreBuf[i]
			ctx.pending = append(ctx.pending, pu)
		}
		ctx.burstAt = s.cycle + 1
	}
}

// issue selects up to Width ready instructions (oldest first) and computes
// their completion times, including memory access. Matured pending uops
// move to the ready heap first; issuing a uop wakes the consumers parked on
// it. It reports whether anything issued.
func (s *Sim) issue() bool {
	for len(s.pendingH) > 0 && s.pendingH[0].readyMin <= s.cycle {
		s.readyH.pushReady(s.pendingH.popPending())
	}
	issued := 0
	for issued < s.cfg.Width && len(s.readyH) > 0 {
		u := s.readyH.popReady()
		issued++
		u.issued = true
		u.compC = s.complete(u)
		s.rsCount--
		for w := u.waiterHead; w != nil; {
			next := w.nextWaiter
			w.nextWaiter = nil
			s.schedule(w) // folds u's completion; parks or enqueues w
			w = next
		}
		u.waiterHead = nil
		s.unpin(u) // scheduler reference released
	}
	return issued > 0
}

// complete computes u's completion cycle given that it issues now.
func (s *Sim) complete(u *uop) int64 {
	now := s.cycle
	switch isa.ClassOf(u.inst.Op) {
	case isa.ClassLoad:
		t := now + s.agenLat
		if u.isPt {
			if u.fwdHit {
				return t + s.forwardLat
			}
			if s.cfg.Mode == ModeOverheadExecute {
				// Execute but do not access the data cache (§4.3).
				return t + s.l2Lat
			}
			return s.mem.ptLoad(u.effAddr, t)
		}
		s.stats.Loads++
		if s.forwardFrom(u) {
			u.fwdHit = true
			return t + s.forwardLat
		}
		return s.mem.mainLoad(u.effAddr, t)
	case isa.ClassStore:
		return now + s.agenLat
	case isa.ClassMul:
		return now + int64(isa.Latency(u.inst.Op))
	default:
		return now + 1
	}
}

// forwardFrom reports whether an older in-flight store to the same word can
// forward to the load. The per-word chain is in program order, so the scan
// stops at the first store younger than the load.
func (s *Sim) forwardFrom(ld *uop) bool {
	for st := s.storeByWord[ld.effAddr&^7].head; st != nil && st.seq < ld.seq; st = st.nextStore {
		if st.issued {
			return true
		}
	}
	return false
}

// retire commits up to Width completed instructions in program order;
// retiring stores update the memory system. It reports whether anything
// retired.
func (s *Sim) retire() bool {
	n := 0
	for n < s.cfg.Width && s.rob.len() > 0 {
		u := s.rob.front()
		if !u.issued || u.compC > s.cycle {
			break
		}
		s.rob.pop()
		if u.isStore() {
			s.mem.mainStore(u.effAddr, s.cycle)
			// The retiring store is the oldest in flight, hence both the
			// store-queue front and its word chain's head.
			s.storeQ.pop()
			w := u.effAddr &^ 7
			c := s.storeByWord[w]
			c.head = u.nextStore
			u.nextStore = nil
			if c.head == nil {
				delete(s.storeByWord, w)
			} else {
				s.storeByWord[w] = c
			}
			s.unpin(u)
		}
		if u.inst.HasDest() && s.regProd[u.inst.Rd] == u {
			s.regProd[u.inst.Rd] = nil
			s.unpin(u)
		}
		s.stats.Retired++
		n++
		s.unpin(u) // ROB slot released
	}
	return n > 0
}
