// Package mc implements the host-side memory controller: one FR-FCFS
// scheduler per channel with separate 32-entry read and write queues,
// watermark-based write draining, and an open-page policy (Table II).
//
// The controller also exposes the coordination hooks Chopim's NDA
// controller needs (Section III): per-cycle host activity per rank, the
// rank targeted by the oldest outstanding read (next-rank prediction),
// and pending-demand checks used to prioritize host row commands.
//
// Scheduling is event-driven: requests are bucketed per (rank, flat
// bank) at enqueue time (see queue.go), and the occupied banks are
// filed in a calendar queue keyed by each bank's exact earliest-issue
// cycle (see calendar.go), so a due tick examines only the ready
// candidates instead of sweeping every occupied bank; the NDA
// coordination hooks are O(1) counter reads. The calendar scheduler is
// decision-for-decision equivalent to the original full-rescan one; the
// rescan survives as scheduleRef, the oracle for the randomized
// equivalence tests (TestBucketedSchedulerMatchesReference,
// TestCalendarInvalidationMatchesReference).
package mc

import (
	"chopim/internal/addrmap"
	"chopim/internal/dram"
	"chopim/internal/ring"
	"chopim/internal/stats"
)

// Request is one block-granularity memory transaction.
type Request struct {
	Addr   uint64
	DAddr  dram.Addr
	Write  bool
	Arrive int64
	Done   func(dramDone int64) // nil for writes and prefetches
	// Tag carries a caller-assigned identity for requests whose Done
	// closure must be rebuilt after a checkpoint restore (NDA launch
	// packets; see EnqueueControlTagged). Zero for everything else.
	Tag uint64

	// bankKey is the request's (channel, rank, flat-bank) bucket index —
	// (Channel*Ranks+Rank)*BanksPerRank + DAddr.GlobalBank — decoded
	// once at enqueue (the scheduler and demand hooks read it every
	// cycle). The channel is folded in so buckets never mix channels:
	// the system router always routes one channel per controller, but
	// direct Enqueue* callers (unit harnesses) may not.
	bankKey int32
	// seq is the queue-insertion order FR-FCFS ages by. It is assigned
	// when the request enters its scheduling queue — an overflow-buffered
	// write is sequenced at drain-into-queue time, matching the append
	// order of the original slice-based queues.
	seq int64

	qnext, qprev *Request // arrival-ordered queue list; qnext doubles as the free-list link
	bnext, bprev *Request // (rank, bank) bucket list
}

// Config tunes one channel controller.
type Config struct {
	ReadQueue  int
	WriteQueue int
	// Write drain watermarks (occupancy counts on the write queue).
	DrainHigh int
	DrainLow  int
}

// DefaultConfig returns the paper's controller parameters.
func DefaultConfig() Config {
	return Config{ReadQueue: 32, WriteQueue: 32, DrainHigh: 24, DrainLow: 8}
}

// Controller schedules one channel.
type Controller struct {
	cfg     Config
	mem     *dram.Mem
	mapper  addrmap.Mapper
	channel int

	rq reqQueue
	wq reqQueue
	// overflow absorbs writebacks beyond the write queue (an unbounded
	// eviction buffer drained into wq as space frees).
	overflow ring.Ring[*Request]
	drain    bool

	bpr        int      // banks per rank (bankKey stride)
	bpg        int      // banks per group (flat bank -> bank group)
	nrank      int      // ranks per channel
	free       *Request // request node pool
	seqGen     int64
	stScratch  []int64 // per-rank stamp scratch for schedule sweeps
	busScratch []int64 // per-rank channel-bus horizon scratch

	// Fused horizon hint: a Tick that attempts both queues and issues
	// nothing records the min candidate horizon its failed sweeps
	// already computed (sweepHz per queue), saving NextEvent the
	// re-sweep. Valid while hintVer/hintMemVer match the live counters.
	sweepHz    int64
	hint       int64
	hintValid  bool
	hintVer    uint64
	hintMemVer uint64

	// cross is set when any request ever decoded to a foreign channel.
	// The system router routes one channel per controller, so this only
	// trips in unit harnesses that enqueue raw addresses; the controller
	// then runs the seed-exact rescan scheduler, whose per-request
	// evaluation (and channel-agnostic visited-bank marking) reproduces
	// the original behavior for mixed-channel queues.
	cross bool

	// refSched selects the original full-rescan FR-FCFS pass (the test
	// oracle); see SetReferenceScheduler.
	refSched bool

	// csink, when set, receives completion callbacks instead of having
	// them invoked inline at issue time (see SetCompletionSink). The sim
	// package points it at the controller's channel-domain mailbox so a
	// Tick never calls into shared state (the cache hierarchy, the copy
	// pump, runtime handles) mid-phase; the deferred callbacks
	// run in the serial cross-channel commit phase of the same cycle.
	csink func(done func(int64), at int64)

	// issuedRank is the rank the host issued a command to this cycle
	// (-1 if none); refreshed each Tick.
	issuedRank  int
	issuedIsCol bool

	// ver counts externally visible controller mutations: enqueues,
	// dequeues/issues (column and row commands, refresh), and overflow
	// refills. Anything caching conclusions drawn from controller state
	// — the system's per-controller wake cache — revalidates when it
	// changes. Pure bookkeeping invisible from outside (drain hysteresis
	// flips) does not bump it.
	ver uint64

	// qver counts only the mutations that move the controller's QUEUE
	// state: enqueues, overflow refills, and column issues (dequeues).
	// It deliberately excludes row/refresh commands (markRowCmd), which
	// bump ver but leave every queue-derived input unchanged. The NDA
	// engine's per-rank sleep bounds revalidate on the still-narrower
	// NDAVer(rank): the impure NDA branches read OldestReadRank (the rq
	// head) and HasDemandFor (bucket occupancy of the NDA's own rank),
	// and NDA timing checks are rank-local (nda=true NextIssue, no
	// channel bus) — so a host ACT/PRE elsewhere cannot change the
	// taken branch, queue churn confined to other ranks' buckets cannot
	// either, and a row/REF command to the NDA's own rank already
	// forces a tick through the dispatcher's RankBusy rule. This is the
	// same staleness split the calendar applies to bank entries
	// (rkStamp vs bucket dirtiness), applied to the engine's controller
	// inputs.
	qver uint64

	// seen/seenGen implement the reference scheduler's per-Tick
	// visited-bank set without per-cycle allocation.
	seen    []int64
	seenGen int64

	// Per-rank idle histograms (Fig 2) and bandwidth accounting.
	IdleHists []stats.IdleHist

	ReadsIssued, WritesIssued int64
	ActsIssued, PresIssued    int64
	ReadLatencySum            int64
	Drains, Refreshes         int64
	nextRefresh               int64
}

// NewController builds a controller for the given channel.
func NewController(cfg Config, mem *dram.Mem, mapper addrmap.Mapper, channel int) *Controller {
	nb := mem.Geom.Channels * mem.Geom.Ranks * mem.Geom.BanksPerRank()
	c := &Controller{
		cfg: cfg, mem: mem, mapper: mapper, channel: channel,
		bpr:        mem.Geom.BanksPerRank(),
		bpg:        mem.Geom.BanksPerGroup,
		nrank:      mem.Geom.Ranks,
		issuedRank: -1,
		seen:       make([]int64, nb),
		IdleHists:  make([]stats.IdleHist, mem.Geom.Ranks),
		stScratch:  make([]int64, mem.Geom.Ranks),
		busScratch: make([]int64, mem.Geom.Ranks),
	}
	c.rq.init(mem.Geom.Channels*mem.Geom.Ranks, c.bpr, mem.Geom.Ranks)
	c.wq.init(mem.Geom.Channels*mem.Geom.Ranks, c.bpr, mem.Geom.Ranks)
	for i := 0; i < cfg.ReadQueue+cfg.WriteQueue; i++ {
		c.free = &Request{qnext: c.free}
	}
	// The overflow buffer is unbounded by design, but its ring is
	// reserved to a generous high-water estimate up front: LLC-thrashing
	// hosts produce dirty-eviction bursts of several hundred writebacks,
	// and a mid-run ring doubling is the kind of late allocation the
	// zero-allocs steady-state gate exists to catch.
	c.overflow.Reserve(32 * cfg.WriteQueue)
	return c
}

// SetReferenceScheduler switches the controller to the original
// full-rescan FR-FCFS implementation. It exists as the oracle for the
// scheduler equivalence tests; the bucketed path is the production one.
func (c *Controller) SetReferenceScheduler(on bool) { c.refSched = on }

// SetCompletionSink redirects request completion callbacks (read fills,
// control-launch acknowledgements) into sink instead of invoking them
// inline at issue time. sink receives the request's Done function and
// the DRAM cycle it would have been invoked with; the caller must run
// every deferred callback before the end of the cycle it was produced
// in. A nil sink restores inline invocation (the default, which unit
// harnesses rely on).
func (c *Controller) SetCompletionSink(sink func(done func(int64), at int64)) {
	c.csink = sink
}

// Channel returns the channel index this controller owns.
func (c *Controller) Channel() int { return c.channel }

// Ver returns the externally-visible-mutation counter (see ver).
func (c *Controller) Ver() uint64 { return c.ver }

// QVer returns the queue-mutation counter (see qver).
func (c *Controller) QVer() uint64 { return c.qver }

// NDAVer returns a version counter over exactly the queue state the NDA
// engine's impure sleep bounds read for the given rank: the read-queue
// head identity (OldestReadRank's only input) and the rank's per-bank
// bucket-occupancy zero-crossings in both queues (the only transitions
// that can flip a HasDemandFor answer). It narrows qver the way qver
// narrows ver: queue churn that provably cannot change the rank's taken
// NDA branch — writes queued or drained against other ranks' banks,
// column issues that neither move the read-queue head nor empty a
// bucket of this rank — leaves it unchanged, so the rank's cached sleep
// bound survives. A sum of monotone counters, so equality means none of
// the covered inputs moved. O(channels) counter reads — effectively
// O(1).
func (c *Controller) NDAVer(rank int) uint64 {
	v := c.rq.headVer
	for g := rank; g < len(c.rq.demVer); g += c.nrank {
		v += c.rq.demVer[g] + c.wq.demVer[g]
	}
	return v
}

// ClearIssued resets the per-cycle issued-command scratch without
// running a Tick. The wake-driven system scheduler calls it on cycles
// where the controller is provably idle, so the NDA coordination hooks
// (HostIssuedRank) observe the same -1 a no-op Tick would have set.
func (c *Controller) ClearIssued() {
	c.issuedRank = -1
	c.issuedIsCol = false
}

// alloc pops a pooled request node (or grows the pool).
func (c *Controller) alloc(addr uint64, daddr dram.Addr, write bool, now int64, done func(int64)) *Request {
	r := c.free
	if r != nil {
		c.free = r.qnext
		*r = Request{}
	} else {
		r = &Request{}
	}
	r.Addr, r.DAddr, r.Write, r.Arrive, r.Done = addr, daddr, write, now, done
	r.bankKey = int32((daddr.Channel*c.nrank+daddr.Rank)*c.bpr + daddr.GlobalBank(c.mem.Geom))
	if daddr.Channel != c.channel {
		c.cross = true
	}
	return r
}

// release returns a retired request node to the pool.
func (c *Controller) release(r *Request) {
	*r = Request{qnext: c.free}
	c.free = r
}

// EnqueueRead adds a read; done fires at data-available time.
// It returns false when the read queue is full.
func (c *Controller) EnqueueRead(addr uint64, now int64, done func(int64)) bool {
	return c.EnqueueReadDecoded(addr, c.mapper.Decode(addr), now, done)
}

// EnqueueReadDecoded is EnqueueRead for callers that already decoded the
// address (the router decodes to route; re-decoding per request is
// measurable on the hot path).
func (c *Controller) EnqueueReadDecoded(addr uint64, daddr dram.Addr, now int64, done func(int64)) bool {
	if c.rq.n >= c.cfg.ReadQueue {
		return false
	}
	r := c.alloc(addr, daddr, false, now, done)
	r.seq = c.seqGen
	c.seqGen++
	c.rq.push(r)
	c.ver++
	c.qver++
	return true
}

// EnqueueWrite adds a writeback. Overflow beyond the write queue is
// buffered (never refused) to keep eviction handling simple.
func (c *Controller) EnqueueWrite(addr uint64, now int64) bool {
	c.EnqueueWriteDecoded(addr, c.mapper.Decode(addr), now)
	return true
}

// EnqueueWriteDecoded is EnqueueWrite with a pre-decoded address.
func (c *Controller) EnqueueWriteDecoded(addr uint64, daddr dram.Addr, now int64) {
	c.pushWrite(c.alloc(addr, daddr, true, now, nil))
}

// EnqueueControl submits an NDA launch packet: a write transaction to the
// rank's control registers that occupies the command/data channel like
// any host write (Section V). done fires when the write issues.
func (c *Controller) EnqueueControl(daddr dram.Addr, now int64, done func(int64)) {
	c.EnqueueControlTagged(daddr, now, 0, done)
}

// EnqueueControlTagged is EnqueueControl with a caller-assigned identity
// tag, so checkpoint restore can rebuild the done closure (launch
// acknowledgements) for in-flight packets.
func (c *Controller) EnqueueControlTagged(daddr dram.Addr, now int64, tag uint64, done func(int64)) {
	r := c.alloc(0, daddr, true, now, done)
	r.Tag = tag
	c.pushWrite(r)
}

// pushWrite routes a write into the write queue or the overflow buffer.
func (c *Controller) pushWrite(r *Request) {
	c.ver++
	c.qver++
	if c.wq.n >= c.cfg.WriteQueue {
		c.overflow.Push(r)
		return
	}
	r.seq = c.seqGen
	c.seqGen++
	c.wq.push(r)
}

// QueueOccupancy returns current read/write queue lengths.
func (c *Controller) QueueOccupancy() (reads, writes int) {
	return c.rq.n, c.wq.n + c.overflow.Len()
}

// HostIssuedRank returns the rank the host issued any command to this
// cycle, or -1. Valid after Tick for the same cycle.
func (c *Controller) HostIssuedRank() int { return c.issuedRank }

// OldestReadRank implements the next-rank predictor input: the rank of
// the oldest outstanding read in this channel's transaction queue.
func (c *Controller) OldestReadRank() (rank int, ok bool) {
	if c.rq.head == nil {
		return 0, false
	}
	return c.rq.head.DAddr.Rank, true
}

// HasDemandFor reports whether any queued host request targets the given
// rank and bank on any channel (used to give host row commands priority
// over NDA row commands, Section III-B). O(channels) bucket-occupancy
// reads — effectively O(1).
func (c *Controller) HasDemandFor(rank, flatBank int) bool {
	for key := rank*c.bpr + flatBank; key < len(c.rq.banks); key += c.nrank * c.bpr {
		if c.rq.banks[key].n > 0 || c.wq.banks[key].n > 0 {
			return true
		}
	}
	return false
}

// HasAnyDemandFor reports whether any queued request targets the rank.
// O(channels) counter reads — effectively O(1).
func (c *Controller) HasAnyDemandFor(rank int) bool {
	for g := rank; g < len(c.rq.rankN); g += c.nrank {
		if c.rq.rankN[g] > 0 || c.wq.rankN[g] > 0 {
			return true
		}
	}
	return false
}

// NextEvent returns the earliest DRAM cycle >= now at which the
// controller can change observable state. With all queues empty only the
// refresh deadline (when refresh is enabled) can wake it. With requests
// queued it reports the earliest cycle any FR-FCFS candidate's command
// can legally issue — when every queued request is timing-blocked that
// horizon lies beyond now, and every cycle before it is provably a
// scheduler no-op, extending fast-forward into write-drain and
// launch-heavy windows. Cycles where Tick performs internal bookkeeping
// (overflow refill, drain-watermark flips, refresh interleaving) report
// now.
func (c *Controller) NextEvent(now int64) int64 {
	if c.rq.n == 0 && c.wq.n == 0 && c.overflow.Len() == 0 {
		if c.mem.T.REFI > 0 {
			if c.nextRefresh > now {
				return c.nextRefresh
			}
			return now
		}
		return dram.Never
	}
	if c.mem.T.REFI > 0 || c.cross || c.refSched {
		// Refresh interleaves with scheduling, and the rescan paths
		// (mixed-channel queues, oracle mode) derive no horizons; stay
		// cycle-exact.
		return now
	}
	if c.issuedRank >= 0 {
		// The controller issued on its most recent executed cycle;
		// report due. The common case is more ready work immediately
		// after an issue, so horizon derivation is deferred until a
		// cycle proves the pipeline drained (a Tick that issues nothing
		// clears issuedRank and leaves a fused horizon hint behind).
		return now
	}
	if c.overflow.Len() > 0 && c.wq.n < c.cfg.WriteQueue {
		return now // next Tick refills the write queue
	}
	if (!c.drain && c.wq.n >= c.cfg.DrainHigh) || (c.drain && c.wq.n <= c.cfg.DrainLow) {
		return now // next Tick flips drain hysteresis (Drains counter)
	}
	// A Tick that attempted both queues and issued nothing already
	// derived the horizon as a byproduct of its failed scans; serve it
	// while nothing it was derived from has moved (no enqueue or
	// dequeue — ver — and no command on the channel — ChVer). The
	// horizon covers only candidates that can mature on their own
	// (future timing bounds): ready-but-rowWanted-blocked row commands
	// are excluded, because their state is provably frozen until a
	// queue mutation or command issue — events that bump ver or ChVer
	// and re-derive this bound. Never therefore means "no timing-driven
	// wake at all": the controller sleeps until such an event.
	h := dram.Never
	if c.hintValid && c.hintVer == c.ver && c.hintMemVer == c.mem.ChVer(c.channel) {
		h = c.hint
	} else {
		h = min(c.queueHorizon(&c.rq, false, now), c.queueHorizon(&c.wq, true, now))
	}
	if h <= now {
		return now
	}
	return h
}

// queueHorizon bounds when any of the queue's FR-FCFS candidates (pass-1
// row hits and pass-2 row commands) can first issue, assuming no
// intervening commands. It runs the same calendar scan the scheduler
// uses (ready region validated exactly, future banks contribute their
// lower-bound keys), so the bound is sound — never beyond the true
// earliest issue — and tightens to exact as candidates approach
// readiness. Requests blocked structurally on another request's
// progress (row kept open for an older hit) are covered by that
// request's own candidate horizon.
func (c *Controller) queueHorizon(q *reqQueue, writes bool, now int64) int64 {
	if q.n == 0 {
		return dram.Never
	}
	cmd := dram.CmdRD
	if writes {
		cmd = dram.CmdWR
	}
	best, best2, hzFuture := c.calScan(q, cmd, now)
	if best != nil || c.readyRow(q, now, best2) != nil {
		// A ready column or an issuable row command: the controller is
		// due this very cycle. (Ready row commands that are rowWanted-
		// blocked are NOT due — their state is frozen until a ver/ChVer
		// event re-derives this bound — which is what lets the
		// controller sleep through blocked windows instead of polling.)
		return now
	}
	return c.calHorizon(q, cmd, now, hzFuture)
}

// readyRow returns the oldest ready pass-2 entry whose row command can
// actually issue this cycle: ACTs unconditionally, PREs only when the
// open row is no longer wanted by any queued request. The rowWanted
// re-check and oldest-first resume mirror the rescan's pass 2 exactly;
// candidates are drawn from the calendar's ready region, which calScan
// left validated and holding every bank with a ready candidate. It
// evaluates without mutating, so both schedule (to issue) and
// queueHorizon (to decide due-ness) share it.
func (c *Controller) readyRow(q *reqQueue, now int64, best2 *bankEntry) *bankEntry {
	lastSeq := int64(-1)
	for best2 != nil {
		r := best2.p2
		if best2.p2Cmd == dram.CmdPRE && c.rowWanted(r.DAddr, int(best2.p2Row)) {
			lastSeq = r.seq
			best2 = nil
			for bk := q.calReady; bk != -1; bk = q.calNext[bk] {
				e := &q.sched[q.occPos[bk]]
				if e.p2 == nil || e.p2Rank > now || e.p2.seq <= lastSeq {
					continue
				}
				if best2 == nil || e.p2.seq < best2.p2.seq {
					best2 = e
				}
			}
			continue
		}
		return best2
	}
	return nil
}

// recomputeEntry re-derives one bank's candidates (see bankEntry). All
// timing inputs come from one BankSched read; ready cycles are raw
// horizons (the callers' <= now compares make clamping unnecessary).
// When only timing moved — the bucket is clean and the bank's row state
// matches the identity cache — the candidates themselves are reused and
// just their ready cycles refresh, skipping the bucket scan.
func (c *Controller) recomputeEntry(q *reqQueue, e *bankEntry, bk int32, cmd dram.Command, st int64) {
	// Bank coordinates come from the key, not the bucket head: the
	// identity-fast branch must not touch the request at all (a pointer
	// chase the packed entry layout exists to avoid).
	flat := int(bk) % c.bpr
	rank := int(bk)/c.bpr - c.channel*c.nrank
	row, open, readyACT, readyPRE, readyRD, readyWR := c.mem.BankSched(
		c.channel, rank, flat/c.bpg, flat)
	if !e.dirty && e.idValid && e.idOpen == open && (!open || e.idRow == int32(row)) {
		if e.p1 != nil {
			if cmd == dram.CmdRD {
				e.p1Rank = readyRD
			} else {
				e.p1Rank = readyWR
			}
		}
		if e.p2 != nil {
			switch e.p2Cmd {
			case dram.CmdACT:
				e.p2Rank = readyACT
			default:
				e.p2Rank = readyPRE
			}
		}
		e.rkStamp = st
		return
	}
	bl := &q.banks[bk]
	head := bl.head
	a := &head.DAddr
	e.p1, e.p2 = nil, nil
	if !open {
		e.p2, e.p2Cmd = head, dram.CmdACT
		e.p2Rank = readyACT
	} else {
		for r := bl.head; r != nil; r = r.bnext {
			if r.DAddr.Row == row {
				// Rank-side bound only; the channel bus is checked per
				// cycle through ExtColReady.
				e.p1 = r
				if cmd == dram.CmdRD {
					e.p1Rank = readyRD
				} else {
					e.p1Rank = readyWR
				}
				break
			}
		}
		if a.Row != row {
			e.p2, e.p2Cmd, e.p2Row = head, dram.CmdPRE, int32(row)
			e.p2Rank = readyPRE
		}
	}
	e.dirty = false
	e.idValid, e.idOpen, e.idRow = true, open, int32(row)
	e.rkStamp = st
}

// Tick advances the controller one DRAM cycle, issuing at most one
// command on the channel.
func (c *Controller) Tick(now int64) {
	c.issuedRank = -1
	c.issuedIsCol = false

	// Refresh scheduling (disabled when tREFI is zero, the paper's
	// configuration): every tREFI, close the due rank and issue REF.
	if c.mem.T.REFI > 0 && c.refresh(now) {
		return
	}

	// Refill the write queue from the overflow buffer.
	for c.overflow.Len() > 0 && c.wq.n < c.cfg.WriteQueue {
		r := c.overflow.Pop()
		r.seq = c.seqGen
		c.seqGen++
		c.wq.push(r)
		c.ver++
		c.qver++
	}

	// Write-drain mode hysteresis.
	if !c.drain && c.wq.n >= c.cfg.DrainHigh {
		c.drain = true
		c.Drains++
	}
	if c.drain && c.wq.n <= c.cfg.DrainLow {
		c.drain = false
	}

	useWrites := c.drain || (c.rq.n == 0 && c.wq.n > 0)
	if useWrites {
		if c.schedule(&c.wq, now, true) {
			return
		}
		h := c.sweepHz
		// Fall through: if no write can issue, try reads anyway.
		if !c.schedule(&c.rq, now, false) {
			c.setHint(min(h, c.sweepHz))
		}
		return
	}
	if c.schedule(&c.rq, now, false) {
		return
	}
	h := c.sweepHz
	// Opportunistic writes when no read can make progress.
	if !c.schedule(&c.wq, now, true) {
		c.setHint(min(h, c.sweepHz))
	}
}

// setHint publishes the fused horizon derived by a no-issue Tick's
// failed sweeps (see NextEvent), stamped with the state versions it was
// derived under.
func (c *Controller) setHint(h int64) {
	c.hint = h
	c.hintValid = true
	c.hintVer = c.ver
	c.hintMemVer = c.mem.ChVer(c.channel)
}

// schedule applies FR-FCFS to the given queue: first a ready row-hit
// column command in oldest-first order, then a row command (ACT or PRE)
// for the oldest request per bank. Returns true if a command issued.
//
// Candidate selection runs off the calendar queue (calendar.go): the
// per-bank entries are unchanged (pass 1's only viable requests are
// each open bank's oldest row hit, pass 2's are the bucket heads —
// exactly the requests the rescan's visited-bank set selected), but
// only the ready region is examined per due tick instead of every
// occupied bank. A candidate is ready iff now has reached its exact
// horizon — the cached rank-side bound plus, for columns, the O(1)
// channel-bus bound — so "oldest ready" equals the rescan's "first in
// arrival order passing CanIssue".
func (c *Controller) schedule(q *reqQueue, now int64, writes bool) bool {
	c.sweepHz = dram.Never
	if q.n == 0 {
		return false
	}
	if c.refSched || c.cross {
		// The rescan derives no horizon; a Never hint makes NextEvent
		// report due (cycle-exact), which oracle mode wants anyway.
		return c.scheduleRef(q, now, writes)
	}
	cmd := dram.CmdRD
	if writes {
		cmd = dram.CmdWR
	}
	// The scan finds both passes' oldest ready candidates (the row hit
	// — pass 1 — always wins over a row command, pass 2). The exact min
	// candidate horizon (sweepHz, the fused hint NextEvent serves) is
	// derived only on the no-issue paths below — an issuing tick's
	// horizon is never consumed.
	best, best2, hzReady := c.calScan(q, cmd, now)
	c.sweepHz = hzReady
	if best != nil {
		c.issueColumn(cmd, best, q, now, writes)
		return true
	}
	// Pass 2: row commands in age order among the ready candidates. A
	// PRE re-checks rowWanted at issue time (the open-page policy may
	// have gained a waiter from the other queue since the entry was
	// derived); on a skip readyRow resumes at the next-oldest ready
	// candidate — still within the ready region, which calScan left
	// holding every bank with a ready candidate, validated.
	if e := c.readyRow(q, now, best2); e != nil {
		c.mem.Issue(e.p2Cmd, e.p2.DAddr, now, false)
		if e.p2Cmd == dram.CmdPRE {
			c.PresIssued++
		} else {
			c.ActsIssued++
		}
		c.markRowCmd(e.p2.DAddr, now)
		return true
	}
	c.sweepHz = c.calHorizon(q, cmd, now, hzReady)
	return false
}

// scheduleRef is the original O(queue)-per-cycle FR-FCFS rescan, kept as
// the oracle for the scheduler equivalence tests.
func (c *Controller) scheduleRef(q *reqQueue, now int64, writes bool) bool {
	// Pass 1: ready column commands (row hits), in arrival order.
	for r := q.head; r != nil; r = r.qnext {
		row, open := c.mem.OpenRow(r.DAddr)
		if !open || row != r.DAddr.Row {
			continue
		}
		cmd := dram.CmdRD
		if writes {
			cmd = dram.CmdWR
		}
		if !c.mem.CanIssue(cmd, r.DAddr, now, false) {
			continue
		}
		c.issueColumn(cmd, r, q, now, writes)
		return true
	}
	// Pass 2: row commands for the oldest request in each conflicting
	// bank, in arrival order.
	c.seenGen++
	for r := q.head; r != nil; r = r.qnext {
		// The seed's visited-bank key deliberately omits the channel;
		// mixed-channel behavior (cross harnesses) depends on it.
		seedKey := r.DAddr.Rank*c.bpr + r.DAddr.GlobalBank(c.mem.Geom)
		if c.seen[seedKey] == c.seenGen {
			continue
		}
		c.seen[seedKey] = c.seenGen
		row, open := c.mem.OpenRow(r.DAddr)
		if open && row == r.DAddr.Row {
			continue // column blocked only by timing; wait
		}
		if open {
			if c.rowWantedRef(r.DAddr, row) {
				continue
			}
			if c.mem.CanIssue(dram.CmdPRE, r.DAddr, now, false) {
				c.mem.Issue(dram.CmdPRE, r.DAddr, now, false)
				c.PresIssued++
				c.markRowCmd(r.DAddr, now)
				return true
			}
			continue
		}
		if c.mem.CanIssue(dram.CmdACT, r.DAddr, now, false) {
			c.mem.Issue(dram.CmdACT, r.DAddr, now, false)
			c.ActsIssued++
			c.markRowCmd(r.DAddr, now)
			return true
		}
	}
	return false
}

// rowWanted reports whether any queued request still targets the open row
// of the same bank (open-page policy keeps it open for them). It scans
// the bank's buckets in both queues — O(per-bank occupancy).
func (c *Controller) rowWanted(a dram.Addr, openRow int) bool {
	key := int32((a.Channel*c.nrank+a.Rank)*c.bpr + a.GlobalBank(c.mem.Geom))
	for r := c.rq.banks[key].head; r != nil; r = r.bnext {
		if r.DAddr.Row == openRow {
			return true
		}
	}
	for r := c.wq.banks[key].head; r != nil; r = r.bnext {
		if r.DAddr.Row == openRow {
			return true
		}
	}
	return false
}

// rowWantedRef is the original whole-queue scan, used by scheduleRef.
func (c *Controller) rowWantedRef(a dram.Addr, openRow int) bool {
	match := func(r *Request) bool {
		return r.DAddr.Rank == a.Rank && r.DAddr.BankGroup == a.BankGroup &&
			r.DAddr.Bank == a.Bank && r.DAddr.Row == openRow
	}
	for r := c.rq.head; r != nil; r = r.qnext {
		if match(r) {
			return true
		}
	}
	for r := c.wq.head; r != nil; r = r.qnext {
		if match(r) {
			return true
		}
	}
	return false
}

func (c *Controller) issueColumn(cmd dram.Command, r *Request, q *reqQueue, now int64, write bool) {
	c.mem.Issue(cmd, r.DAddr, now, false)
	c.ver++
	c.qver++
	c.issuedRank = r.DAddr.Rank
	c.issuedIsCol = true
	q.remove(r)
	var dataStart, dataEnd int64
	if write {
		c.WritesIssued++
		dataStart = now + int64(c.mem.T.CWL)
		dataEnd = now + c.mem.WriteLatency()
	} else {
		c.ReadsIssued++
		dataStart = now + int64(c.mem.T.CL)
		dataEnd = now + c.mem.ReadLatency()
		c.ReadLatencySum += dataEnd - r.Arrive
	}
	// The rank counts as host-busy during the data burst; the CAS-wait
	// window remains available to NDA column commands.
	c.IdleHists[r.DAddr.Rank].MarkBusy(dataStart, dataEnd)
	done := r.Done
	c.release(r)
	if done != nil {
		if c.csink != nil {
			c.csink(done, dataEnd)
		} else {
			done(dataEnd)
		}
	}
}

// markRowCmd records host activity on a rank for a row command.
func (c *Controller) markRowCmd(a dram.Addr, now int64) {
	c.ver++
	c.issuedRank = a.Rank
	c.IdleHists[a.Rank].MarkBusy(now, now+1)
}

// refresh issues PREs and REF for ranks whose tREFI deadline passed.
// Returns true if it consumed this cycle's command slot. Note: with
// refresh enabled and NDAs active on the same rank, quiescing can take
// longer because NDA activates race the controller's precharges; the
// paper's configuration (and every experiment here) runs refresh
// disabled, matching Table II.
func (c *Controller) refresh(now int64) bool {
	if now < c.nextRefresh {
		return false
	}
	rank := int(now/int64(c.mem.T.REFI)) % c.mem.Geom.Ranks
	a := dram.Addr{Channel: c.channel, Rank: rank}
	if c.mem.CanIssue(dram.CmdREF, a, now, false) {
		c.mem.Issue(dram.CmdREF, a, now, false)
		c.markRowCmd(a, now)
		c.nextRefresh = now + int64(c.mem.T.REFI)
		c.Refreshes++
		return true
	}
	// Close any open bank in the rank so REF becomes legal.
	for bg := 0; bg < c.mem.Geom.BankGroups; bg++ {
		for bk := 0; bk < c.mem.Geom.BanksPerGroup; bk++ {
			b := dram.Addr{Channel: c.channel, Rank: rank, BankGroup: bg, Bank: bk}
			if _, open := c.mem.OpenRow(b); open && c.mem.CanIssue(dram.CmdPRE, b, now, false) {
				c.mem.Issue(dram.CmdPRE, b, now, false)
				c.PresIssued++
				c.markRowCmd(b, now)
				return true
			}
		}
	}
	return true // hold the slot until the rank quiesces
}

// FinalizeStats closes the idle histograms at simulation end.
func (c *Controller) FinalizeStats(end int64) {
	for i := range c.IdleHists {
		c.IdleHists[i].Finalize(end)
	}
}
