package nda

import (
	"fmt"
	"math/rand"

	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/ring"
)

// Policy selects the NDA write-throttling mechanism (Section III-B).
type Policy int

// Write-issue policies.
const (
	// IssueIfIdle issues aggressively whenever the rank is idle from the
	// host's perspective (the baseline opportunistic policy).
	IssueIfIdle Policy = iota
	// Stochastic issues writes with probability StochasticProb per
	// attempt; requires no extra signaling.
	Stochastic
	// NextRank inhibits writes on a rank while the oldest outstanding
	// host read in the channel targets that rank (needs one signal pin).
	NextRank
)

// String names the policy as in Figure 12's legend.
func (p Policy) String() string {
	switch p {
	case IssueIfIdle:
		return "Issue_if_idle"
	case Stochastic:
		return "Stochastic_issue"
	case NextRank:
		return "Predict_next_rank"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config tunes the NDA engine.
type Config struct {
	Policy         Policy
	StochasticProb float64 // write-issue probability under Stochastic
	WriteBufCap    int     // PE write buffer entries (blocks); Table II: 128
	Seed           int64
	// VerifyFSM additionally runs an independent host-side replica FSM
	// from host-visible inputs only and asserts cycle-exact agreement
	// with the NDA-side FSM (the Section III-D argument).
	VerifyFSM bool
}

// DefaultConfig returns the paper's NDA parameters with the robust
// next-rank predictor.
func DefaultConfig() Config {
	return Config{Policy: NextRank, StochasticProb: 0.25, WriteBufCap: 128, Seed: 42}
}

// RankStats aggregates one rank-NDA's activity.
type RankStats struct {
	BlocksRead    int64
	BlocksWritten int64
	RowActs       int64
	StallsHost    int64 // cycles skipped because the host used the rank
	StallsPolicy  int64 // write attempts inhibited by the policy
	OpsCompleted  int64
}

// wbEntry is one pending result block in the PE write buffer: its
// address and the op it belongs to.
type wbEntry struct {
	addr  dram.Addr
	owner *Op
}

// rankFSM is the deterministic per-rank NDA state machine. It is the
// unit that Section III-D replicates: every transition is a function of
// (launched op descriptors, host-visible DRAM timing state, host queue
// state, the shared clock), so a host-side copy stays in lock-step
// without any NDA-to-host signaling.
type rankFSM struct {
	ops      []*Op
	wb       ring.Ring[wbEntry] // pending result blocks (FIFO, allocation-free once warmed)
	draining bool
	readsRun int // reads completed toward the current batch
	rng      *rand.Rand
	rngSrc   *countedSource // rng's source, counted for snapshot replay
	rngSeed  int64

	stats RankStats
}

// snapshot summarizes observable FSM state for replica comparison.
func (f *rankFSM) snapshot() string {
	return fmt.Sprintf("ops=%d wb=%d drain=%v reads=%d rd=%d wr=%d",
		len(f.ops), f.wb.Len(), f.draining, f.readsRun,
		f.stats.BlocksRead, f.stats.BlocksWritten)
}

// RankNDA is one rank's PE cluster plus its NDA memory controller, with
// an optional host-side replica FSM.
type RankNDA struct {
	Channel, Rank int

	cfg  Config
	mem  *dram.Mem
	host *mc.Controller

	fsm     rankFSM
	replica *rankFSM

	// sleepUntil caches the FSM's next event: ticks before it are
	// provably no-ops and are skipped. Its validity contract has two
	// tiers, recorded at derivation time:
	//
	//   - sleepPure: the bound came from a pure timing wait (an open-row
	//     column or row command gated only on this rank's DRAM horizons,
	//     with no host-state read on the evaluation path). It stays
	//     valid under arbitrary host-queue churn; only a host command to
	//     this rank invalidates it — Issue moves horizons monotonically
	//     later and can close the row, and the engine provably steps the
	//     rank on that very cycle (the dispatcher forces a Tick whenever
	//     a host controller issues to a busy rank), marking the bound
	//     stale before it could ever be consumed again.
	//   - impure (sleepPure false): the evaluation read host controller
	//     state (oldest-read rank, per-bank demand), so the bound is
	//     valid only while the controller's per-rank queue counter
	//     (mc.Controller.NDAVer, recorded in derivedVer) is unmoved —
	//     it covers exactly the read-queue head and this rank's bucket
	//     zero-crossings, so churn on other ranks never invalidates;
	//     every branch that accrues per-cycle stall counters bounds
	//     itself at now and is never slept over.
	//
	// Bounds are derived lazily: a step marks sleepStale and the next
	// NextEvent query evaluates nextEvent — under sustained host traffic
	// every cycle executes anyway and eager evaluation would be waste.
	// A stale or invalid bound is never trusted; stepping instead is
	// always reference-exact.
	sleepUntil int64
	sleepPure  bool
	sleepStale bool
	derivedVer uint64

	// csink, when set, receives op completion callbacks instead of having
	// them invoked inline (see Engine.SetCompletionSink).
	csink func(done func(int64), at int64)
}

// Stats returns the rank's activity counters.
func (n *RankNDA) Stats() RankStats { return n.fsm.stats }

// Engine owns every RankNDA in the system and the host-side NDA
// controller logic that coordinates with the host memory controllers.
type Engine struct {
	cfg   Config
	mem   *dram.Mem
	hosts []*mc.Controller // per channel
	Ranks [][]*RankNDA     // [channel][rank]

	// fastForward arms the per-rank sleep cache (see RankNDA.tick).
	// Off by default so Tick remains the dumbest possible reference
	// implementation — the oracle fast-forward is verified against.
	fastForward bool
}

// SetFastForward toggles the per-rank idle-skip cache. Observable
// behavior is identical either way; only the work done on provably-idle
// cycles changes.
func (e *Engine) SetFastForward(on bool) { e.fastForward = on }

// NewEngine builds the NDA engine over the memory and host controllers.
func NewEngine(cfg Config, mem *dram.Mem, hosts []*mc.Controller) *Engine {
	if cfg.WriteBufCap <= 0 {
		cfg.WriteBufCap = 128
	}
	e := &Engine{cfg: cfg, mem: mem, hosts: hosts}
	for ch := 0; ch < mem.Geom.Channels; ch++ {
		var row []*RankNDA
		for r := 0; r < mem.Geom.Ranks; r++ {
			seed := cfg.Seed + int64(ch*64+r)
			src := newCountedSource(seed)
			n := &RankNDA{
				Channel: ch, Rank: r, cfg: cfg, mem: mem, host: hosts[ch],
				fsm: rankFSM{rng: rand.New(src), rngSrc: src, rngSeed: seed},
			}
			if cfg.VerifyFSM {
				rsrc := newCountedSource(seed)
				n.replica = &rankFSM{rng: rand.New(rsrc), rngSrc: rsrc, rngSeed: seed}
			}
			row = append(row, n)
		}
		e.Ranks = append(e.Ranks, row)
	}
	return e
}

// Launch enqueues an op on the given rank's NDA. makeOp must build a
// fresh op (fresh iterators) on each call: when FSM verification is on,
// a second instance feeds the host-side replica. In hardware the launch
// arrives through a control-register write; the runtime layer models that
// channel occupancy.
func (e *Engine) Launch(channel, rank int, makeOp func() *Op) {
	n := e.Ranks[channel][rank]
	n.sleepStale = true // re-derive: the new op changes the FSM's next action
	n.fsm.ops = append(n.fsm.ops, makeOp())
	if n.replica != nil {
		op := makeOp()
		op.Done = nil // completion is reported by the primary only
		n.replica.ops = append(n.replica.ops, op)
	}
}

// Busy reports whether any NDA still has work queued.
func (e *Engine) Busy() bool {
	for _, row := range e.Ranks {
		for _, n := range row {
			if len(n.fsm.ops) > 0 || n.fsm.wb.Len() > 0 {
				return true
			}
		}
	}
	return false
}

// Tick advances every rank NDA by one DRAM cycle. Must run after the
// host controllers' Tick for the same cycle (host priority). The
// fast-forward dispatcher must invoke it on every cycle where a host
// controller issued a command to a rank with NDA work (see
// RankBusy) — the rank's yield accounting happens on that very cycle.
func (e *Engine) Tick(now int64) {
	for ch := range e.Ranks {
		e.TickChannel(ch, now)
	}
}

// TickChannel advances one channel's rank NDAs by one DRAM cycle. A
// channel's NDAs read and write only that channel's state — its host
// controller (issued-rank, queue-demand, and version reads), its share
// of the DRAM timing model, and their own FSMs — so the order in which
// channels tick does not matter. Op completion callbacks are the one
// exception, and they divert through the completion sink when set.
func (e *Engine) TickChannel(ch int, now int64) {
	host := e.hosts[ch]
	hostRank := host.HostIssuedRank()
	// Impure bounds revalidate against the per-rank queue counter, not
	// the controller-wide version: the host reads on the evaluation
	// path (OldestReadRank, HasDemandFor) observe only the read-queue
	// head and this rank's bucket occupancy — exactly what NDAVer(rank)
	// counts — and host row commands, which bump Ver but no queue
	// counter, reach this rank through the issued-rank forced step
	// instead. Queue churn confined to other ranks no longer disturbs
	// this rank's cached bound.
	for _, n := range e.Ranks[ch] {
		n.tick(now, hostRank, host.NDAVer(n.Rank), e.fastForward)
	}
}

// SetCompletionSink redirects op completion callbacks (Op.Done) of the
// given channel's rank NDAs into sink instead of invoking them inline
// during a tick. The sim package points each channel at its domain
// mailbox; deferred callbacks must run before the end of the cycle they
// were produced in. A nil sink restores inline invocation.
func (e *Engine) SetCompletionSink(ch int, sink func(done func(int64), at int64)) {
	for _, n := range e.Ranks[ch] {
		n.csink = sink
	}
}

// RankBusy reports whether the rank's NDA has queued work: the
// dispatcher uses it to force a Tick when a host command targets the
// rank.
func (e *Engine) RankBusy(channel, rank int) bool {
	n := e.Ranks[channel][rank]
	return len(n.fsm.ops) > 0 || n.fsm.wb.Len() > 0
}

// NextEvent returns the earliest DRAM cycle >= now at which any rank
// NDA can issue a command or mutate observable state, assuming no host
// command targets a busy rank before then (the dispatcher forces a Tick
// on any cycle where one does, so consuming the bound is sound). Stale
// or version-invalidated bounds are re-derived here from current state:
// between a rank's last step and this query nothing it reads can have
// changed without either bumping its channel's Ver (impure bounds
// revalidate against it) or issuing to the rank itself (which forced a
// step), so the lazy evaluation equals the one the step would have
// done. Stall counters that accrue per-cycle under host interference
// all live behind branches whose bound is now, and are never slept
// over.
func (e *Engine) NextEvent(now int64) int64 {
	next := dram.Never
	for ch := range e.Ranks {
		if w := e.ChannelNextEvent(ch, now); w < next {
			next = w
			if next <= now {
				return now
			}
		}
	}
	return next
}

// ChannelNextEvent is NextEvent restricted to one channel's rank NDAs.
// Its validity assumptions are per channel: a host command to a busy
// rank forces that channel's tick (RankBusy), and impure bounds
// revalidate against that channel's controller version — so one
// channel's host-queue churn never perturbs another channel's cached
// bounds. It reads and refreshes only channel-local state.
func (e *Engine) ChannelNextEvent(ch int, now int64) int64 {
	next := dram.Never
	host := e.hosts[ch]
	for _, n := range e.Ranks[ch] {
		if len(n.fsm.ops) == 0 && n.fsm.wb.Len() == 0 {
			continue
		}
		hv := host.NDAVer(n.Rank) // per-rank counter; see TickChannel
		if n.sleepStale || (!n.sleepPure && n.derivedVer != hv) {
			n.sleepUntil, n.sleepPure = n.nextEvent(now)
			n.derivedVer = hv
			n.sleepStale = false
		}
		if n.sleepUntil <= now {
			return now
		}
		if n.sleepUntil < next {
			next = n.sleepUntil
		}
	}
	return next
}

// nextEvent mirrors stepFSM's decision tree without mutating: every
// branch either proves the FSM idle until a computable timing horizon or
// returns now because the next tick performs work (an RNG draw, a
// policy-stall counter bump, a state-flag flip, or op completion). The
// second result reports purity: true when no host controller state was
// read on the evaluation path, so the bound survives host-queue churn
// (see sleepUntil).
func (n *RankNDA) nextEvent(now int64) (int64, bool) {
	f := &n.fsm
	if len(f.ops) == 0 && f.wb.Len() == 0 {
		return dram.Never, true
	}
	wantWrite := false
	switch {
	case f.wb.Len() >= n.cfg.WriteBufCap:
		wantWrite = true
	case f.draining && f.wb.Len() > 0:
		wantWrite = true
	case f.wb.Len() > 0 && (len(f.ops) == 0 || f.ops[0].exhausted):
		wantWrite = true
	}
	if wantWrite {
		switch n.cfg.Policy {
		case Stochastic:
			return now, false // every attempt draws from the FSM's RNG
		case NextRank:
			if r, ok := n.host.OldestReadRank(); ok && r == n.Rank {
				return now, false // StallsPolicy advances each inhibited cycle
			}
			// The inhibition read taints the bound even when the wait
			// itself is a pure timing one.
			b, _ := n.accessEvent(dram.CmdWR, f.wb.Front().addr, now)
			return b, false
		}
		return n.accessEvent(dram.CmdWR, f.wb.Front().addr, now)
	}
	op := f.ops[0]
	if op.Kind.WritesResult() && f.wb.Len() > n.cfg.WriteBufCap-BatchBlocks {
		return now, false // backpressure flips draining on the next tick
	}
	a, ok := op.PeekRead()
	if !ok {
		return now, false // exhaustion discovery, tail flush, or completion
	}
	return n.accessEvent(dram.CmdRD, a, now)
}

// accessEvent bounds when the FSM's pending column access (or the row
// command it needs first) can make progress, and whether the bound is
// pure (derived from this rank's own DRAM horizons alone).
func (n *RankNDA) accessEvent(col dram.Command, a dram.Addr, now int64) (int64, bool) {
	row, open := n.mem.OpenRow(a)
	if open && row == a.Row {
		return n.mem.NextIssue(col, a, now, true), true
	}
	if n.host.HasDemandFor(n.Rank, a.GlobalBank(n.mem.Geom)) {
		return now, false // StallsHost advances each blocked cycle
	}
	// The demand check taints the bound: demand arriving mid-wait turns
	// every remaining cycle into a StallsHost bump.
	if open {
		return n.mem.NextIssue(dram.CmdPRE, a, now, true), false
	}
	return n.mem.NextIssue(dram.CmdACT, a, now, true), false
}

// MarkAllStale invalidates every rank's cached sleep bound. The
// sampled-mode fast-forward jump calls it after functionally advancing
// FSMs and warming row state: the cached bounds were derived from
// pre-jump timing and queue state and must be re-derived before any
// NextEvent query trusts them (mirrors what Restore does per rank).
func (e *Engine) MarkAllStale() {
	for _, row := range e.Ranks {
		for _, n := range row {
			n.sleepStale = true
		}
	}
}

// DrainFunctional advances one rank's NDA by up to maxBlocks blocks of
// work at functional fidelity for sampled-mode fast-forward (DESIGN.md
// §2.11). Work retires in exact FSM order — reads, batch-boundary
// result-write emission, buffer drains, op completion — but without
// timing checks, policy throttles, or RNG draws: determinism across
// runs requires the functional path to consume no
// randomness, and policy effects are timing artifacts the detailed
// windows re-measure. Row-buffer state warms through dram.Mem.WarmOpen
// exactly where the exact path would have activated, and the
// BlocksRead/BlocksWritten/RowActs counters advance so bandwidth
// accounting stays meaningful. Completion callbacks fire at cycle now
// (the post-jump cycle), through the completion sink when installed —
// the caller must flush its commit phase afterwards. Returns the
// blocks processed (< maxBlocks only when the rank ran dry).
//
// Incompatible with the FSM-verification replica: the replica predicts
// from timing state the functional path does not advance, so it would
// diverge in the next detailed window. RunSampled rejects VerifyFSM
// configurations; reaching here with a replica armed panics.
func (e *Engine) DrainFunctional(channel, rank, maxBlocks int, now int64) int {
	n := e.Ranks[channel][rank]
	if n.replica != nil {
		panic("nda: DrainFunctional with the VerifyFSM replica armed")
	}
	f := &n.fsm
	done := 0
	for done < maxBlocks {
		if len(f.ops) == 0 && f.wb.Len() == 0 {
			break
		}
		wantWrite := false
		switch {
		case f.wb.Len() >= n.cfg.WriteBufCap:
			f.draining = true
			wantWrite = true
		case f.draining && f.wb.Len() > 0:
			wantWrite = true
		case f.wb.Len() > 0 && (len(f.ops) == 0 || f.ops[0].exhausted):
			f.draining = true
			wantWrite = true
		default:
			f.draining = false
		}
		if wantWrite {
			front := f.wb.Front()
			n.warmRow(f, front.addr)
			f.wb.Pop()
			f.stats.BlocksWritten++
			front.owner.pendingWr--
			n.maybeComplete(f, front.owner, now)
			done++
			continue
		}
		op := f.ops[0]
		if op.Kind.WritesResult() && f.wb.Len() > n.cfg.WriteBufCap-BatchBlocks {
			f.draining = true // backpressure: next iteration drains
			continue
		}
		a, ok := op.nextRead()
		if !ok {
			// All reads done: flush remaining result writes (drained by
			// subsequent iterations) or complete the op outright.
			n.emitWrites(f, op, BatchBlocks)
			if op.pendingWr == 0 {
				n.maybeComplete(f, op, now)
			}
			continue
		}
		n.warmRow(f, a)
		f.stats.BlocksRead++
		f.readsRun++
		if f.readsRun >= op.batchReads() {
			f.readsRun = 0
			n.emitWrites(f, op, BatchBlocks)
		}
		done++
	}
	if done > 0 {
		n.sleepStale = true
	}
	return done
}

// warmRow opens the bank row a functional access targets, accounting
// the activation the exact path would have issued. The rank/channel
// protection assertion is kept; per-op Guard bounds are asserted on the
// exact path only.
func (n *RankNDA) warmRow(f *rankFSM, a dram.Addr) {
	if a.Channel != n.Channel || a.Rank != n.Rank {
		panic(fmt.Sprintf("nda: protection fault: ch%d/rk%d NDA accessed ch%d/rk%d",
			n.Channel, n.Rank, a.Channel, a.Rank))
	}
	if row, open := n.mem.OpenRow(a); !open || row != a.Row {
		f.stats.RowActs++
		n.mem.WarmOpen(a)
	}
}

// BytesMoved returns total NDA data movement in bytes.
func (e *Engine) BytesMoved() int64 {
	var b int64
	for _, row := range e.Ranks {
		for _, n := range row {
			b += (n.fsm.stats.BlocksRead + n.fsm.stats.BlocksWritten) * dram.BlockBytes
		}
	}
	return b
}

// TotalStats sums per-rank statistics.
func (e *Engine) TotalStats() RankStats {
	var t RankStats
	for _, row := range e.Ranks {
		for _, n := range row {
			s := n.fsm.stats
			t.BlocksRead += s.BlocksRead
			t.BlocksWritten += s.BlocksWritten
			t.RowActs += s.RowActs
			t.StallsHost += s.StallsHost
			t.StallsPolicy += s.StallsPolicy
			t.OpsCompleted += s.OpsCompleted
		}
	}
	return t
}

// tick attempts to issue at most one DRAM command for this rank's NDA.
// The replica, when present, is stepped first with apply=false so both
// FSMs evaluate against identical pre-issue DRAM state; their observable
// state must then agree.
//
// The fast path sleeps while the cached bound holds (see sleepUntil's
// validity contract): fresh, pure-or-version-valid, no host command to
// this rank this cycle. Everything else steps — stepping is what the
// reference does every cycle, so it is always exact.
func (n *RankNDA) tick(now int64, hostIssuedRank int, hostVer uint64, fastForward bool) {
	if len(n.fsm.ops) == 0 && n.fsm.wb.Len() == 0 {
		return
	}
	if fastForward {
		if !n.sleepStale && (n.sleepPure || n.derivedVer == hostVer) &&
			hostIssuedRank != n.Rank && now < n.sleepUntil {
			return
		}
		n.step(now, hostIssuedRank)
		n.sleepStale = true
		return
	}
	n.sleepStale = true
	n.step(now, hostIssuedRank)
}

// step runs one FSM transition (and the replica's, when armed).
func (n *RankNDA) step(now int64, hostIssuedRank int) {
	if n.replica != nil {
		n.stepFSM(n.replica, now, hostIssuedRank, false)
	}
	n.stepFSM(&n.fsm, now, hostIssuedRank, true)
	if n.replica != nil {
		if got, want := n.replica.snapshot(), n.fsm.snapshot(); got != want {
			panic(fmt.Sprintf("nda: replica FSM diverged on ch%d/rk%d at cycle %d: replica{%s} nda{%s}",
				n.Channel, n.Rank, now, got, want))
		}
	}
}

// stepFSM advances one FSM by one cycle. When apply is true, DRAM
// commands actually issue; the replica passes false and only predicts.
func (n *RankNDA) stepFSM(f *rankFSM, now int64, hostIssuedRank int, apply bool) {
	// Host accessed this rank this cycle: the NDA yields (fine-grain
	// interleaving with host priority). The replica sees the same host
	// command stream.
	if hostIssuedRank == n.Rank {
		f.stats.StallsHost++
		return
	}
	wantWrite := false
	switch {
	case f.wb.Len() >= n.cfg.WriteBufCap:
		f.draining = true
		wantWrite = true
	case f.draining && f.wb.Len() > 0:
		wantWrite = true
	case f.wb.Len() > 0 && (len(f.ops) == 0 || f.ops[0].exhausted):
		// Tail flush: no more reads to overlap with.
		f.draining = true
		wantWrite = true
	default:
		f.draining = false
	}
	if wantWrite {
		n.tryWrite(f, now, apply)
		return
	}
	if len(f.ops) > 0 {
		n.tryRead(f, now, apply)
	}
}

// tryWrite attempts to issue the head write-buffer entry.
func (n *RankNDA) tryWrite(f *rankFSM, now int64, apply bool) {
	front := f.wb.Front()
	a, owner := front.addr, front.owner
	// Policy throttling applies to writes only.
	switch n.cfg.Policy {
	case Stochastic:
		if f.rng.Float64() >= n.cfg.StochasticProb {
			f.stats.StallsPolicy++
			return
		}
	case NextRank:
		if r, ok := n.host.OldestReadRank(); ok && r == n.Rank {
			f.stats.StallsPolicy++
			return
		}
	}
	if !n.access(f, dram.CmdWR, a, now, apply) {
		return
	}
	f.wb.Pop()
	f.stats.BlocksWritten++
	owner.pendingWr--
	n.maybeComplete(f, owner, now)
}

// tryRead attempts the next read of the head op, producing result-write
// entries at batch boundaries.
func (n *RankNDA) tryRead(f *rankFSM, now int64, apply bool) {
	op := f.ops[0]
	// Backpressure: a full batch of results must fit in the buffer.
	if op.Kind.WritesResult() && f.wb.Len() > n.cfg.WriteBufCap-BatchBlocks {
		f.draining = true
		return
	}
	a, ok := op.nextRead()
	if !ok {
		// All reads done; flush any remaining result writes.
		n.emitWrites(f, op, BatchBlocks)
		if op.pendingWr == 0 {
			n.maybeComplete(f, op, now)
		}
		return
	}
	if !n.access(f, dram.CmdRD, a, now, apply) {
		op.pushback(a)
		return
	}
	f.stats.BlocksRead++
	f.readsRun++
	if f.readsRun >= op.batchReads() {
		f.readsRun = 0
		n.emitWrites(f, op, BatchBlocks)
	}
}

// emitWrites moves up to k result addresses of op into the write buffer.
func (n *RankNDA) emitWrites(f *rankFSM, op *Op, k int) {
	if op.Writes == nil {
		return
	}
	for i := 0; i < k; i++ {
		a, ok := op.Writes()
		if !ok {
			break
		}
		op.emitted++
		f.wb.Push(wbEntry{addr: a, owner: op})
		op.pendingWr++
	}
}

// maybeComplete retires the head op when fully done.
func (n *RankNDA) maybeComplete(f *rankFSM, op *Op, now int64) {
	if len(f.ops) == 0 || f.ops[0] != op {
		return
	}
	if !op.exhausted || op.pendingWr > 0 {
		return
	}
	if op.Writes != nil {
		// The write iterator must be fully drained too.
		if a, ok := op.Writes(); ok {
			op.emitted++
			f.wb.Push(wbEntry{addr: a, owner: op})
			op.pendingWr++
			return
		}
	}
	k := copy(f.ops, f.ops[1:])
	f.ops[k] = nil
	f.ops = f.ops[:k]
	f.readsRun = 0
	f.stats.OpsCompleted++
	if op.Done != nil {
		// Completion callbacks touch state shared across channels
		// (runtime handles); when a sink is installed they run in the
		// serial commit phase instead. The replica FSM never reaches
		// here with a Done (Launch clears it), so the primary and
		// replica stay comparable either way.
		if n.csink != nil {
			n.csink(op.Done, now)
		} else {
			op.Done(now)
		}
	}
}

// access performs row management and the column issue for one block.
// Returns true if the column command may issue this cycle (and issues it
// when apply is set).
func (n *RankNDA) access(f *rankFSM, col dram.Command, a dram.Addr, now int64, apply bool) bool {
	// NDA-side protection: every access must target this NDA's own rank
	// and pass the launch packet's bounds check.
	if a.Channel != n.Channel || a.Rank != n.Rank {
		panic(fmt.Sprintf("nda: protection fault: ch%d/rk%d NDA accessed ch%d/rk%d",
			n.Channel, n.Rank, a.Channel, a.Rank))
	}
	if len(f.ops) > 0 && f.ops[0].Guard != nil && !f.ops[0].Guard(a) {
		panic(fmt.Sprintf("nda: protection fault: access %+v outside operand bounds", a))
	}
	row, open := n.mem.OpenRow(a)
	if open && row == a.Row {
		if !n.mem.CanIssue(col, a, now, true) {
			return false
		}
		if apply {
			n.mem.Issue(col, a, now, true)
		}
		return true
	}
	// Row command needed: the host's pending requests to this bank take
	// priority over NDA row commands (Section III-B).
	if n.host.HasDemandFor(n.Rank, a.GlobalBank(n.mem.Geom)) {
		f.stats.StallsHost++
		return false
	}
	if open {
		if n.mem.CanIssue(dram.CmdPRE, a, now, true) && apply {
			n.mem.Issue(dram.CmdPRE, a, now, true)
		}
		return false
	}
	if n.mem.CanIssue(dram.CmdACT, a, now, true) {
		if apply {
			n.mem.Issue(dram.CmdACT, a, now, true)
		}
		f.stats.RowActs++
	}
	return false
}
