// Package sim composes the full simulated system of the paper's
// methodology section: multi-core host with cache hierarchy, per-channel
// FR-FCFS memory controllers, the DDR4 device model, the NDA engine, and
// the Chopim runtime, all advanced on the 1.2 GHz DRAM bus clock with
// cores credited 10/3 CPU cycles per DRAM cycle (4 GHz / 1.2 GHz).
package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"chopim/internal/addrmap"
	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/faults"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/workload"
)

// CPUCyclesPerDRAM expresses the 4 GHz : 1.2 GHz clock ratio as the
// rational 10/3.
const (
	cpuCredit  = 10
	cpuDivisor = 3
)

// notSurveyed marks a stashed wake bound the survey did not derive
// (it early-outed on an active core); the tick recomputes it.
const notSurveyed = int64(-1)

// DRAMHz is the DDR4-2400 bus clock.
const DRAMHz = 1.2e9

// Config assembles one system instance.
type Config struct {
	Geom   dram.Geometry
	Timing dram.Timing

	// Partitioned selects the proposed Fig 4b mapping with
	// ReservedBanks banks per rank set aside for the shared region.
	Partitioned   bool
	ReservedBanks int

	// MixIndex selects the Table II host application mix; -1 disables
	// host traffic entirely.
	MixIndex int

	// HostProfiles, when non-empty, overrides MixIndex with an explicit
	// per-core workload list (one core per profile). Used by stress and
	// equivalence harnesses that need traffic shapes outside Table II.
	HostProfiles []workload.Profile

	Core cpu.Config
	MC   mc.Config
	NDA  nda.Config

	// MaxBlocksPerInstr is the NDA vector-instruction granularity
	// (cache blocks per operand per instruction; 0 = unlimited).
	MaxBlocksPerInstr int
	// ModelLaunches models control-register launch packets.
	ModelLaunches bool

	// SimWorkers is kept for source compatibility: the simulator is
	// serial; only 0 and 1 are accepted, and New rejects any other value.
	SimWorkers int

	Seed int64

	// CheckInvariants validates cross-layer conservation invariants at
	// every commit-phase barrier (MSHR accounting vs the LLC pending
	// table, controller queue occupancy vs bank buckets vs calendar
	// membership, calendar lower-bound soundness against the rescan
	// oracle, mailboxes drained empty). A violation panics with an
	// *InvariantError — corrupted state is not recoverable — which the
	// experiment runner's per-point recovery quarantines. Zero cost when
	// off: the commit path pays one bool check per tick.
	CheckInvariants bool

	// WatchdogWindow arms the forward-progress watchdog on the fast
	// path: if this many simulated cycles elapse across executed ticks
	// with no retirement, command issue, or NDA progress while work is
	// pending, StepFast returns a LivelockError with a diagnostic dump.
	// 0 disables the watchdog (the Never-with-pending-work detector is
	// always on — it costs nothing).
	WatchdogWindow int64

	// MaxCycles, when positive, is an absolute DRAM-cycle deadline:
	// StepFast returns a DeadlineError once Now() reaches it, leaving
	// all counters readable for partial statistics.
	MaxCycles int64

	// MaxWallClock, when positive, bounds the run's host wall-clock
	// time; checked every few hundred wakes (one time.Now per check).
	MaxWallClock time.Duration

	// Cancel, when non-nil, is a cooperative stop flag: once it reads
	// true, StepFast returns a sticky *CanceledError, leaving all
	// counters readable for partial statistics and the system at a
	// quiescent (checkpointable) boundary. Checked on the same
	// rate-limited cadence as MaxWallClock, so arming it does not
	// perturb the steady-state fast path. Drivers set the flag from
	// signal handlers or peer goroutines; the field itself is ignored
	// by snapshots, fingerprints, and cache keys.
	Cancel *atomic.Bool
}

// Default returns the paper's baseline configuration running the given
// mix with bank partitioning enabled.
func Default(mix int) Config {
	return Config{
		Geom:          dram.DefaultGeometry(),
		Timing:        dram.DDR42400(),
		Partitioned:   true,
		ReservedBanks: 1,
		MixIndex:      mix,
		Core:          cpu.DefaultConfig(),
		MC:            mc.DefaultConfig(),
		NDA:           nda.DefaultConfig(),
		ModelLaunches: true,
		Seed:          1,
	}
}

// System is one composed simulation instance.
type System struct {
	Cfg    Config
	Mem    *dram.Mem
	Mapper addrmap.Mapper
	OS     *osmem.OS
	MCs    []*mc.Controller
	Router *mc.Router
	Hier   *cache.Hierarchy
	Cores  []*cpu.Core
	NDA    *nda.Engine
	RT     *ndart.Runtime

	// gens holds each core's trace generator (index-aligned with Cores);
	// retained for checkpointing — the cores themselves treat the
	// generator as an opaque instruction source.
	gens []*workload.Generator

	dramCycle int64
	cpuCycle  int64
	credit    int

	// Wake-schedule caches for the fast path (StepFast/RunFast); Run
	// never consults them. Each controller's next-event bound is cached
	// until the controller itself is ticked (mcStale), an external call
	// mutates it (Ver), or a DRAM command moves its channel's timing
	// horizons (Mem.ChVer — NDA traffic shifts horizons the controller
	// schedules against). coreDue is per-tick scratch for the dispatch
	// loop; coreEpoch records the memory epoch (hierarchy version plus
	// controller versions) under which each probe-stalled core last
	// evaluated its retry, so the retry re-runs only when the epoch
	// moves.
	mcWake    []int64
	mcVer     []uint64
	mcMemVer  []uint64
	mcStale   []bool
	coreDue   []bool
	coreEpoch []uint64

	// doms holds one channel domain per memory channel. Domain d owns MCs[d], the rank
	// NDAs of channel d, and channel d's share of Mem; its mailbox
	// (outbox) collects the completion callbacks the domain's tick would
	// otherwise have invoked inline — fills into the shared cache
	// hierarchy, copy-pump read completions, control-launch
	// acknowledgements, NDA op completions — for the serial commit phase
	// to apply in canonical (channel, FIFO) order.
	doms []domain

	// stepNDAWake carries the survey's per-channel NDA bounds into the
	// same step's tick (notSurveyed when the survey early-outed before
	// deriving them); stepRTWake is the runtime bound.
	stepNDAWake []int64
	stepRTWake  int64

	// robust holds the watchdog/deadline bookkeeping (robust.go); not
	// part of checkpointed state.
	robust robustState

	measStartDRAM int64
	measStartCPU  int64
	retiredAtMeas []int64
}

// domain is one channel's execution domain (see System.doms).
type domain struct {
	outbox []doneEv
}

// doneEv is one deferred completion callback and the cycle argument it
// must be invoked with.
type doneEv struct {
	fn func(int64)
	at int64
}

// push appends a deferred completion (the mailbox write side; called
// only from the owning domain's memory-phase tick).
func (d *domain) push(fn func(int64), at int64) {
	d.outbox = append(d.outbox, doneEv{fn: fn, at: at})
}

// New builds and wires a system. Invalid user-reachable configuration
// (geometry, timing, controller queues, partition reservation) is
// returned as an error, not a panic: every figure point flows through
// here, and a sweep must be able to reject a bad point without dying.
func New(cfg Config) (*System, error) {
	if cfg.SimWorkers != 0 && cfg.SimWorkers != 1 {
		return nil, fmt.Errorf("sim: invalid config: SimWorkers %d (the simulator is serial; only 0 and 1 are accepted)", cfg.SimWorkers)
	}
	base, err := addrmap.NewSkylakeLikeChecked(cfg.Geom)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	var mapper addrmap.Mapper = base
	if cfg.Partitioned {
		rb := cfg.ReservedBanks
		if rb <= 0 {
			rb = 1
		}
		part, err := addrmap.NewPartitionedChecked(base, rb)
		if err != nil {
			return nil, fmt.Errorf("sim: invalid config: %w", err)
		}
		mapper = part
	}
	if err := cfg.MC.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	mem, err := dram.NewChecked(cfg.Geom, cfg.Timing)
	if err != nil {
		return nil, fmt.Errorf("sim: invalid config: %w", err)
	}
	os, err := osmem.NewOS(mapper)
	if err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Mem: mem, Mapper: mapper, OS: os}

	for ch := 0; ch < cfg.Geom.Channels; ch++ {
		s.MCs = append(s.MCs, mc.NewController(cfg.MC, s.Mem, mapper, ch))
	}
	s.Router = mc.NewRouter(s.MCs, mapper, func() int64 { return s.dramCycle })

	if cfg.MixIndex >= 0 || len(cfg.HostProfiles) > 0 {
		profs := cfg.HostProfiles
		if len(profs) == 0 {
			var err error
			if profs, err = workload.MixProfiles(cfg.MixIndex); err != nil {
				return nil, err
			}
		}
		hcfg := cache.DefaultHierarchyConfig(len(profs))
		if err := hcfg.Validate(); err != nil {
			return nil, fmt.Errorf("sim: invalid config: %w", err)
		}
		s.Hier = cache.NewHierarchy(hcfg, s.Router, s)
		for i, p := range profs {
			fp := p.Footprint
			region, err := os.AllocHost(fp)
			if err != nil {
				return nil, fmt.Errorf("sim: core %d footprint: %w", i, err)
			}
			gen := workload.NewGenerator(p, region, fp, cfg.Seed+int64(i)*7919)
			s.gens = append(s.gens, gen)
			s.Cores = append(s.Cores, cpu.NewCore(i, cfg.Core, gen, s.Hier))
		}
	}

	s.NDA = nda.NewEngine(cfg.NDA, s.Mem, s.MCs)
	s.RT = ndart.New(os, s.NDA, s.MCs, func() int64 { return s.dramCycle })
	s.RT.MaxBlocksPerInstr = cfg.MaxBlocksPerInstr
	s.RT.ModelLaunches = cfg.ModelLaunches
	s.retiredAtMeas = make([]int64, len(s.Cores))
	s.mcWake = make([]int64, len(s.MCs))
	s.mcVer = make([]uint64, len(s.MCs))
	s.mcMemVer = make([]uint64, len(s.MCs))
	s.mcStale = make([]bool, len(s.MCs))
	for i := range s.mcStale {
		s.mcStale[i] = true
	}
	s.coreDue = make([]bool, len(s.Cores))
	s.coreEpoch = make([]uint64, len(s.Cores))
	s.stepNDAWake = make([]int64, len(s.MCs))
	s.doms = make([]domain, len(s.MCs))
	for d := range s.doms {
		dom := &s.doms[d]
		s.MCs[d].SetCompletionSink(dom.push)
		s.NDA.SetCompletionSink(d, dom.push)
	}
	return s, nil
}

// Close is a no-op kept for source compatibility: the simulator runs
// on the caller's goroutine and holds no resources to release.
func (s *System) Close() {}

// rdSum counts read dequeues across controllers: the only controller
// activity that can change a probe-stalled core's retry outcome (read-
// queue space frees on a read issue; writes are never refused). Row
// commands and write drains cannot unstall a core, so they do not move
// the epoch.
func (s *System) rdSum() uint64 {
	var e uint64
	for _, c := range s.MCs {
		e += uint64(c.ReadsIssued)
	}
	return e
}

// CPUOfDRAM implements cache.Clock.
func (s *System) CPUOfDRAM(d int64) int64 { return d * cpuCredit / cpuDivisor }

// Now returns the current DRAM cycle.
func (s *System) Now() int64 { return s.dramCycle }

// CPUNow returns the current CPU cycle.
func (s *System) CPUNow() int64 { return s.cpuCycle }

// Tick advances the system one DRAM cycle through the three ordered
// phases of the domain architecture (DESIGN.md §2.5):
//
//  1. Per-channel memory phase: each channel domain ticks its
//     controller and then its rank NDAs. Domains read and write only
//     channel-local state — completion callbacks that would cross a
//     domain boundary (cache fills, copy-read completions, launch
//     acknowledgements, NDA op completions) are deferred into the
//     domain's mailbox — so the phase's result is independent of
//     domain execution order.
//  2. Cross-channel commit: the mailboxes drain in canonical (channel,
//     FIFO) order, applying fills to the shared hierarchy (whose
//     writebacks enqueue into any channel's queues), completing
//     handles, and acknowledging launches; then the runtime's copy
//     pump runs.
//  3. CPU/cache front-end: the CPU-credit loop ticks cores against the
//     shared hierarchy, exactly as many sub-cycles as the clock ratio
//     owes this DRAM cycle.
//
// Run ticks every phase of every cycle — it is the oracle — and RunFast,
// which dispatches only due components, must produce bit-identical
// state.
func (s *System) Tick() {
	now := s.dramCycle
	for d := range s.doms {
		s.MCs[d].Tick(now)
		s.NDA.TickChannel(d, now)
	}
	s.commit()
	s.RT.Tick(now)
	s.credit += cpuCredit
	for s.credit >= cpuDivisor {
		s.credit -= cpuDivisor
		for _, core := range s.Cores {
			core.Tick(s.cpuCycle)
		}
		s.cpuCycle++
	}
	s.dramCycle++
}

// commit drains every domain mailbox in canonical (channel, FIFO)
// order: the cross-channel phase of the cycle. Deferred callbacks may
// enqueue into any controller (cache writebacks, copy writes) and
// mutate shared front-end state (hierarchy fills, runtime handles,
// launch acknowledgements into the domain's own engine); they run here,
// after the memory-phase barrier, so their effects land identically
// regardless of how the memory phase was scheduled. Callbacks never
// produce new mailbox entries (only a controller or NDA tick does), but
// the index loop tolerates growth defensively.
func (s *System) commit() {
	if s.Cfg.CheckInvariants {
		s.commitChecked()
		return
	}
	for d := range s.doms {
		dom := &s.doms[d]
		for i := 0; i < len(dom.outbox); i++ {
			ev := &dom.outbox[i]
			ev.fn(ev.at)
			ev.fn = nil // drop the closure reference for GC
		}
		dom.outbox = dom.outbox[:0]
	}
}

// Run advances n DRAM cycles one tick at a time (the reference path;
// RunFast must produce bit-identical state).
func (s *System) Run(n int64) {
	for i := int64(0); i < n; i++ {
		s.Tick()
	}
}

// dramOfCPU returns the DRAM cycle whose Tick executes CPU cycle w —
// the inverse of the credit arithmetic in Tick and skipIdle. For
// w <= CPUNow() it returns the current DRAM cycle.
func (s *System) dramOfCPU(w int64) int64 {
	if w <= s.cpuCycle {
		return s.dramCycle
	}
	// After k DRAM ticks, (credit + k*cpuCredit) / cpuDivisor CPU ticks
	// have run; the smallest k covering w is the ceiling below.
	need := cpuDivisor*(w-s.cpuCycle+1) - int64(s.credit)
	k := (need + cpuCredit - 1) / cpuCredit
	if k < 1 {
		k = 1
	}
	return s.dramCycle + k - 1
}

// NextEvent returns the earliest DRAM cycle >= Now() at which any
// component can change state. Every cycle in [Now(), NextEvent()) is
// provably idle: executing Tick there would neither issue a command nor
// mutate any observable counter (blocked cores' cycle counters are
// reproduced arithmetically by skipIdle), so the clock may jump over
// the window. Blocked cores contribute their exact wake cycle; a core
// blocked on an outstanding miss or a hierarchy Stall is woken by the
// controller event that resolves it, which the controller bounds
// report. It delegates to the cache-maintained survey StepFast uses —
// one implementation, so the two cannot drift; touching the wake
// caches is safe from any caller (they revalidate by version), and the
// stashed NDA/runtime bounds are re-derived by StepFast's own survey
// before any tick consumes them.
func (s *System) NextEvent() int64 { return s.nextEventFast() }

// mcNext returns controller i's cached next-event bound, recomputing it
// only when a version it was derived from moved (the controller's own,
// or its channel's DRAM command counter) or the controller was ticked
// since. An unexpired cached bound is served as-is and an expired one
// clamps to now (the controller is due) — both without touching the
// controller, so the FR-FCFS horizon sweep runs once per blocked
// window, not once per cycle.
func (s *System) mcNext(i int, now int64) int64 {
	c := s.MCs[i]
	if !s.mcStale[i] && s.mcWake[i] <= now {
		return now // due regardless of newer mutations; the tick refreshes
	}
	if s.mcStale[i] || s.mcVer[i] != c.Ver() || s.mcMemVer[i] != s.Mem.ChVer(c.Channel()) {
		s.mcWake[i] = c.NextEvent(now)
		s.mcVer[i] = c.Ver()
		s.mcMemVer[i] = s.Mem.ChVer(c.Channel())
		s.mcStale[i] = false
	}
	if s.mcWake[i] < now {
		return now
	}
	return s.mcWake[i]
}

// nextEventFast is NextEvent over the incrementally maintained wake
// schedule: identical values, but controller bounds come from the
// per-controller cache. The NDA and runtime bounds it derives are
// stashed (stepNDAWake/stepRTWake) for the tick that follows, valid
// because nothing mutates between the survey and the tick; a survey
// that early-outs on an active core stashes the not-surveyed sentinel
// instead.
func (s *System) nextEventFast() int64 {
	now := s.dramCycle
	for d := range s.stepNDAWake {
		s.stepNDAWake[d] = notSurveyed
	}
	s.stepRTWake = notSurveyed
	next := dram.Never
	for _, core := range s.Cores {
		w := core.NextEvent(s.cpuCycle)
		if w <= s.cpuCycle {
			return now
		}
		if w < dram.Never {
			if d := s.dramOfCPU(w); d < next {
				next = d
			}
		}
	}
	for i := range s.MCs {
		if t := s.mcNext(i, now); t < next {
			next = t
		}
	}
	for d := range s.doms {
		w := s.NDA.ChannelNextEvent(d, now)
		s.stepNDAWake[d] = w
		if w < next {
			next = w
		}
	}
	s.stepRTWake = s.RT.NextEvent(now)
	if s.stepRTWake < next {
		next = s.stepRTWake
	}
	if next < now {
		next = now
	}
	return next
}

// skipIdle advances the clocks over k provably-idle DRAM cycles without
// ticking, reproducing Tick's CPU-credit arithmetic exactly. Every core
// is blocked across the window (an active core pins NextEvent to now),
// so their cycle counters advance by the skipped CPU tick count —
// exactly what executing the idle ticks would have done.
func (s *System) skipIdle(k int64) {
	s.dramCycle += k
	total := int64(s.credit) + k*cpuCredit
	dcpu := total / cpuDivisor
	s.cpuCycle += dcpu
	s.credit = int(total % cpuDivisor)
	if dcpu > 0 {
		for _, core := range s.Cores {
			core.SkipCycles(dcpu)
		}
	}
}

// domainTick advances one channel domain by one DRAM cycle, dispatching
// only due components off the survey's cached bounds. It touches only
// domain-local state — the domain's controller, its channel's DRAM
// state, its rank NDAs, and the domain's own slots of the wake-cache
// arrays — so the result is independent of domain order; the skips are
// individually proven no-ops:
//
//   - A controller whose cached bound lies ahead cannot schedule
//     anything this cycle (the mc.NextEvent contract); only its
//     per-cycle issued-rank scratch must be reset for the NDA hooks.
//   - The channel's rank NDAs are skipped when their bound lies ahead —
//     unless this domain's controller issued a command to a rank with
//     NDA work: the rank's yield (and its StallsHost accounting)
//     happens on that very cycle, and pure sleep bounds rely on being
//     invalidated here (a host command moves the rank's horizons and
//     may close its row). The survey's stashed bound is reused only
//     when this domain's controller did not tick this cycle: a
//     controller tick can mutate the inputs an impure bound was derived
//     from (a dequeue flipping the oldest-read rank, say), and the
//     version revalidation must see the post-tick state. Cross-channel
//     coupling cannot occur mid-phase: every NDA bound reads only its
//     own channel's controller and timing state, and cross-channel
//     effects are mailboxed until commit.
func (s *System) domainTick(d int, now int64) {
	c := s.MCs[d]
	// Dispatch straight off the cached bound: due when it expired or
	// when any derivation input moved (ticking on a stale bound is
	// always exact — only skipping needs the proof).
	mcTicked := s.mcStale[d] || s.mcWake[d] <= now || s.mcVer[d] != c.Ver() ||
		s.mcMemVer[d] != s.Mem.ChVer(c.Channel())
	if mcTicked {
		c.Tick(now)
		s.mcStale[d] = true
	} else {
		c.ClearIssued()
	}
	ndaWake := s.stepNDAWake[d]
	if ndaWake == notSurveyed || mcTicked {
		ndaWake = s.NDA.ChannelNextEvent(d, now)
	}
	ndaDue := ndaWake <= now
	if !ndaDue {
		if r := c.HostIssuedRank(); r >= 0 && s.NDA.RankBusy(d, r) {
			ndaDue = true
		}
	}
	if ndaDue {
		s.NDA.TickChannel(d, now)
	}
}

// tickDue advances the system one DRAM cycle, dispatching only due
// components: the per-channel memory phase, the cross-channel commit,
// the runtime, then the CPU-credit loop with cores in index order. Phase
// order matches Tick, with skips that are individually proven no-ops
// (see domainTick for the memory phase; blocked-core skipping is argued
// at the dispatch loop below).
func (s *System) tickDue() {
	now := s.dramCycle
	for d := range s.doms {
		s.domainTick(d, now)
	}
	s.commit()
	rtWake := s.stepRTWake
	if rtWake == notSurveyed {
		rtWake = s.RT.NextEvent(now)
	}
	if rtWake <= now {
		s.RT.Tick(now)
	}
	s.credit += cpuCredit
	m := int64(0)
	for s.credit >= cpuDivisor {
		s.credit -= cpuDivisor
		m++
	}
	cEnd := s.cpuCycle + m
	// Core dispatch. Active cores and cores whose wake falls inside this
	// tick's CPU window run every sub-cycle, exactly as in Tick. A
	// probe-stalled core runs a sub-cycle only when the memory epoch —
	// hierarchy version plus read dequeues, everything its retry probe
	// reads — moved since the epoch recorded just before its previous
	// probe; otherwise the probe provably re-stalls (the Stall contract)
	// and the sub-cycle reduces to its cycle counter. The epoch is
	// re-read per core per sub-cycle, so a mutation by an
	// earlier-dispatched core re-probes later cores in the same order
	// the reference interleaving would. Other blocked cores cannot
	// change state before their wake and skip the window arithmetically.
	rd := s.rdSum()
	anyDue := false
	for i, core := range s.Cores {
		due := !core.Blocked() || core.WakeCycle() < cEnd
		s.coreDue[i] = due
		anyDue = anyDue || due
	}
	if !anyDue {
		bulk := true
		e := uint64(0)
		if s.Hier != nil {
			e = rd + s.Hier.Ver()
		}
		for i, core := range s.Cores {
			if core.ProbeStalled() && e != s.coreEpoch[i] {
				// Leave the core to the sub-cycle probe branch below,
				// which re-probes and records the observed epoch.
				bulk = false
				break
			}
		}
		if bulk {
			// No core runs this window at all: no mid-window mutation
			// is possible, every sub-cycle of every core is a proven
			// no-op, and the whole window reduces to arithmetic.
			for _, core := range s.Cores {
				core.SkipCycles(m)
			}
			s.cpuCycle = cEnd
			s.dramCycle++
			return
		}
	}
	for cc := s.cpuCycle; cc < cEnd; cc++ {
		for i, core := range s.Cores {
			if s.coreDue[i] {
				// Window-batched retirement: a due core first attempts
				// the batched cycle (bit-exact to Tick, and touching no
				// shared state — so it cannot perturb other cores'
				// probes or the epoch within this lockstep sub-cycle);
				// cycles whose issue group reaches a memory instruction
				// fall back to the full Tick. Run never batches — it is
				// the instruction-at-a-time oracle.
				if !core.BatchTick(cc) {
					core.Tick(cc)
				}
				continue
			}
			if core.ProbeStalled() {
				e := rd + s.Hier.Ver()
				if e != s.coreEpoch[i] {
					core.Tick(cc)
					if core.Blocked() && core.ProbeStalled() {
						s.coreEpoch[i] = e
					} else {
						// Progressed or changed kind: reference
						// semantics for the rest of the window.
						s.coreDue[i] = true
					}
					continue
				}
			}
			core.SkipCycles(1)
		}
	}
	s.cpuCycle = cEnd
	s.dramCycle++
}

// StepFast advances the system to its next event (clamped to limit) and
// executes one wake-dispatched tick there if the event lies before
// limit. It always makes progress; state after reaching any cycle is
// bit-identical to ticking every cycle.
//
// A non-nil return reports a robustness failure — a LivelockError from
// the Never-with-pending-work detector or the forward-progress watchdog
// (Config.WatchdogWindow), or a DeadlineError from the per-run
// deadlines (Config.MaxCycles, Config.MaxWallClock) — and is sticky:
// every subsequent call returns the same error. On the livelock path
// the clock still advances to limit (the wake bound was wrong, so the
// only exact continuation is the idle skip the bound claims), keeping
// error-ignoring drivers terminating with unchanged state; on the
// deadline path the clock does not advance past the deadline.
func (s *System) StepFast(limit int64) error {
	if s.robust.err != nil {
		return s.robust.err
	}
	s.NDA.SetFastForward(true)
	if s.Cfg.MaxCycles > 0 || s.Cfg.MaxWallClock > 0 || s.Cfg.Cancel != nil {
		if err := s.DeadlineExceeded(); err != nil {
			return err
		}
	}
	next := s.nextEventFast()
	if faults.Active() {
		next = faults.Adjust(faults.SimNextEvent, next)
	}
	if next >= dram.Never {
		if pend, what := s.workPending(); pend {
			s.fail(&LivelockError{
				Cycle:  s.dramCycle,
				Reason: "NextEvent reports Never while " + what,
				Dump:   s.DiagDump(),
			})
		}
	}
	if next > s.dramCycle {
		if next > limit {
			next = limit
		}
		s.skipIdle(next - s.dramCycle)
	}
	if s.dramCycle < limit {
		s.tickDue()
		if s.Cfg.WatchdogWindow > 0 {
			if err := s.watchdog(); err != nil {
				return err
			}
		}
	}
	return s.robust.err
}

// RunFast advances n DRAM cycles, jumping the clock over idle windows.
// It stops early and returns the failure when a watchdog or deadline
// fires (see StepFast).
func (s *System) RunFast(n int64) error {
	end := s.dramCycle + n
	for s.dramCycle < end {
		if err := s.StepFast(end); err != nil {
			return err
		}
	}
	return nil
}

// Await runs until every handle completes, up to maxCycles additional
// cycles, fast-forwarding over idle windows (handles and the copier can
// only change state on a tick, so checking after each executed tick is
// exact). It returns an error on timeout.
func (s *System) Await(maxCycles int64, hs ...*ndart.Handle) error {
	deadline := s.dramCycle + maxCycles
	for s.dramCycle < deadline {
		done := true
		for _, h := range hs {
			if !h.Done() {
				done = false
				break
			}
		}
		if done && !s.RT.CopierBusy() {
			return nil
		}
		if err := s.StepFast(deadline); err != nil {
			return err
		}
	}
	return fmt.Errorf("sim: Await timed out after %d cycles", maxCycles)
}

// BeginMeasurement snapshots counters at the end of warm-up.
func (s *System) BeginMeasurement() {
	s.measStartDRAM = s.dramCycle
	s.measStartCPU = s.cpuCycle
	for i, c := range s.Cores {
		s.retiredAtMeas[i] = c.Retired
	}
}

// HostIPC returns the aggregate (summed) host IPC since measurement
// began, matching the paper's per-figure host-performance metric.
func (s *System) HostIPC() float64 {
	cycles := s.cpuCycle - s.measStartCPU
	if cycles <= 0 {
		return 0
	}
	var retired int64
	for i, c := range s.Cores {
		retired += c.Retired - s.retiredAtMeas[i]
	}
	return float64(retired) / float64(cycles)
}

// MeasuredCycles returns DRAM cycles since measurement began.
func (s *System) MeasuredCycles() int64 { return s.dramCycle - s.measStartDRAM }

// Seconds converts DRAM cycles to seconds.
func Seconds(cycles int64) float64 { return float64(cycles) / DRAMHz }

// NDABandwidthGBs returns achieved NDA bandwidth in GB/s over the
// measurement window. Callers should snapshot engine bytes at
// BeginMeasurement time if NDAs ran during warm-up.
func (s *System) NDABandwidthGBs(bytes int64) float64 {
	sec := Seconds(s.MeasuredCycles())
	if sec <= 0 {
		return 0
	}
	return float64(bytes) / sec / 1e9
}

// NDAUtilization returns the fraction of host-idle rank bandwidth the
// NDAs captured during the measurement window: NDA data-bus cycles
// divided by cycles where ranks were not serving host traffic. busyHost
// and ndaBlocks are deltas over the window.
func (s *System) NDAUtilization(hostBusyCycles, ndaBlocks int64) float64 {
	ranks := int64(s.Cfg.Geom.Channels * s.Cfg.Geom.Ranks)
	idle := s.MeasuredCycles()*ranks - hostBusyCycles
	if idle <= 0 {
		return 0
	}
	used := ndaBlocks * int64(s.Cfg.Timing.BL)
	u := float64(used) / float64(idle)
	if u > 1 {
		u = 1
	}
	return u
}

// HostBusyCycles sums rank busy cycles across all controllers.
func (s *System) HostBusyCycles() int64 {
	var total int64
	for _, c := range s.MCs {
		for i := range c.IdleHists {
			total += c.IdleHists[i].BusyCycles()
		}
	}
	return total
}

// NDABlocks returns total NDA column accesses (read+write blocks).
func (s *System) NDABlocks() int64 {
	st := s.NDA.TotalStats()
	return st.BlocksRead + st.BlocksWritten
}
