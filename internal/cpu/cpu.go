// Package cpu models the host processor: simplified out-of-order cores
// with a reorder buffer, load/store queue, and configurable issue/retire
// width (Table II: 4 GHz, fetch/issue width 8, LSQ 64, ROB 224).
//
// Cores are trace-driven. The model captures what the paper's experiments
// depend on: memory-level parallelism bounded by ROB/LSQ/MSHR capacity,
// IPC sensitivity to memory latency and bandwidth, and bursty rank-level
// access patterns. It does not model x86 semantics.
package cpu

import (
	"chopim/internal/cache"
	"chopim/internal/dram"
)

// Instr is one trace instruction. Non-memory instructions execute in one
// cycle; memory instructions access the cache hierarchy. Serialize marks
// the head of a dependency chain: it cannot issue in the same cycle as
// earlier instructions, bounding compute ILP like real dependence chains
// do.
type Instr struct {
	Mem       bool
	Write     bool
	Serialize bool
	Addr      uint64
}

// TraceSource supplies an (endless) instruction stream.
type TraceSource interface {
	Next() Instr
}

// FunctionalSource is an optional TraceSource extension: NextFunctional
// draws the next instruction from the same distribution as Next through
// a cheaper RNG recipe, for sampled-mode fast-forward where millions of
// instructions retire purely to warm microarchitectural state. Sources
// without it fall back to Next.
type FunctionalSource interface {
	NextFunctional() Instr
}

// Config sizes one core.
type Config struct {
	Width   int // issue and retire width
	ROBSize int
	LSQSize int
}

// DefaultConfig returns the paper's core parameters.
func DefaultConfig() Config { return Config{Width: 8, ROBSize: 224, LSQSize: 64} }

// robEntry tracks one in-flight instruction.
type robEntry struct {
	doneAt  int64 // CPU cycle at which the instruction may retire
	pending bool  // completion arrives via callback
	isLoad  bool
	isStore bool
}

// Core is one out-of-order core.
type Core struct {
	ID    int
	cfg   Config
	trace TraceSource
	hier  *cache.Hierarchy

	rob      []robEntry
	doneFns  []func(cpuDone int64) // per-ROB-slot completion callbacks
	head, n  int
	stores   int // stores in flight (LSQ occupancy, with loads)
	loads    int
	stalled  Instr
	hasStall bool

	// Window-batched retirement state (DESIGN.md §2.6). look is a small
	// lookahead holding instructions BatchTick drew from the trace while
	// scanning for the next issue group's boundary; Tick consumes it
	// (through fetch) before drawing fresh instructions, so the trace
	// order every component observes is identical to the unbatched
	// core's. pend counts ROB entries issued by the last batched cycle
	// whose slots were never written: they are all plain one-cycle
	// instructions completing at pendAt, so consecutive batched cycles
	// retire them arithmetically (Retired/head bookkeeping only) and
	// materialize is invoked before any path that reads the slots.
	look   []Instr
	lookH  int // consume position
	lookN  int // fill position
	pend   int
	pendAt int64

	// Blocked-state tracking for the fast-forward machinery. After a
	// Tick that made zero progress (no retire, no issue) the core is
	// provably stuck until either its ROB head becomes retirable (wake,
	// a CPU cycle; Never while the head's miss is outstanding) or — when
	// probeStall is set — some other component mutates hierarchy or
	// controller state, changing the outcome of the stalled access's
	// retry probe. dirty is set by completion callbacks and forces
	// re-evaluation on the next executed cycle.
	blocked    bool
	probeStall bool
	wake       int64
	dirty      bool

	Retired int64
	Cycles  int64
}

// NewCore builds a core over the shared hierarchy. Completion callbacks
// are created once per ROB slot (each captures only its slot index), so
// issuing a memory instruction allocates nothing; a slot cannot be
// reused while its access is outstanding (a pending entry blocks retire).
func NewCore(id int, cfg Config, trace TraceSource, hier *cache.Hierarchy) *Core {
	c := &Core{ID: id, cfg: cfg, trace: trace, hier: hier, rob: make([]robEntry, cfg.ROBSize)}
	c.look = make([]Instr, cfg.Width+1)
	c.doneFns = make([]func(int64), cfg.ROBSize)
	for i := range c.doneFns {
		e := &c.rob[i]
		c.doneFns[i] = func(cpuDone int64) {
			e.pending = false
			e.doneAt = cpuDone
			c.dirty = true
		}
	}
	return c
}

// DoneFn returns the completion callback for one ROB slot, so restored
// MSHR waiters (which record core and slot indices) can be rewired to
// the same pooled closures issue uses.
func (c *Core) DoneFn(slot int) func(int64) { return c.doneFns[slot] }

// IPC returns retired instructions per CPU cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Retired) / float64(c.Cycles)
}

// ResetStats clears retirement counters (end of warm-up).
func (c *Core) ResetStats() { c.Retired, c.Cycles = 0, 0 }

// NextEvent returns the earliest CPU cycle >= now at which the core can
// change state, assuming no external state changes (no completion
// callbacks, no hierarchy or controller mutations) before then. An
// active core's next event is the current cycle. A blocked core cannot
// retire before its ROB head resolves and cannot issue before either
// retirement frees ROB/LSQ space or — for a probeStall — the memory
// system changes underneath it; under the static-externals assumption
// the bound is its head wake cycle. Callers that mutate external state
// (the sim package) must re-dispatch the core when they do: ticking a
// blocked core is always exact, only skipping needs this bound.
func (c *Core) NextEvent(now int64) int64 {
	if !c.blocked || c.dirty {
		return now
	}
	return c.wake
}

// Blocked reports whether the core provably cannot make progress until
// its wake cycle or an external state change (see NextEvent).
func (c *Core) Blocked() bool { return c.blocked && !c.dirty }

// ProbeStalled reports that the blocked core's stalled instruction got
// cache.Stall from the hierarchy: its retry outcome depends on MSHR and
// controller-queue state, so the core must run on every executed cycle
// (any component may have freed the resource it is waiting on).
func (c *Core) ProbeStalled() bool { return c.probeStall }

// WakeCycle returns the blocked core's self-known wake bound: the CPU
// cycle its ROB head becomes retirable, or Never while the head's miss
// is still outstanding (the completion callback will set dirty).
func (c *Core) WakeCycle() int64 { return c.wake }

// SkipCycles accounts k provably idle CPU cycles without executing
// them. Exact only for cycles where the core is Blocked with no
// external state change: such a tick increments Cycles, retires
// nothing, and either retries a side-effect-free probe or cannot issue
// at all — so bulk-adding the cycle count reproduces it bit-exactly.
func (c *Core) SkipCycles(k int64) { c.Cycles += k }

// RetireFunctional retires n instructions at functional fidelity for
// sampled-mode fast-forward (DESIGN.md §2.11). Instructions are drawn
// in exact trace order — through the batch lookahead first, so the
// post-jump stream resumes precisely where detailed execution left it —
// counted into Retired, and memory instructions are handed to warm
// (nil to drop) instead of entering the ROB/LSQ. Cycles do not advance
// here; the caller accounts the jump via SkipCycles. Everything
// in-flight is left frozen: ROB occupancy, outstanding misses (their
// fills complete during the next detailed window), and a parked
// stalled instruction, which retries when detailed execution resumes.
// Returns the number of memory instructions drawn, for warm-traffic
// accounting.
func (c *Core) RetireFunctional(n int64, warm func(addr uint64, write bool)) int64 {
	fs, _ := c.trace.(FunctionalSource)
	var mem int64
	for i := int64(0); i < n; i++ {
		var in Instr
		if c.lookH < c.lookN || fs == nil {
			in = c.fetch()
		} else {
			in = fs.NextFunctional()
		}
		if in.Mem {
			mem++
			if warm != nil {
				warm(in.Addr, in.Write)
			}
		}
	}
	c.Retired += n
	return mem
}

// fetch returns the next trace instruction, consuming the batch
// lookahead (instructions BatchTick already drew) before drawing fresh
// ones, so batched and unbatched execution observe one trace order.
func (c *Core) fetch() Instr {
	if c.lookH < c.lookN {
		in := c.look[c.lookH]
		c.lookH++
		if c.lookH == c.lookN {
			c.lookH, c.lookN = 0, 0
		}
		return in
	}
	return c.trace.Next()
}

// materialize writes the deferred ROB entries of the last batched cycle
// (see pend): plain one-cycle instructions completing at pendAt,
// occupying the newest pend slots of the ROB. It must run before
// anything reads ROB slots — Tick's retire does, so Tick materializes
// on entry; BatchTick materializes on every path that reads real
// entries or hands the cycle to Tick.
func (c *Core) materialize() {
	r := len(c.rob)
	i := c.head + c.n - c.pend
	if i >= r {
		i -= r
	}
	for k := 0; k < c.pend; k++ {
		c.rob[i] = robEntry{doneAt: c.pendAt}
		i++
		if i == r {
			i = 0
		}
	}
	c.pend = 0
}

// BatchTick attempts to execute one CPU cycle in batched mode and
// reports whether it did; on false the caller must run a normal
// Tick(now), which picks up the cycle exactly where the scan left it
// (drawn instructions wait in the lookahead). A batched cycle is
// bit-exact to Tick but touches nothing outside the core — no
// hierarchy access, no completion callbacks — which is also what makes
// it safe to interleave freely with other cores inside one lockstep
// CPU sub-cycle. The cycle batches when:
//
//   - the ROB holds nothing but the previous batched group (pend == n;
//     any real entry — a load on a miss, hit latencies draining —
//     rejects in one compare, BEFORE any scan work, so memory-bound
//     phases pay essentially nothing for the attempt);
//   - no completion callback arrived (dirty) and no stalled memory
//     instruction is waiting to retry;
//   - the whole upcoming issue group — bounded by issue width and by
//     the next Serialize instruction, which reference issue() also
//     stops at — is free of memory instructions;
//   - the group fits the ROB outright (the ROB-wrap bound; reference
//     issue would otherwise split the group across cycles).
//
// The group is then retired/issued arithmetically: Retired, head, and
// Cycles advance (the SkipCycles-style bookkeeping), the slot writes
// are deferred (materialize), and consecutive compute-bound cycles
// never touch ROB memory at all.
func (c *Core) BatchTick(now int64) bool {
	if c.dirty || c.n != c.pend || (c.hasStall && c.stalled.Mem) || len(c.rob) < c.cfg.Width {
		c.materialize()
		return false
	}
	// Compact the lookahead so the scan's appends cannot outgrow it
	// (at most Width+1 instructions are ever buffered ahead).
	if c.lookH > 0 {
		c.lookN = copy(c.look, c.look[c.lookH:c.lookN])
		c.lookH = 0
	}
	// Scan (and extend) the lookahead to this cycle's issue group,
	// before mutating any state: a memory instruction anywhere in the
	// group hands the whole cycle to Tick, which must see the same
	// pre-cycle core.
	g := 0
	if c.hasStall {
		g = 1 // the stalled (non-memory) instruction issues at position 0
	}
	idx := c.lookH
	for g < c.cfg.Width {
		var in Instr
		if idx < c.lookN {
			in = c.look[idx]
		} else {
			in = c.trace.Next()
			c.look[c.lookN] = in
			c.lookN++
		}
		if in.Mem {
			c.materialize()
			return false
		}
		if in.Serialize && g > 0 {
			break // dependency-chain head: first position of the next group
		}
		idx++
		g++
	}
	if c.n+g > len(c.rob) {
		c.materialize()
		return false
	}
	// Retire the previous batched group arithmetically: pend plain
	// one-cycle entries, all completing at pendAt.
	if c.pend > 0 {
		if c.pendAt > now {
			c.materialize()
			return false
		}
		c.Retired += int64(c.pend)
		c.head += c.pend
		if c.head >= len(c.rob) {
			c.head -= len(c.rob)
		}
		c.n = 0
		c.pend = 0
	}
	// Issue the group: g one-cycle instructions, slots deferred.
	c.hasStall = false
	c.lookH = idx
	if c.lookH == c.lookN {
		c.lookH, c.lookN = 0, 0
	}
	c.n += g
	c.pend = g
	c.pendAt = now + 1
	c.Cycles++
	c.blocked, c.dirty, c.probeStall = false, false, false
	return true
}

// Tick advances the core by one CPU cycle.
func (c *Core) Tick(now int64) {
	if c.pend > 0 {
		c.materialize()
	}
	c.Cycles++
	r0 := c.Retired
	c.retire(now)
	if c.issue(now) || c.Retired != r0 {
		c.blocked, c.dirty = false, false
		return
	}
	// Zero progress: record why, and the earliest self-known wake.
	c.blocked = true
	c.dirty = false
	c.wake = dram.Never
	if c.n > 0 && !c.rob[c.head].pending {
		c.wake = c.rob[c.head].doneAt
	}
}

func (c *Core) retire(now int64) {
	for retired := 0; retired < c.cfg.Width && c.n > 0; retired++ {
		e := &c.rob[c.head]
		if e.pending || e.doneAt > now {
			return
		}
		if e.isLoad {
			c.loads--
		}
		if e.isStore {
			c.stores--
		}
		c.head++
		if c.head == len(c.rob) {
			c.head = 0
		}
		c.n--
		c.Retired++
	}
}

// issue runs the cycle's issue loop and reports whether anything issued.
// An instruction that cannot issue waits in stalled/hasStall for the
// next cycle.
func (c *Core) issue(now int64) bool {
	c.probeStall = false
	issued := 0
	for ; issued < c.cfg.Width && c.n < len(c.rob); issued++ {
		var in Instr
		if c.hasStall {
			in = c.stalled
		} else {
			in = c.fetch()
		}
		if in.Serialize && issued > 0 {
			// Dependency chain head: wait for the next cycle.
			c.stalled = in
			c.hasStall = true
			return true
		}
		if !c.tryIssue(in, now) {
			c.stalled = in
			c.hasStall = true
			return issued > 0
		}
		c.hasStall = false
	}
	return issued > 0
}

// tryIssue places one instruction into the ROB, accessing memory if
// needed. It returns false if a structural hazard requires a retry.
func (c *Core) tryIssue(in Instr, now int64) bool {
	slot := c.head + c.n
	if slot >= len(c.rob) {
		slot -= len(c.rob)
	}
	e := &c.rob[slot]
	*e = robEntry{}

	if !in.Mem {
		e.doneAt = now + 1
		c.n++
		return true
	}
	if c.loads+c.stores >= c.cfg.LSQSize {
		return false
	}
	res, lat := c.hier.Access(c.ID, in.Addr, in.Write, slot, c.doneFns[slot])
	switch res {
	case cache.Stall:
		c.probeStall = true
		return false
	case cache.Hit:
		e.doneAt = now + lat
	case cache.Queued:
		e.pending = true
	}
	if in.Write {
		e.isStore = true
		c.stores++
	} else {
		e.isLoad = true
		c.loads++
	}
	c.n++
	return true
}
