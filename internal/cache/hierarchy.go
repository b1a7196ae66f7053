package cache

import "chopim/internal/dram"

// Result classifies one access attempt against the hierarchy.
type Result int

const (
	// Hit: the access completes at the latency returned by Access.
	Hit Result = iota
	// Queued: the access missed to memory; the done callback fires later.
	Queued
	// Stall: no MSHR or controller queue space; the caller must retry.
	Stall
)

// Backend is the memory system below the LLC. It operates in DRAM cycles.
type Backend interface {
	// EnqueueRead submits a block read; done is called with the DRAM
	// cycle at which data is available. Returns false if full.
	EnqueueRead(addr uint64, done func(dramDone int64)) bool
	// EnqueueWrite submits a block writeback. Returns false if full.
	EnqueueWrite(addr uint64) bool
}

// Clock converts between the DRAM and CPU clock domains.
type Clock interface {
	CPUOfDRAM(dram int64) int64
}

// HierarchyConfig configures the full cache hierarchy.
type HierarchyConfig struct {
	L1, L2, LLC    Config
	Cores          int
	PrefetchDegree int // LLC stride prefetcher lookahead (0 disables)
}

// DefaultHierarchyConfig returns the paper's Table II cache setup.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores:          cores,
		L1:             Config{SizeBytes: 32 << 10, Ways: 8, BlockBytes: dram.BlockBytes, LatencyCPU: 4, MSHRs: 12},
		L2:             Config{SizeBytes: 256 << 10, Ways: 4, BlockBytes: dram.BlockBytes, LatencyCPU: 12, MSHRs: 12},
		LLC:            Config{SizeBytes: 8 << 20, Ways: 16, BlockBytes: dram.BlockBytes, LatencyCPU: 38, MSHRs: 48},
		PrefetchDegree: 2,
	}
}

// mshr tracks one outstanding LLC miss and its waiting cores. Nodes are
// pooled on a free list: each carries a fill callback created once (it
// captures only the node), so the steady-state miss path allocates
// nothing.
type mshr struct {
	waiters  []waiter
	core     int
	dirty    bool // a store merged into the in-flight miss
	block    uint64
	prefetch bool // fills the LLC only
	fill     func(dramDone int64)
	next     *mshr // free-list link
}

type waiter struct {
	core int
	slot int // the waiting core's ROB slot (snapshot identity for done)
	done func(cpuDone int64)
}

// strideState is one core's prefetch stream detector.
type strideState struct {
	lastBlock  uint64
	stride     int64
	confidence int
}

// Hierarchy composes per-core L1/L2 caches and the shared LLC.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	llc *Cache

	backend Backend
	clock   Clock

	pending    *pendingTable // LLC MSHRs keyed by block (fixed-capacity)
	mshrFree   *mshr         // pooled MSHR nodes
	maxWaiters int           // waiter-slice capacity bound (see NewHierarchy)
	l1Pending  []int         // outstanding misses per core (L1 MSHR limit)
	prefetch   []strideState
	Prefetches int64
	Demand     int64

	// ver counts mutations that can change a blocked retry's outcome:
	// fills (cache content, MSHR and L1-pending occupancy) and every
	// Access that reached the shared LLC/MSHR layer (insertions, MSHR
	// allocation, merges). Together with the controllers' queue-space
	// versions it forms the memory epoch a probe-stalled core's retry
	// outcome depends on: while the epoch is unchanged, the retry
	// provably stalls again (the Stall contract on Access) and may be
	// skipped. Private hits deliberately do NOT advance it — neither
	// pure L1 hits nor L2 hits whose fill cascade stays inside the
	// hitting core's private L1/L2. The L1 argument extends to L2
	// unchanged: such a hit mutates only the hitting core's private
	// caches (LRU order, dirty bits, an L1 castout absorbed by its own
	// L2), none of which a retry probe reads — the probing core is
	// blocked, so the private state a hit touched belongs to a
	// different core, and a stalled access's outcome is decided by LLC
	// content and MSHR/queue occupancy, which only shared-path accesses
	// and fills move. An L2 hit whose cascade spills a dirty L2 victim
	// into the LLC DOES advance ver (it changed LLC content and may
	// have queued a writeback).
	ver uint64
}

// Ver returns the hierarchy mutation counter (see ver).
func (h *Hierarchy) Ver() uint64 { return h.ver }

// allocMSHR pops a pooled MSHR node (or grows the pool).
func (h *Hierarchy) allocMSHR(core int, block uint64, dirty, prefetch bool) *mshr {
	m := h.mshrFree
	if m != nil {
		h.mshrFree = m.next
		m.next = nil
	} else {
		m = h.newMSHR()
	}
	m.core, m.block, m.dirty, m.prefetch = core, block, dirty, prefetch
	return m
}

// newMSHR builds one pool node with its fill callback and a waiter
// slice pre-sized to the config bound, so the node never allocates
// again: waiters per MSHR are capped by the per-core L1 MSHR budgets
// (every waiter holds one l1Pending slot).
func (h *Hierarchy) newMSHR() *mshr {
	m := &mshr{waiters: make([]waiter, 0, h.maxWaiters)}
	m.fill = func(dramDone int64) { h.onFill(m, dramDone) }
	return m
}

// freeMSHR returns a node to the pool, dropping waiter references.
func (h *Hierarchy) freeMSHR(m *mshr) {
	for i := range m.waiters {
		m.waiters[i] = waiter{}
	}
	m.waiters = m.waiters[:0]
	m.next = h.mshrFree
	h.mshrFree = m
}

// NewHierarchy builds the hierarchy over the given backend. The MSHR
// machinery is pre-sized to its config bounds — the pending map to the
// LLC MSHR count its occupancy can never exceed, the node pool to that
// same count, and each node's waiter slice to the per-core L1 MSHR
// budgets — so the miss path performs no late growth allocations even
// under slow-warming random footprints (the stall-heavy zero-allocs
// contract).
func NewHierarchy(cfg HierarchyConfig, backend Backend, clock Clock) *Hierarchy {
	h := &Hierarchy{
		cfg:        cfg,
		llc:        New(cfg.LLC),
		backend:    backend,
		clock:      clock,
		pending:    newPendingTable(cfg.LLC.MSHRs),
		maxWaiters: cfg.Cores * cfg.L1.MSHRs,
		l1Pending:  make([]int, cfg.Cores),
		prefetch:   make([]strideState, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, New(cfg.L1))
		h.l2 = append(h.l2, New(cfg.L2))
	}
	for i := 0; i < cfg.LLC.MSHRs; i++ {
		m := h.newMSHR()
		m.next = h.mshrFree
		h.mshrFree = m
	}
	return h
}

// LLC returns the shared last-level cache (for tests and statistics).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// block converts a byte address to a block index.
func (h *Hierarchy) block(addr uint64) uint64 { return addr / uint64(h.cfg.L1.BlockBytes) }

// Access issues one load or store from core. For Hit, the returned
// latency is the CPU cycles until completion. For Queued, done is invoked
// with the completing CPU cycle. Stores that miss allocate (fetch) the
// line but report Hit: the store buffer hides their latency from the
// core, while the fetch still generates memory traffic.
//
// Stall contract (the core-skip safety argument, DESIGN.md §2.4): an
// Access that returns Stall leaves the hierarchy bit-identical to the
// state it found — the three miss lookups it performed are rolled back
// (stall below), the MSHR pool round-trips through its LIFO free list,
// and no queue, counter, or replacement state changes. A blocked core
// therefore re-probes with identical outcome until some other component
// mutates hierarchy or controller state, so skipping its retry cycles
// is exact.
func (h *Hierarchy) Access(core int, addr uint64, write bool, slot int, done func(cpuDone int64)) (Result, int64) {
	b := h.block(addr)
	l1, l2 := h.l1[core], h.l2[core]

	if l1.Lookup(b, write) {
		return Hit, h.cfg.L1.LatencyCPU // private-L1 hit: epoch unmoved (see ver)
	}
	if l2.Lookup(b, write) {
		if h.fillFromL2(core, b, write) {
			h.ver++ // the cascade spilled into the shared LLC
		}
		return Hit, h.cfg.L2.LatencyCPU
	}
	h.ver++ // rolled back on Stall; every deeper outcome mutates shared state
	if h.llc.Lookup(b, write) {
		h.fill(core, b, write, l1, l2)
		return Hit, h.cfg.LLC.LatencyCPU
	}

	// LLC miss. Merge into an existing MSHR if one covers the block.
	if m := h.pending.get(b); m != nil {
		if write {
			// The eventual fill will be marked dirty by this store.
			m.dirty = true
			return Hit, h.cfg.LLC.LatencyCPU
		}
		if h.l1Pending[core] >= h.cfg.L1.MSHRs {
			return h.stall(core)
		}
		h.l1Pending[core]++
		m.waiters = append(m.waiters, waiter{core: core, slot: slot, done: done})
		return Queued, 0
	}

	if h.pending.len() >= h.cfg.LLC.MSHRs {
		return h.stall(core)
	}
	if !write && h.l1Pending[core] >= h.cfg.L1.MSHRs {
		return h.stall(core)
	}

	m := h.allocMSHR(core, b, write, false)
	if !write {
		h.l1Pending[core]++
		m.waiters = append(m.waiters, waiter{core: core, slot: slot, done: done})
	}
	if !h.backend.EnqueueRead(addr, m.fill) {
		if !write {
			h.l1Pending[core]--
		}
		h.freeMSHR(m)
		return h.stall(core)
	}
	h.pending.put(b, m)
	h.Demand++
	h.maybePrefetch(core, addr)
	if write {
		return Hit, h.cfg.L1.LatencyCPU
	}
	return Queued, 0
}

// stall rolls back the three miss lookups a stalling Access performed
// (every Stall path misses L1, L2, and the LLC first) and reports Stall.
// See the Stall contract on Access.
func (h *Hierarchy) stall(core int) (Result, int64) {
	h.ver--
	h.l1[core].unMiss()
	h.l2[core].unMiss()
	h.llc.unMiss()
	return Stall, 0
}

// fillFromL2 propagates an L2 hit on b into core's L1, cascading the
// castouts (exactly fill(core, b, dirty, l1, nil)), and reports whether
// the cascade reached the shared LLC — the ver classification Access
// keys on.
func (h *Hierarchy) fillFromL2(core int, b uint64, dirty bool) bool {
	if v, vd := h.l1[core].Insert(b, dirty); vd {
		if ev, evd := h.l2[core].Insert(v, true); evd {
			if ev2, evd2 := h.llc.Insert(ev, true); evd2 {
				h.writeback(ev2)
			}
			return true
		}
	}
	return false
}

// onFill handles data arriving from memory for the MSHR's block at DRAM
// cycle dramDone. Demand fills propagate through every level; prefetch
// fills install in the LLC only. Waiters complete at the equivalent CPU
// cycle plus the LLC-to-core fill latency, releasing their L1 MSHR.
func (h *Hierarchy) onFill(m *mshr, dramDone int64) {
	h.ver++
	h.pending.del(m.block)
	if m.prefetch {
		if v, vd := h.llc.Insert(m.block, m.dirty); vd {
			h.writeback(v)
		}
	} else {
		h.insertAll(m.core, m.block, m.dirty)
	}
	cpuDone := h.clock.CPUOfDRAM(dramDone) + h.cfg.LLC.LatencyCPU
	for _, w := range m.waiters {
		h.l1Pending[w.core]--
		if w.done != nil {
			w.done(cpuDone)
		}
	}
	h.freeMSHR(m)
}

// fill propagates a block into upper levels after a lower-level hit.
func (h *Hierarchy) fill(core int, b uint64, dirty bool, l1, l2 *Cache) {
	if l2 != nil {
		if v, vd := l2.Insert(b, false); vd {
			if ev, evd := h.llc.Insert(v, true); evd {
				h.writeback(ev)
			}
		}
	}
	if v, vd := l1.Insert(b, dirty); vd {
		if ev, evd := h.l2[core].Insert(v, true); evd {
			if ev2, evd2 := h.llc.Insert(ev, true); evd2 {
				h.writeback(ev2)
			}
		}
	}
}

// insertAll fills a block into LLC, L2, and L1, cascading evictions.
func (h *Hierarchy) insertAll(core int, b uint64, dirty bool) {
	if v, vd := h.llc.Insert(b, dirty); vd {
		h.writeback(v)
	}
	if v, vd := h.l2[core].Insert(b, false); vd {
		if ev, evd := h.llc.Insert(v, true); evd {
			h.writeback(ev)
		}
	}
	if v, vd := h.l1[core].Insert(b, dirty); vd {
		if ev, evd := h.l2[core].Insert(v, true); evd {
			if ev2, evd2 := h.llc.Insert(ev, true); evd2 {
				h.writeback(ev2)
			}
		}
	}
}

// writeback sends a dirty LLC victim to memory. Write-queue overflow is
// absorbed by the backend (modeling an unbounded eviction buffer that the
// controller drains under its watermark policy).
func (h *Hierarchy) writeback(block uint64) {
	h.backend.EnqueueWrite(block * uint64(h.cfg.L1.BlockBytes))
}

// WarmAccess performs one access at functional fidelity for sampled-
// mode fast-forward (DESIGN.md §2.11). It maintains the long-lived
// shared state — LLC tags, LRU order, dirty bits — instantly: no MSHR
// is allocated, no latency accrues, and nothing reaches the backend.
// Dirty victims the exact path would have written back are handed to
// sink instead (nil drops them), so the caller can warm DRAM row-buffer
// state without bloating controller write queues mid-jump. The private
// L1/L2 are deliberately NOT warmed (the SMARTS compromise): their
// residency is hundreds of lines, so each window's detailed warm-up
// re-trains them from the warm LLC in well under the warm-up budget,
// and skipping the per-access three-level lookup/fill cascade is what
// makes fast-forward cheap enough to pay off. Blocks with in-flight
// MSHRs may be warm-filled early; the eventual onFill re-insert is an
// in-place LRU refresh, so the frozen miss completes harmlessly in the
// next detailed window. The stride prefetcher is deliberately not
// trained (its state is timing-coupled) and ver is not advanced per
// access — callers invalidate the probe epoch once per jump via
// AdvanceVer. Reports whether the access hit in the LLC (fidelity
// statistics; a warm "miss" is what touches DRAM row state).
func (h *Hierarchy) WarmAccess(core int, addr uint64, write bool, sink func(addr uint64)) bool {
	b := h.block(addr)
	if h.llc.Lookup(b, write) {
		return true
	}
	if v, vd := h.llc.Insert(b, write); vd && sink != nil {
		sink(v * uint64(h.cfg.L1.BlockBytes))
	}
	return false
}

// AdvanceVer advances the mutation counter. The fast-forward jump calls
// it once after warming: warm accesses move cache content without
// touching ver (no core is probing mid-jump), so the epoch a
// probe-stalled core stashed before the jump must be invalidated before
// detailed execution resumes.
func (h *Hierarchy) AdvanceVer() { h.ver++ }

// maybePrefetch trains the per-core stride detector on LLC demand misses
// and issues prefetches when confident.
func (h *Hierarchy) maybePrefetch(core int, addr uint64) {
	if h.cfg.PrefetchDegree == 0 {
		return
	}
	b := h.block(addr)
	st := &h.prefetch[core]
	stride := int64(b) - int64(st.lastBlock)
	if stride == st.stride && stride != 0 {
		if st.confidence < 4 {
			st.confidence++
		}
	} else {
		st.confidence = 0
		st.stride = stride
	}
	st.lastBlock = b
	if st.confidence < 2 {
		return
	}
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		pb := int64(b) + st.stride*int64(d)
		if pb < 0 {
			continue
		}
		pblock := uint64(pb)
		if h.llc.Contains(pblock) {
			continue
		}
		if h.pending.get(pblock) != nil {
			continue
		}
		if h.pending.len() >= h.cfg.LLC.MSHRs {
			return
		}
		m := h.allocMSHR(core, pblock, false, true)
		paddr := pblock * uint64(h.cfg.L1.BlockBytes)
		if !h.backend.EnqueueRead(paddr, m.fill) {
			h.freeMSHR(m)
			return
		}
		h.pending.put(pblock, m)
		h.Prefetches++
	}
}
