package cache

// cacheState is a deep copy of one level's mutable state. The MRU
// filter is not captured: it is a pure acceleration of the way scan
// (the filtered path performs identical state updates), so restore
// simply invalidates it.
type cacheState struct {
	lines  []line
	clock  uint64
	hits   int64
	misses int64
}

func (c *Cache) snapshot() cacheState {
	return cacheState{
		lines: append([]line(nil), c.lines...),
		clock: c.clock, hits: c.Hits, misses: c.Misses,
	}
}

func (c *Cache) restore(st cacheState) {
	if len(st.lines) != len(c.lines) {
		panic("cache: restore onto a cache with different geometry")
	}
	copy(c.lines, st.lines)
	c.clock, c.Hits, c.Misses = st.clock, st.hits, st.misses
	c.lastLine = nil // MRU filter revalidates on the next lookup
}

// waiterState identifies one MSHR waiter by (core, ROB slot); restore
// rewires it to the core's pooled completion closure.
type waiterState struct {
	core, slot int
	hasDone    bool
}

// mshrState is one in-flight LLC miss.
type mshrState struct {
	block    uint64
	core     int
	dirty    bool
	prefetch bool
	waiters  []waiterState
}

// HierarchyState is an opaque deep copy of the hierarchy's mutable
// state: every cache level's contents, the in-flight MSHR set with its
// waiters, per-core L1 MSHR occupancy, prefetch stride detectors, and
// counters. Fill callbacks are not serialized — restored MSHRs get
// fresh pool nodes whose closures are equivalent, and controller-queue
// restore reattaches reads to them through FillFor.
type HierarchyState struct {
	l1, l2     []cacheState
	llc        cacheState
	mshrs      []mshrState
	l1Pending  []int
	prefetch   []strideState
	prefetches int64
	demand     int64
	ver        uint64
}

// Snapshot captures the hierarchy's full mutable state.
func (h *Hierarchy) Snapshot() *HierarchyState {
	st := &HierarchyState{
		llc:        h.llc.snapshot(),
		l1Pending:  append([]int(nil), h.l1Pending...),
		prefetch:   append([]strideState(nil), h.prefetch...),
		prefetches: h.Prefetches,
		demand:     h.Demand,
		ver:        h.ver,
	}
	for i := range h.l1 {
		st.l1 = append(st.l1, h.l1[i].snapshot())
		st.l2 = append(st.l2, h.l2[i].snapshot())
	}
	for i := range h.pending.vals {
		m := h.pending.vals[i]
		if m == nil {
			continue
		}
		ms := mshrState{block: m.block, core: m.core, dirty: m.dirty, prefetch: m.prefetch}
		for _, w := range m.waiters {
			ms.waiters = append(ms.waiters, waiterState{core: w.core, slot: w.slot, hasDone: w.done != nil})
		}
		st.mshrs = append(st.mshrs, ms)
	}
	return st
}

// Restore overwrites the hierarchy's state with the snapshot. The
// hierarchy must have been built with the same config. done resolves a
// waiter's (core, ROB slot) back to its completion closure (the sim
// package passes the cores' DoneFn accessors).
func (h *Hierarchy) Restore(st *HierarchyState, done func(core, slot int) func(int64)) {
	if len(st.l1) != len(h.l1) {
		panic("cache: restore onto a hierarchy with different core count")
	}
	for i := range h.l1 {
		h.l1[i].restore(st.l1[i])
		h.l2[i].restore(st.l2[i])
	}
	h.llc.restore(st.llc)
	// Drop any live MSHRs back to the pool and rebuild the saved set.
	for i := range h.pending.vals {
		if m := h.pending.vals[i]; m != nil {
			h.freeMSHR(m)
			h.pending.keys[i], h.pending.vals[i] = 0, nil
		}
	}
	h.pending.n = 0
	for _, ms := range st.mshrs {
		m := h.allocMSHR(ms.core, ms.block, ms.dirty, ms.prefetch)
		for _, w := range ms.waiters {
			var fn func(int64)
			if w.hasDone && done != nil {
				fn = done(w.core, w.slot)
			}
			m.waiters = append(m.waiters, waiter{core: w.core, slot: w.slot, done: fn})
		}
		h.pending.put(ms.block, m)
	}
	copy(h.l1Pending, st.l1Pending)
	copy(h.prefetch, st.prefetch)
	h.Prefetches, h.Demand, h.ver = st.prefetches, st.demand, st.ver
}

// FillFor returns the fill callback of the in-flight miss covering
// addr. Controller-queue restore uses it to reattach restored read
// requests to their MSHRs (every host read in a controller queue
// belongs to exactly one pending LLC miss).
func (h *Hierarchy) FillFor(addr uint64) func(dramDone int64) {
	m := h.pending.get(h.block(addr))
	if m == nil {
		panic("cache: FillFor with no pending miss for the block")
	}
	return m.fill
}
