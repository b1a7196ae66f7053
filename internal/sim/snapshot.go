package sim

import (
	"errors"

	"chopim/internal/cache"
	"chopim/internal/cpu"
	"chopim/internal/dram"
	"chopim/internal/mc"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/osmem"
	"chopim/internal/workload"
)

// Checkpoint is a deep copy of a System's full simulation state at a
// quiescent point (between ticks): DRAM bank/timing state, the OS
// allocator, every core's ROB and trace cursor, the cache hierarchy
// with its in-flight misses, the NDA engine's rank FSMs with their
// in-flight ops, the runtime's object graph and pending launch packets,
// every controller's queues, and the clock/measurement scalars.
//
// A checkpoint shares nothing mutable with the system it was taken
// from: it can outlive it, and it can seed any number of forks —
// RestoreSystem builds an independent system per call, so one warmed-up
// checkpoint fans out across figure points. Scheduling caches are not
// captured; restore marks them stale and they re-derive, which is
// behavior-identical because skips are individually proven no-ops.
type Checkpoint struct {
	dram  *dram.MemState
	os    *osmem.OSState
	mcs   []*mc.ControllerState
	hier  *cache.HierarchyState // nil when the system has no host cores
	cores []*cpu.CoreState
	gens  []*workload.GenState
	eng   *nda.EngineState
	rt    *ndart.RuntimeState

	dramCycle     int64
	cpuCycle      int64
	credit        int
	measStartDRAM int64
	measStartCPU  int64
	retiredAtMeas []int64
	coreEpoch     []uint64
}

// Cycle returns the DRAM cycle the checkpoint was taken at.
func (ck *Checkpoint) Cycle() int64 { return ck.dramCycle }

// Snapshot captures the system's full simulation state. It must be
// called between steps (Run/RunFast/StepFast boundaries — the domain
// mailboxes are drained there). It fails while host-mediated copies
// are in flight and under nda.Config.VerifyFSM; both are transient or
// debug-only conditions, not steady-state ones.
func (s *System) Snapshot() (*Checkpoint, error) {
	ck, _, err := s.SnapshotWithRoots(nil)
	return ck, err
}

// SnapshotWithRoots is Snapshot plus explicit root handles: each handle
// in roots is registered in the checkpoint's handle table even when no
// in-flight op references it, and its table index is returned in
// matching order. The indices are the durable names a driver persists
// alongside the checkpoint file; after restoring in a fresh process,
// RT.RestoredHandleAt(index) recovers the rebuilt handle (the old
// pointer, the in-memory RestoredHandle key, does not survive a process
// boundary).
func (s *System) SnapshotWithRoots(roots []*ndart.Handle) (*Checkpoint, []int, error) {
	for d := range s.doms {
		if len(s.doms[d].outbox) != 0 {
			return nil, nil, errors.New("sim: snapshot mid-tick (domain mailboxes not drained)")
		}
	}
	enc := s.RT.NewSnapshotEncoder()
	engSt, err := s.NDA.Snapshot(enc.EncodeTag)
	if err != nil {
		return nil, nil, err
	}
	var rootIdx []int
	for _, h := range roots {
		rootIdx = append(rootIdx, enc.RegisterHandle(h))
	}
	rtSt, err := s.RT.Snapshot(enc)
	if err != nil {
		return nil, nil, err
	}
	ck := &Checkpoint{
		dram: s.Mem.Snapshot(),
		os:   s.OS.Snapshot(),
		eng:  engSt,
		rt:   rtSt,

		dramCycle: s.dramCycle, cpuCycle: s.cpuCycle, credit: s.credit,
		measStartDRAM: s.measStartDRAM, measStartCPU: s.measStartCPU,
		retiredAtMeas: append([]int64(nil), s.retiredAtMeas...),
		coreEpoch:     append([]uint64(nil), s.coreEpoch...),
	}
	for _, c := range s.MCs {
		ck.mcs = append(ck.mcs, c.Snapshot())
	}
	if s.Hier != nil {
		ck.hier = s.Hier.Snapshot()
	}
	for i, c := range s.Cores {
		ck.cores = append(ck.cores, c.Snapshot())
		ck.gens = append(ck.gens, s.gens[i].Snapshot())
	}
	return ck, rootIdx, nil
}

// Restore overwrites the system's state with the checkpoint. The system
// must have been built from the same Config the checkpointed system was
// (the knobs StateConfig zeroes may differ — they do not affect
// simulated state). Continuing a restored system is bit-identical to
// continuing the original, on both the reference and fast paths.
func (s *System) Restore(ck *Checkpoint) {
	if len(ck.mcs) != len(s.MCs) || len(ck.cores) != len(s.Cores) ||
		(ck.hier == nil) != (s.Hier == nil) {
		panic("sim: restore onto a system with a different configuration")
	}
	s.Mem.Restore(ck.dram)
	s.OS.Restore(ck.os)
	for i, c := range s.Cores {
		c.Restore(ck.cores[i])
		s.gens[i].Restore(ck.gens[i])
	}
	if s.Hier != nil {
		s.Hier.Restore(ck.hier, func(core, slot int) func(int64) {
			return s.Cores[core].DoneFn(slot)
		})
	}
	dec := s.RT.Restore(ck.rt)
	s.NDA.Restore(ck.eng, dec)
	// Requests that carried completion closures reattach through the
	// restored front-ends: a tagged write is a launch packet (registry
	// callback), a read with a callback is a host demand miss (its MSHR
	// fill). Copy-pump reads cannot appear — Snapshot refuses while the
	// copier is busy.
	resolve := func(write bool, addr uint64, tag uint64) func(int64) {
		if write {
			if tag == 0 {
				panic("sim: restored write with a completion but no launch tag")
			}
			return s.RT.LaunchDone(tag)
		}
		return s.Hier.FillFor(addr)
	}
	for i, c := range s.MCs {
		c.Restore(ck.mcs[i], resolve)
	}
	s.dramCycle, s.cpuCycle, s.credit = ck.dramCycle, ck.cpuCycle, ck.credit
	s.measStartDRAM, s.measStartCPU = ck.measStartDRAM, ck.measStartCPU
	copy(s.retiredAtMeas, ck.retiredAtMeas)
	copy(s.coreEpoch, ck.coreEpoch)
	// Wake caches re-derive from restored state on the next survey.
	for i := range s.mcStale {
		s.mcStale[i] = true
	}
	for d := range s.stepNDAWake {
		s.stepNDAWake[d] = notSurveyed
	}
	s.stepRTWake = notSurveyed
	for d := range s.doms {
		s.doms[d].outbox = s.doms[d].outbox[:0]
	}
}

// RestoreSystem builds a fresh system from cfg and restores the
// checkpoint into it: the fork primitive. Each call yields an
// independent system; the checkpoint is read-only throughout.
func RestoreSystem(cfg Config, ck *Checkpoint) (*System, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.Restore(ck)
	return s, nil
}
