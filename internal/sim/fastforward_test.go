package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/apps"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// snapshot captures every observable counter of a system so the
// cycle-by-cycle and fast-forward paths can be compared exactly.
func snapshot(s *System) string {
	st := s.NDA.TotalStats()
	out := fmt.Sprintf("dram=%d cpu=%d credit=%d host-ipc=%v busy=%d blocks=%d "+
		"ACT=%d PRE=%d RD=%d WR=%d nRD=%d nWR=%d "+
		"br=%d bw=%d acts=%d sh=%d sp=%d ops=%d launches=%d copies=%d",
		s.Now(), s.CPUNow(), s.credit, s.HostIPC(), s.HostBusyCycles(), s.NDABlocks(),
		s.Mem.Counts().ACT, s.Mem.Counts().PRE, s.Mem.Counts().RD, s.Mem.Counts().WR, s.Mem.Counts().NDARD, s.Mem.Counts().NDAWR,
		st.BlocksRead, st.BlocksWritten, st.RowActs, st.StallsHost, st.StallsPolicy, st.OpsCompleted,
		s.RT.Launches, s.RT.Copies)
	for i, c := range s.MCs {
		out += fmt.Sprintf(" mc%d=%d/%d/%d/%d/%d/%d", i,
			c.ReadsIssued, c.WritesIssued, c.ActsIssued, c.PresIssued, c.ReadLatencySum, c.Drains)
	}
	for i, c := range s.Cores {
		out += fmt.Sprintf(" core%d=%d/%d", i, c.Retired, c.Cycles)
	}
	return out
}

// ffWorkload builds a relaunchable NDA workload on a fresh system, or
// nil for host-only runs.
type ffWorkload struct {
	name string
	cfg  func() Config
	app  func(s *System) (func() (*ndart.Handle, error), error)
}

func ffWorkloads() []ffWorkload {
	hostOnly := ffWorkload{
		name: "host-only",
		cfg:  func() Config { return Default(0) },
	}
	ndaOnly := ffWorkload{
		name: "nda-only-nrm2",
		cfg:  func() Config { return Default(-1) },
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "nrm2", (256<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	ndaCopy := ffWorkload{
		name: "nda-only-copy-stochastic",
		cfg: func() Config {
			c := Default(-1)
			c.NDA.Policy = nda.Stochastic
			c.NDA.StochasticProb = 0.25
			return c
		},
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	mixed := ffWorkload{
		name: "mixed-mix1-dot",
		cfg:  func() Config { return Default(1) },
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "dot", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Shared banks + write-heavy COPY exercises the scheduler paths a
	// partitioned DOT never hits: host/NDA bank conflicts (HasDemandFor
	// priority), write drains, and NDA write throttling.
	mixedShared := ffWorkload{
		name: "mixed-mix3-copy-shared",
		cfg: func() Config {
			c := Default(3)
			c.Partitioned = false
			return c
		},
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Stress shapes for the core stall-skipping machinery: each profile
	// drives a different blocked-core cause (serialize-heavy low-MLP
	// stalls, store/writeback pressure, LSQ saturation), and the mixed
	// variant layers NDA traffic over the stall-heavy host.
	hostProfiles := func(p workload.Profile) func() Config {
		return func() Config {
			c := Default(-1)
			c.HostProfiles = []workload.Profile{p, p, p, p}
			return c
		}
	}
	stallHeavy := ffWorkload{name: "host-stall-heavy", cfg: hostProfiles(workload.StallHeavy())}
	storeHeavy := ffWorkload{
		name: "host-store-heavy",
		cfg: hostProfiles(workload.Profile{Name: "store_heavy", Class: workload.High,
			MemRatio: 0.4, WriteFrac: 0.8, Footprint: 32 << 20, StreamFrac: 0.5, Streams: 4}),
	}
	lsqSat := ffWorkload{
		name: "host-lsq-saturating",
		cfg: hostProfiles(workload.Profile{Name: "lsq_sat", Class: workload.High,
			MemRatio: 0.7, WriteFrac: 0.3, Footprint: 24 << 20, StreamFrac: 0.6, Streams: 8, DepFrac: 0.05}),
	}
	mixedStall := ffWorkload{
		name: "mixed-stall-heavy-copy",
		cfg:  hostProfiles(workload.StallHeavy()),
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	// Compute-heavy shapes for the PR 5 window-batched retirement path:
	// high-IPC cache-resident cores whose issue groups are mostly free of
	// memory instructions (goldens pinned from the pre-refactor tree).
	// The mixed variant layers NDA COPY traffic over the compute cores so
	// batched windows interleave with fills, launches, and writebacks.
	computeHeavy := ffWorkload{name: "host-compute-heavy", cfg: hostProfiles(workload.ComputeHeavy())}
	mixedCompute := ffWorkload{
		name: "mixed-compute-copy",
		cfg:  hostProfiles(workload.ComputeHeavy()),
		app: func(s *System) (func() (*ndart.Handle, error), error) {
			a, err := apps.NewMicroPlaced(s.RT, "copy", (128<<10)/4, ndart.Private)
			if err != nil {
				return nil, err
			}
			return a.Iterate, nil
		},
	}
	return []ffWorkload{hostOnly, ndaOnly, ndaCopy, mixed, mixedShared,
		stallHeavy, storeHeavy, lsqSat, mixedStall, computeHeavy, mixedCompute}
}

// drive advances sys through segments cycles-long windows, relaunching
// the workload after every executed step exactly as the experiment
// harness does, and records a snapshot at each segment boundary.
func drive(t *testing.T, w ffWorkload, fast bool, segments int, segCycles int64) []string {
	t.Helper()
	step := func(s *System, _ int64) error { s.Tick(); return nil }
	if fast {
		step = (*System).StepFast
	}
	snaps, err := driveWith(w, step, segments, segCycles)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// driveWith is drive with the per-step advance supplied by the caller
// (step gets the current segment's end and must not run past it) and
// step, launch and construction errors returned rather than reported, so it can run off the test
// goroutine.
func driveWith(w ffWorkload, step func(s *System, end int64) error, segments int, segCycles int64) ([]string, error) {
	s, err := New(w.cfg())
	if err != nil {
		return nil, err
	}
	var it func() (*ndart.Handle, error)
	if w.app != nil {
		if it, err = w.app(s); err != nil {
			return nil, err
		}
	}
	var h *ndart.Handle
	relaunch := func() error {
		if it == nil || (h != nil && !h.Done()) {
			return nil
		}
		h, err = it()
		return err
	}
	if err := relaunch(); err != nil {
		return nil, err
	}
	var snaps []string
	for seg := 0; seg < segments; seg++ {
		end := s.Now() + segCycles
		for s.Now() < end {
			if err := step(s, end); err != nil {
				return nil, err
			}
			if err := relaunch(); err != nil {
				return nil, err
			}
		}
		snaps = append(snaps, snapshot(s))
	}
	return snaps, nil
}

// wideWorkload is the mixed DOT golden shape on four channels: four
// channel domains, so the per-channel dispatch and the canonical
// (channel, FIFO) mailbox drain run over more than two domains.
func wideWorkload() ffWorkload {
	w := ffWorkload{
		name: "mixed-mix1-dot-4ch",
		cfg: func() Config {
			c := Default(1)
			c.Geom.Channels = 4
			return c
		},
	}
	for _, m := range ffWorkloads() {
		if m.name == "mixed-mix1-dot" {
			w.app = m.app
		}
	}
	return w
}

// missStormWorkload builds one randomized 8-core miss-storm shape:
// memory-heavy cores with randomized footprints, stream fractions, and
// dependency mixes, layered under NDA DOT traffic. High MemRatio
// across 8 cores keeps the 48 LLC MSHRs saturated (Stall
// classification and rollback), streaming cores train the prefetcher
// so demand accesses merge into in-flight prefetch MSHRs, and the
// dependency fraction varies how often issue groups break mid-cycle.
func missStormWorkload(rng *rand.Rand, name string) ffWorkload {
	profs := make([]workload.Profile, 8)
	for i := range profs {
		profs[i] = workload.Profile{
			Name:       fmt.Sprintf("storm%d", i),
			Class:      workload.High,
			MemRatio:   0.55 + 0.4*rng.Float64(),
			WriteFrac:  0.05 + 0.5*rng.Float64(),
			Footprint:  uint64(8+rng.Intn(56)) << 20,
			StreamFrac: rng.Float64(),
			Streams:    1 + rng.Intn(8),
			DepFrac:    0.7 * rng.Float64(),
		}
	}
	seed := rng.Int63()
	w := ffWorkload{
		name: name,
		cfg: func() Config {
			c := Default(-1)
			c.HostProfiles = profs
			c.Seed = seed
			return c
		},
	}
	for _, m := range ffWorkloads() {
		if m.name == "mixed-mix1-dot" {
			w.app = m.app // the DOT kernel, for NDA traffic underneath
		}
	}
	return w
}

// TestRunFastMatchesRun proves the fast-forward contract: for host-only,
// NDA-only, and mixed workloads, plus a 4-channel mixed shape, the
// skipping path reaches every segment boundary with counters
// bit-identical to the cycle-by-cycle baseline. TestCoreShardMissStorm
// runs the same check on randomized 8-core miss storms.
func TestRunFastMatchesRun(t *testing.T) {
	for _, w := range append(ffWorkloads(), wideWorkload()) {
		t.Run(w.name, func(t *testing.T) {
			slow := drive(t, w, false, 8, 5_000)
			fast := drive(t, w, true, 8, 5_000)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("segment %d diverged:\n slow: %s\n fast: %s", i, slow[i], fast[i])
				}
			}
		})
	}
}

// TestRunFastMatchesRunRandomized fuzzes the equivalence with randomized
// segment boundaries: StepFast must land exactly on arbitrary limits
// (mid-stall-window, mid-burst, single-cycle segments) with state
// bit-identical to the single-stepped reference at every boundary. The
// stress trace profiles each drive a different blocked-core cause, so
// this exercises every wake class of the core-skip machinery: head-wake
// (ROB/LSQ), probe-stall epochs, controller hints, and NDA sleep
// bounds.
func TestRunFastMatchesRunRandomized(t *testing.T) {
	stress := map[string]bool{
		"host-stall-heavy":       true,
		"host-store-heavy":       true,
		"host-lsq-saturating":    true,
		"mixed-stall-heavy-copy": true,
		"mixed-mix3-copy-shared": true,
	}
	for wi, w := range ffWorkloads() {
		if !stress[w.name] {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(wi)))
			var bounds []int64
			cycle := int64(0)
			for i := 0; i < 40; i++ {
				cycle += 1 + rng.Int63n(2_500)
				bounds = append(bounds, cycle)
			}
			run := func(fast bool) []string {
				s, err := New(w.cfg())
				if err != nil {
					t.Fatal(err)
				}
				var it func() (*ndart.Handle, error)
				if w.app != nil {
					if it, err = w.app(s); err != nil {
						t.Fatal(err)
					}
				}
				var h *ndart.Handle
				relaunch := func() {
					if it == nil {
						return
					}
					if h == nil || h.Done() {
						if h, err = it(); err != nil {
							t.Fatal(err)
						}
					}
				}
				relaunch()
				var snaps []string
				for _, end := range bounds {
					for s.Now() < end {
						if fast {
							s.StepFast(end)
						} else {
							s.Tick()
						}
						relaunch()
					}
					if s.Now() != end {
						t.Fatalf("overshot boundary: at %d, want %d", s.Now(), end)
					}
					snaps = append(snaps, snapshot(s))
				}
				return snaps
			}
			slow := run(false)
			fast := run(true)
			for i := range slow {
				if slow[i] != fast[i] {
					t.Fatalf("random boundary %d (cycle %d) diverged:\n slow: %s\n fast: %s",
						i, bounds[i], slow[i], fast[i])
				}
			}
		})
	}
}

// TestRunFastAdvancesClock checks RunFast's bookkeeping on a fully idle
// system: the clock jumps without ticks and the CPU-credit arithmetic
// matches Tick's exactly.
func TestRunFastAdvancesClock(t *testing.T) {
	a, err := New(Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Default(-1))
	if err != nil {
		t.Fatal(err)
	}
	a.Run(12_345)
	b.RunFast(12_345)
	if a.Now() != b.Now() || a.CPUNow() != b.CPUNow() || a.credit != b.credit {
		t.Fatalf("clock skew: run=(%d,%d,%d) fast=(%d,%d,%d)",
			a.Now(), a.CPUNow(), a.credit, b.Now(), b.CPUNow(), b.credit)
	}
}
