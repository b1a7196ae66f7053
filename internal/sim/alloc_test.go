package sim

import (
	"testing"

	"chopim/internal/apps"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// TestTickLoopAllocFree pins the allocation-free steady-state contract
// of the tick loop: once a mixed host+NDA system is warmed (pools sized,
// caches filled, write drains established), advancing the clock performs
// zero heap allocations. Every hot-path allocation — controller request
// nodes, LLC MSHRs and their fill callbacks, core completion callbacks,
// the NDA write buffer — comes from a pool or a preallocated ring.
// CI fails on any regression here; the companion BenchmarkMixedHostNDA
// reports the same property as allocs/op.
func TestTickLoopAllocFree(t *testing.T) {
	s, err := New(Default(1))
	if err != nil {
		t.Fatal(err)
	}
	// COPY exercises both the NDA read and write-buffer paths; the
	// operand is sized so one launch outlives warm-up plus measurement.
	app, err := apps.NewMicroPlaced(s.RT, "copy", (4<<20)/4, ndart.Private)
	if err != nil {
		t.Fatal(err)
	}
	h, err := app.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60_000)
	if h.Done() {
		t.Fatal("NDA op finished during warm-up; enlarge the operand")
	}
	allocs := testing.AllocsPerRun(5, func() { s.Run(5_000) })
	if allocs != 0 {
		t.Fatalf("steady-state tick loop allocated %.1f objects per 5k-cycle window, want 0", allocs)
	}
	if h.Done() {
		t.Fatal("NDA op finished during measurement; enlarge the operand")
	}
}

// TestComputeHeavyAllocFree extends the zero-allocs contract to the
// compute-heavy host path (BenchmarkHostComputeHeavy's shape): the
// window-batched retirement machinery — the per-core issue-group
// lookahead and the deferred ROB materialization — must run from
// fixed per-core state, never the heap.
func TestComputeHeavyAllocFree(t *testing.T) {
	cfg := Default(-1)
	p := workload.ComputeHeavy()
	cfg.HostProfiles = []workload.Profile{p, p, p, p}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFast(50_000)
	allocs := testing.AllocsPerRun(5, func() { s.RunFast(20_000) })
	if allocs != 0 {
		t.Fatalf("compute-heavy steady state allocated %.1f objects per 20k-cycle window, want 0", allocs)
	}
}

// TestStallHeavyAllocFree extends the zero-allocs contract to the
// stall-heavy host path (BenchmarkHostStallHeavy's shape): the 64 MiB
// random footprints warm the MSHR machinery much more slowly than the
// mixed workload, so this pins the config-bound pre-sizing of the
// waiter slices, the LLC pending map, the MSHR node pool, and the
// controller overflow ring — late growth in any of them fails here
// before it fails the CI bench gate.
func TestStallHeavyAllocFree(t *testing.T) {
	cfg := Default(-1)
	p := workload.StallHeavy()
	cfg.HostProfiles = []workload.Profile{p, p, p, p}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFast(150_000)
	allocs := testing.AllocsPerRun(5, func() { s.RunFast(20_000) })
	if allocs != 0 {
		t.Fatalf("stall-heavy steady state allocated %.1f objects per 20k-cycle window, want 0", allocs)
	}
}
