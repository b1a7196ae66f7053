package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/workload"
)

// ckWorkload is one checkpointing scenario: a config plus an optional
// relaunchable single-op NDA workload built directly on vectors, so the
// driver can relaunch on a fork as well as on the original (vectors are
// immutable layout descriptors — the same operand set launches
// identically through any system's runtime).
type ckWorkload struct {
	name string
	cfg  func() Config
	op   string // "" = host-only
	n    int    // operand elements
}

func ckWorkloads() []ckWorkload {
	hostProfiles := func(p workload.Profile) func() Config {
		return func() Config {
			c := Default(-1)
			c.HostProfiles = []workload.Profile{p, p, p, p}
			return c
		}
	}
	return []ckWorkload{
		{name: "host-only", cfg: func() Config { return Default(0) }},
		{name: "host-stall-heavy", cfg: hostProfiles(workload.StallHeavy())},
		{name: "nda-only-nrm2", cfg: func() Config { return Default(-1) },
			op: "nrm2", n: (256 << 10) / 4},
		{name: "nda-only-copy-stochastic", cfg: func() Config {
			c := Default(-1)
			c.NDA.Policy = nda.Stochastic
			c.NDA.StochasticProb = 0.25
			return c
		}, op: "copy", n: (128 << 10) / 4},
		{name: "mixed-mix1-dot", cfg: func() Config { return Default(1) },
			op: "dot", n: (128 << 10) / 4},
		{name: "mixed-mix3-copy-shared", cfg: func() Config {
			c := Default(3)
			c.Partitioned = false
			return c
		}, op: "copy", n: (128 << 10) / 4},
	}
}

// ckApp holds the workload's operand vectors.
type ckApp struct {
	op   string
	x, y *ndart.Vector
}

func newCkApp(s *System, op string, n int) (*ckApp, error) {
	if op == "" {
		return nil, nil
	}
	x, err := s.RT.NewVector(n, ndart.Private)
	if err != nil {
		return nil, err
	}
	y, err := s.RT.NewVector(n, ndart.Private)
	if err != nil {
		return nil, err
	}
	return &ckApp{op: op, x: x, y: y}, nil
}

func (a *ckApp) launch(s *System) (*ndart.Handle, error) {
	switch a.op {
	case "copy":
		return s.RT.Copy(a.y, a.x)
	case "dot":
		return s.RT.Dot(a.x, a.y)
	case "nrm2":
		return s.RT.Nrm2(a.x)
	}
	return nil, fmt.Errorf("unknown op %q", a.op)
}

// ckDriver relaunches the workload whenever its handle completes,
// exactly as the experiment harness does. fork maps the in-flight
// handle into a restored system so the fork's relaunch decisions match
// the original's cycle for cycle.
type ckDriver struct {
	app *ckApp
	h   *ndart.Handle
}

func (d *ckDriver) relaunch(t *testing.T, s *System) {
	t.Helper()
	if d.app == nil {
		return
	}
	if d.h == nil || d.h.Done() {
		h, err := d.app.launch(s)
		if err != nil {
			t.Fatal(err)
		}
		d.h = h
	}
}

func (d *ckDriver) fork(s *System) *ckDriver {
	nd := &ckDriver{app: d.app}
	if d.h != nil {
		nd.h = s.RT.RestoredHandle(d.h)
	}
	return nd
}

// ckAdvance steps s to cycle end, relaunching after every step.
func ckAdvance(t *testing.T, s *System, d *ckDriver, end int64, fast bool) {
	t.Helper()
	for s.Now() < end {
		if fast {
			s.StepFast(end)
		} else {
			s.Tick()
		}
		d.relaunch(t, s)
	}
}

// TestSnapshotRestoreContinue proves the checkpoint contract: a system
// snapshotted mid-run and restored into a fresh instance continues
// bit-identically to the original, on the reference path and on the
// fast path — with NDA ops in flight,
// launch packets queued, and misses outstanding at the cut.
func TestSnapshotRestoreContinue(t *testing.T) {
	const n1, n2 = 12_000, 10_000
	for _, w := range ckWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			a, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			app, err := newCkApp(a, w.op, w.n)
			if err != nil {
				t.Fatal(err)
			}
			drv := &ckDriver{app: app}
			drv.relaunch(t, a)
			ckAdvance(t, a, drv, n1, false)
			ck, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fpCut := snapshot(a)
			hCut := drv.h

			// Continue the original on the reference path: the oracle.
			ckAdvance(t, a, drv, n1+n2, false)
			want := snapshot(a)

			modes := []struct {
				name string
				fast bool
			}{
				{"run", false},
				{"fast-w1", true},
			}
			for _, m := range modes {
				t.Run(m.name, func(t *testing.T) {
					b, err := RestoreSystem(w.cfg(), ck)
					if err != nil {
						t.Fatal(err)
					}
					if got := snapshot(b); got != fpCut {
						t.Fatalf("restored state differs at the cut:\n orig: %s\n fork: %s", fpCut, got)
					}
					bd := &ckDriver{app: app}
					if hCut != nil {
						bd.h = b.RT.RestoredHandle(hCut)
					}
					ckAdvance(t, b, bd, n1+n2, m.fast)
					if got := snapshot(b); got != want {
						t.Fatalf("fork diverged after continue:\n orig: %s\n fork: %s", want, got)
					}
				})
			}
		})
	}
}

// TestSnapshotRestoreRandomized fuzzes the checkpoint cut point: the
// original runs fast through randomized boundaries; at every few
// boundaries a checkpoint forks and the fork is driven through the
// remaining boundaries, its fingerprint compared at each — so cuts land mid-stall-window, mid-burst, with
// write buffers part-drained and launch packets half-delivered.
func TestSnapshotRestoreRandomized(t *testing.T) {
	fuzz := map[string]bool{
		"nda-only-copy-stochastic": true,
		"mixed-mix3-copy-shared":   true,
		"host-stall-heavy":         true,
	}
	for wi, w := range ckWorkloads() {
		if !fuzz[w.name] {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xBEEF + int64(wi)))
			var bounds []int64
			cycle := int64(0)
			for i := 0; i < 20; i++ {
				cycle += 1 + rng.Int63n(2_000)
				bounds = append(bounds, cycle)
			}
			a, err := New(w.cfg())
			if err != nil {
				t.Fatal(err)
			}
			app, err := newCkApp(a, w.op, w.n)
			if err != nil {
				t.Fatal(err)
			}
			drv := &ckDriver{app: app}
			drv.relaunch(t, a)

			type forkPoint struct {
				ck    *Checkpoint
				h     *ndart.Handle
				bound int // index of the boundary the checkpoint was cut at
			}
			var forks []forkPoint
			fps := make([]string, len(bounds))
			for i, end := range bounds {
				ckAdvance(t, a, drv, end, true)
				if a.Now() != end {
					t.Fatalf("overshot boundary: at %d, want %d", a.Now(), end)
				}
				fps[i] = snapshot(a)
				if i%4 == 1 {
					ck, err := a.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					forks = append(forks, forkPoint{ck: ck, h: drv.h, bound: i})
				}
			}
			for _, f := range forks {
				b, err := RestoreSystem(w.cfg(), f.ck)
				if err != nil {
					t.Fatal(err)
				}
				if got := snapshot(b); got != fps[f.bound] {
					t.Fatalf("fork at boundary %d differs at the cut:\n orig: %s\n fork: %s",
						f.bound, fps[f.bound], got)
				}
				bd := &ckDriver{app: app}
				if f.h != nil {
					bd.h = b.RT.RestoredHandle(f.h)
				}
				last := f.bound + 6
				if last > len(bounds)-1 {
					last = len(bounds) - 1
				}
				for j := f.bound + 1; j <= last; j++ {
					ckAdvance(t, b, bd, bounds[j], true)
					if got := snapshot(b); got != fps[j] {
						t.Fatalf("fork from boundary %d diverged at boundary %d:\n orig: %s\n fork: %s",
							f.bound, j, fps[j], got)
					}
				}
			}
		})
	}
}
