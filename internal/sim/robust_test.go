package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"chopim/internal/dram"
	"chopim/internal/faults"
)

// TestLivelockDetectedOnStuckHorizon injects the stuck-horizon bug class
// (NextEvent reporting Never while work is pending) and asserts the fast
// path fails with a structured LivelockError carrying a diagnostic dump
// instead of spinning or silently jumping to the end of the run.
func TestLivelockDetectedOnStuckHorizon(t *testing.T) {
	disarm := faults.ArmAdjust(faults.SimNextEvent, func(v int64) int64 {
		if v >= 2000 {
			return dram.Never
		}
		return v
	})
	defer disarm()
	s, err := New(Default(0))
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunFast(50_000)
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("RunFast under stuck horizon: got %v, want LivelockError", err)
	}
	if le.Cycle < 2000 {
		t.Errorf("livelock reported at cycle %d, before the injected threshold", le.Cycle)
	}
	if le.Dump == "" || !strings.Contains(le.Dump, "mc[0]:") || !strings.Contains(le.Dump, "core[0]:") {
		t.Errorf("diagnostic dump missing scheduler state:\n%s", le.Dump)
	}
	if !strings.Contains(le.Reason, "holds") && !strings.Contains(le.Reason, "in flight") {
		t.Errorf("reason does not describe the pending work: %q", le.Reason)
	}
	// The failure is sticky: every later step reports the same error
	// rather than resuming a corrupt run.
	if err2 := s.StepFast(s.Now() + 1); !errors.As(err2, &le) {
		t.Errorf("post-failure StepFast: got %v, want the sticky LivelockError", err2)
	}
	if s.RunError() == nil {
		t.Error("RunError is nil after a detected livelock")
	}
}

// TestWatchdogWindow exercises the no-progress detector white-box: with
// work pending and the progress signature frozen past the window, the
// watchdog fails the run; with the system genuinely idle the same
// staleness just restarts the window (idle-by-design is not livelock).
func TestWatchdogWindow(t *testing.T) {
	cfg := Default(0)
	cfg.WatchdogWindow = 1_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive until some layer demonstrably holds work (host cores issue
	// misses within a few cycles).
	for i := 0; i < 10_000; i++ {
		s.Tick()
		if pend, _ := s.workPending(); pend {
			break
		}
	}
	if pend, _ := s.workPending(); !pend {
		t.Fatal("host-only workload never produced pending work")
	}
	s.robust.sig = s.progressSig()
	s.robust.sigCycle = s.dramCycle - cfg.WatchdogWindow - 1
	err = s.watchdog()
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("stale signature with pending work: got %v, want LivelockError", err)
	}
	if !strings.Contains(le.Reason, "no forward progress") {
		t.Errorf("unexpected reason: %q", le.Reason)
	}

	// Idle system: same staleness, no pending work, no error.
	idle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh system with host cores will generate work, so silence the
	// pending probe by checking before any tick: queues are empty.
	if pend, what := idle.workPending(); pend {
		t.Fatalf("fresh system reports pending work: %s", what)
	}
	idle.robust.sig = idle.progressSig()
	idle.robust.sigCycle = idle.dramCycle - cfg.WatchdogWindow - 1
	if err := idle.watchdog(); err != nil {
		t.Fatalf("idle-by-design tripped the watchdog: %v", err)
	}
	if idle.robust.sigCycle != idle.dramCycle {
		t.Error("idle watchdog pass did not restart the window")
	}
}

// TestCycleDeadline bounds a run by simulated cycles and checks the
// structured error plus readable partial state.
func TestCycleDeadline(t *testing.T) {
	cfg := Default(0)
	cfg.MaxCycles = 1_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunFast(50_000)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlineError", err)
	}
	if de.Kind != "cycle" {
		t.Errorf("Kind = %q, want cycle", de.Kind)
	}
	if s.Now() < 1_000 || s.Now() >= 50_000 {
		t.Errorf("run stopped at cycle %d, want shortly after the 1000-cycle deadline", s.Now())
	}
	// Partial stats stay readable after the failure.
	if s.Mem.Counts().RD == 0 {
		t.Error("no commands issued before the deadline — partial stats lost?")
	}
}

// TestWallClockDeadline bounds a run by host time.
func TestWallClockDeadline(t *testing.T) {
	cfg := Default(0)
	cfg.MaxWallClock = time.Nanosecond // expires immediately; detected at the rate-limit stride
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.RunFast(5_000_000)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlineError", err)
	}
	if de.Kind != "wall-clock" || de.Limit != time.Nanosecond {
		t.Errorf("got Kind=%q Limit=%v, want wall-clock/1ns", de.Kind, de.Limit)
	}
	if s.Now() >= 5_000_000 {
		t.Error("run completed despite an expired wall-clock budget")
	}
}

// TestInvalidConfigErrors pins the constructor's error path for every
// user-reachable configuration class (previously panics).
func TestInvalidConfigErrors(t *testing.T) {
	mut := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad-geometry", func(c *Config) { c.Geom.Channels = 3 }},
		{"bad-timing", func(c *Config) { c.Timing.CL = 0 }},
		{"bad-mc-queues", func(c *Config) { c.MC.ReadQueue = 0 }},
		{"bad-drain-marks", func(c *Config) { c.MC.DrainLow = c.MC.WriteQueue + 5 }},
		{"bad-partition", func(c *Config) { c.Partitioned = true; c.ReservedBanks = 99 }},
		{"workers-2", func(c *Config) { c.SimWorkers = 2 }},
		{"workers-all-cpus", func(c *Config) { c.SimWorkers = -1 }},
	}
	for _, m := range mut {
		t.Run(m.name, func(t *testing.T) {
			cfg := Default(0)
			m.mut(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), "invalid config") {
				t.Errorf("error %q does not identify itself as a config error", err)
			}
		})
	}
}

// TestMailboxConservationInvariant plants a commit callback that grows
// the mailbox mid-drain — forbidden: only memory-phase ticks produce
// completions — and asserts the checked commit panics with an
// *InvariantError naming the domain.
func TestMailboxConservationInvariant(t *testing.T) {
	cfg := Default(0)
	cfg.CheckInvariants = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dom := &s.doms[0]
	dom.push(func(int64) {
		dom.push(func(int64) {}, 0) // illegal: commit produced new work
	}, 0)
	defer func() {
		r := recover()
		ie, ok := r.(*InvariantError)
		if !ok {
			t.Fatalf("recovered %v, want *InvariantError", r)
		}
		if !strings.Contains(ie.Msg, "mailbox grew") {
			t.Errorf("unexpected invariant message: %q", ie.Msg)
		}
	}()
	s.commitChecked()
}

// TestDeadlineErrorOnTickPath checks the reference-path contract: Tick
// never consults deadlines itself, so cycle-by-cycle drivers poll
// DeadlineExceeded; the result must match the fast path's classification.
func TestDeadlineErrorOnTickPath(t *testing.T) {
	cfg := Default(0)
	cfg.MaxCycles = 500
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if err := s.DeadlineExceeded(); err != nil {
			var de *DeadlineError
			if !errors.As(err, &de) || de.Kind != "cycle" {
				t.Fatalf("got %v, want cycle DeadlineError", err)
			}
			break
		}
		s.Tick()
		if s.Now() > 2_000 {
			t.Fatal("deadline never reported on the reference path")
		}
	}
}
