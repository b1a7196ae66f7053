package experiments

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"chopim/internal/apps"
	"chopim/internal/faults"
	"chopim/internal/ndart"
	"chopim/internal/sim"
)

// ckptSweepOpts is the shared budget for the checkpoint/cancel tests:
// small enough to run in seconds, long enough that the mid-point
// cadence fires several times per point. The same construction must be
// used by the interrupted run, the resumed run, and the subprocess
// crash child — the checkpoint key fingerprints it.
func ckptSweepOpts(dir string) Options {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 2_000, 28_000
	opt.Parallel = 1
	if dir != "" {
		opt.JournalDir = dir
		opt.CheckpointEvery = 3_000
	}
	return opt
}

// ckptSweepRows runs the two-point NDA-only sweep the tests interrupt:
// both points share one configuration, so only the point tag keeps
// their checkpoints apart.
func ckptSweepRows(opt Options) ([]NDAOnlyRow, error) {
	return NDAOnlySweep(opt, []string{"copy", "dot"})
}

// canceledSweep reports whether an error is cooperative cancellation in
// either surface form: the drained sweep's sentinel or a point's
// CanceledError (fail-fast surfaces the point error directly).
func canceledSweep(err error) bool {
	if errors.Is(err, ErrSweepCanceled) {
		return true
	}
	var ce *sim.CanceledError
	return errors.As(err, &ce)
}

// TestMidPointCheckpointResume is the in-process half of the tentpole
// claim: cancel a sweep the instant its first mid-point checkpoint
// lands, then resume with a fresh Options and prove the rows are
// bit-identical to a never-interrupted run, with the cut point restored
// from its checkpoint rather than recomputed from zero.
func TestMidPointCheckpointResume(t *testing.T) {
	// Synchronous cadence: the CkptWritten-triggered cancel must land at
	// a deterministic simulated cycle, not whenever the background
	// writer gets scheduled (the async path is proven by the crash
	// harness below).
	ckptSyncWrites = true
	defer func() { ckptSyncWrites = false }()
	ref, err := ckptSweepRows(ckptSweepOpts(""))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cancel := &Canceler{}
	disarm := faults.ArmAdjust(faults.CkptWritten, func(v int64) int64 {
		cancel.CancelPoints()
		return v
	})
	opt := ckptSweepOpts(dir)
	opt.Cancel = cancel
	_, err = ckptSweepRows(opt)
	disarm()
	if !canceledSweep(err) {
		t.Fatalf("interrupted run returned %v, want cooperative cancellation", err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "point-*.ckpt"))
	if len(ckpts) == 0 {
		t.Fatal("canceled run left no mid-point checkpoint behind")
	}

	before := ReadRunnerStats()
	ropt := ckptSweepOpts(dir)
	ropt.Resume = true
	rows, err := ckptSweepRows(ropt)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	after := ReadRunnerStats()
	if after.CkptRestores-before.CkptRestores < 1 {
		t.Errorf("resumed run restored %d mid-point checkpoints, want >=1",
			after.CkptRestores-before.CkptRestores)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("cancel+resume rows diverged from the uninterrupted run:\n want: %+v\n  got: %+v", ref, rows)
	}
	// The completed figure owns its results: no checkpoint files remain.
	if left, _ := filepath.Glob(filepath.Join(dir, "point-*.ckpt")); len(left) != 0 {
		t.Errorf("completed sweep left checkpoints behind: %v", left)
	}
}

// TestMidPointCheckpointCorruptionDegrades proves the resume contract
// under a corrupted checkpoint: when the file a crash left behind is
// torn or bit-flipped, the resume reads it as a miss, the point
// recomputes from cycle zero, and the rows still match the
// uninterrupted run exactly.
func TestMidPointCheckpointCorruptionDegrades(t *testing.T) {
	// Synchronous cadence, as in TestMidPointCheckpointResume.
	ckptSyncWrites = true
	defer func() { ckptSyncWrites = false }()
	ref, err := ckptSweepRows(ckptSweepOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cancel := &Canceler{}
			disarm := faults.ArmAdjust(faults.CkptWritten, func(v int64) int64 {
				cancel.CancelPoints()
				return v
			})
			opt := ckptSweepOpts(dir)
			opt.Cancel = cancel
			_, err := ckptSweepRows(opt)
			disarm()
			if !canceledSweep(err) {
				t.Fatalf("interrupted run returned %v, want cooperative cancellation", err)
			}
			ckpts, _ := filepath.Glob(filepath.Join(dir, "point-*.ckpt"))
			if len(ckpts) == 0 {
				t.Fatal("canceled run left no checkpoint to corrupt")
			}
			for _, p := range ckpts {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, tc.corrupt(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			before := ReadRunnerStats()
			ropt := ckptSweepOpts(dir)
			ropt.Resume = true
			rows, err := ckptSweepRows(ropt)
			if err != nil {
				t.Fatalf("resume over a corrupt checkpoint failed: %v", err)
			}
			after := ReadRunnerStats()
			if n := after.CkptRestores - before.CkptRestores; n != 0 {
				t.Errorf("corrupt checkpoint restored %d times, want 0 (miss-and-recompute)", n)
			}
			if !reflect.DeepEqual(rows, ref) {
				t.Fatalf("recomputed rows diverged:\n want: %+v\n  got: %+v", ref, rows)
			}
		})
	}
}

// TestPointCheckpointFileContract unit-tests the point-checkpoint file
// itself: a clean write loads with its metadata and handle identity
// intact, and every mismatch — wrong tag, torn bytes, flipped bit —
// loads as a miss without touching the destination system.
func TestPointCheckpointFileContract(t *testing.T) {
	dir := t.TempDir()
	opt := ckptSweepOpts(dir)
	opt.pointTag = "contract-test"
	cfg := sim.Default(-1)
	s, err := opt.newSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := openPointCkpt(s, opt)
	if c == nil {
		t.Fatal("openPointCkpt returned nil with cadence and journal dir set")
	}
	app, err := apps.NewMicroPlaced(s.RT, "copy", (64<<10)/4, ndart.Private)
	if err != nil {
		t.Fatal(err)
	}
	h, err := app.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunFast(3_000); err != nil {
		t.Fatal(err)
	}
	c.write(s, h, true, 11, 22)
	cut := s.Now()

	load := func(t *testing.T, o Options) (pointCkptMeta, bool, *sim.System) {
		t.Helper()
		s2, err := o.newSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c2 := openPointCkpt(s2, o)
		if c2 == nil {
			t.Fatal("openPointCkpt returned nil for the loading system")
		}
		meta, ok := c2.load(s2)
		return meta, ok, s2
	}

	t.Run("clean", func(t *testing.T) {
		meta, ok, s2 := load(t, opt)
		if !ok {
			t.Fatal("clean checkpoint did not load")
		}
		if s2.Now() != cut || meta.Cycle != cut {
			t.Fatalf("restored to cycle %d (meta %d), want %d", s2.Now(), meta.Cycle, cut)
		}
		if !meta.Measuring || meta.Busy0 != 11 || meta.Blocks0 != 22 {
			t.Fatalf("metadata did not round-trip: %+v", meta)
		}
		if meta.HandleIdx < 0 || s2.RT.RestoredHandleAt(meta.HandleIdx) == nil {
			t.Fatalf("driver handle lost across the file: idx %d", meta.HandleIdx)
		}
	})
	t.Run("wrong-tag", func(t *testing.T) {
		if _, ok, _ := load(t, opt.withTag("someone-else")); ok {
			t.Fatal("a different point tag loaded this point's checkpoint")
		}
	})
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"empty", func([]byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good, err := os.ReadFile(c.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path, tc.corrupt(good), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(c.path, good, 0o644)
			meta, ok, s2 := load(t, opt)
			if ok {
				t.Fatalf("corrupt checkpoint loaded: %+v", meta)
			}
			if s2.Now() != 0 {
				t.Fatalf("failed load advanced the system to cycle %d", s2.Now())
			}
		})
	}

	// The -inject specs must produce files the loader rejects: each arms
	// its corruption for the next write, and the result reads as a miss.
	for _, spec := range []string{"ckpt-torn=1", "ckpt-badsum=1"} {
		t.Run(spec, func(t *testing.T) {
			if err := faults.ArmSpec(spec); err != nil {
				t.Fatal(err)
			}
			defer disarmAll(t)
			c.write(s, h, true, 11, 22)
			if meta, ok, _ := load(t, opt); ok {
				t.Fatalf("checkpoint written under %s loaded: %+v", spec, meta)
			}
		})
	}
}

// TestSweepDrainCancel proves the graceful-drain level: stopping
// admission mid-sweep lets the point in hand finish, fails the sweep
// with ErrSweepCanceled (partial results must never read as complete),
// journals the completed points, and a resumed run replays them and
// computes only the rest.
func TestSweepDrainCancel(t *testing.T) {
	dir := t.TempDir()
	mkOpt := func(c *Canceler) Options {
		opt := Options{Parallel: 1, JournalDir: dir, Resume: true, Cancel: c}
		opt.journal = newJournalCtx(opt, "drainfig", "feedfacefeedfacefeedface")
		return opt
	}
	job := func(i int) (int, error) { return 10*i + 1, nil }

	cancel := &Canceler{}
	disarm := faults.ArmAdjust(faults.RunnerPoint, func(v int64) int64 {
		if v == 1 {
			cancel.CancelAdmission()
		}
		return v
	})
	vals, err := sharded(mkOpt(cancel), 5, job)
	disarm()
	if !errors.Is(err, ErrSweepCanceled) {
		t.Fatalf("drained sweep returned %v, want ErrSweepCanceled", err)
	}
	// The point in hand when the cancel landed still finished.
	if vals[0] != 1 || vals[1] != 11 {
		t.Fatalf("completed points = %v, want points 0 and 1 finished", vals[:2])
	}
	if vals[2] != 0 || vals[3] != 0 || vals[4] != 0 {
		t.Fatalf("points admitted after cancel: %v", vals)
	}

	before := ReadRunnerStats()
	vals, err = sharded(mkOpt(nil), 5, job)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if want := []int{1, 11, 21, 31, 41}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("resumed results = %v, want %v", vals, want)
	}
	after := ReadRunnerStats()
	if n := after.Resumed - before.Resumed; n != 2 {
		t.Errorf("resumed %d points from the journal, want 2", n)
	}

	// A pre-canceled sweep admits nothing, on the parallel path too.
	pre := &Canceler{}
	pre.CancelAdmission()
	opt := Options{Parallel: 4, Cancel: pre}
	if _, err := sharded(opt, 8, job); !errors.Is(err, ErrSweepCanceled) {
		t.Fatalf("pre-canceled parallel sweep returned %v, want ErrSweepCanceled", err)
	}
}

// TestCrashResumeSIGKILL is the crash harness: a subprocess runs the
// sweep with die-after-ckpt=1 armed, so the kernel kills it with
// SIGKILL — no deferred cleanup, no flushes — the instant its first
// mid-point checkpoint lands. The parent asserts the process died by
// signal, then resumes from the survivor directory and proves the rows
// are byte-identical to an uninterrupted run.
func TestCrashResumeSIGKILL(t *testing.T) {
	if dir := os.Getenv("CHOPIM_CRASH_DIR"); dir != "" {
		// Child payload: never returns normally.
		if err := faults.ArmSpec("die-after-ckpt=1"); err != nil {
			os.Exit(97)
		}
		ckptSweepRows(ckptSweepOpts(dir))
		os.Exit(98) // the kill never fired
	}
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashResumeSIGKILL$")
	cmd.Env = append(os.Environ(), "CHOPIM_CRASH_DIR="+dir)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("crash child did not die (err %v):\n%s", err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash child exited with %v, want death by SIGKILL:\n%s", err, out)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "point-*.ckpt"))
	if len(ckpts) == 0 {
		t.Fatal("SIGKILLed run left no durable checkpoint (the write was supposed to land first)")
	}

	ref, err := ckptSweepRows(ckptSweepOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	before := ReadRunnerStats()
	opt := ckptSweepOpts(dir)
	opt.Resume = true
	rows, err := ckptSweepRows(opt)
	if err != nil {
		t.Fatalf("resume after SIGKILL failed: %v", err)
	}
	after := ReadRunnerStats()
	if after.CkptRestores-before.CkptRestores < 1 {
		t.Errorf("resume restored %d mid-point checkpoints, want >=1 (recomputed instead?)",
			after.CkptRestores-before.CkptRestores)
	}
	if !reflect.DeepEqual(rows, ref) {
		t.Fatalf("crash+resume rows diverged from the uninterrupted run:\n want: %+v\n  got: %+v", ref, rows)
	}
}
