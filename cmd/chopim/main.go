// Command chopim regenerates the tables and figures of "Near Data
// Acceleration with Concurrent Host Access" (ISCA 2020) on the simulated
// system. Each subcommand prints the rows/series the paper reports.
//
// Usage:
//
//	chopim [-quick] [-warm N] [-measure N] [-parallel N]
//	       [-cache-dir D] [-checkpoint D [-resume]]
//	       [-checkpoint-every N] [-on-interrupt=checkpoint|drain|abort]
//	       [-check-invariants] [-deadline D] [-point-retries N] [-fail-fast]
//	       [-cpuprofile F] [-memprofile F] <experiment>
//
// Experiments: fig2 fig10 fig11 fig12 fig13 fig14 fig15a fig15b power
// config all
//
// -cache-dir D keeps a content-addressed result cache: every figure's
// rows are stored under a hash of the model version and the
// behavior-selecting options, and a later run whose fingerprint matches
// replays the stored rows without simulating (figures are deterministic,
// so the replay is exact). -checkpoint D journals each completed
// simulation point of every sweep as it finishes; -resume makes an
// interrupted run pick up at the last completed point. A run with
// either flag reports cache hits/misses and resumed points at exit.
//
// -parallel N shards each figure's independent simulation points across
// N workers (-1 = all CPUs). Each point runs serially on its worker
// (DESIGN.md §2.5), and tables are identical for every setting.
//
// Robustness flags: -check-invariants arms the simulator's cross-layer
// conservation checker on every point (results are bit-identical with
// it on or off; violations quarantine the point instead of corrupting
// the table). -deadline D bounds each point's wall-clock time;
// -point-retries N retries transient point failures with backoff.
// Sweeps run in partial-failure mode by default — healthy points
// complete and the failures are reported together — while -fail-fast
// restores abort-on-first-error. -inject arms a named fault for the
// fault-injection smoke tests (see internal/faults).
//
// Interrupt & resume: -checkpoint-every N additionally persists each
// in-flight point's full simulator state every N cycles into the
// -checkpoint directory, so a kill -9 costs at most N cycles of one
// point; the next -resume run restores the newest valid mid-point
// checkpoint and continues bit-identically. SIGINT/SIGTERM cancel the
// sweep cooperatively per -on-interrupt — checkpoint (default: stop
// every point at its next quiescent boundary and persist it), drain
// (finish in-flight points, admit no more), or abort — then exit 130;
// a second signal force-exits immediately.
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiment; per-package attribution of a benchmark workload comes
// from perfbench/run.py --trace 1 (see README.md, "Profiling").
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"chopim/internal/dram"
	"chopim/internal/experiments"
	"chopim/internal/faults"
	"chopim/internal/sim"
	"chopim/internal/stats"
)

func main() { os.Exit(run()) }

// run executes the CLI; profile writers installed here flush on every
// return path (os.Exit would skip deferred writes).
func run() (code int) {
	// Last-resort boundary: the runner quarantines per-point panics, but
	// a panic outside any point (flag handling, table rendering, a bug
	// in the harness itself) should still exit with a diagnostic and a
	// distinct code rather than a bare crash.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "chopim: internal panic: %v\n%s", r, debug.Stack())
			code = 3
		}
	}()
	quick := flag.Bool("quick", false, "reduced simulation budget")
	warm := flag.Int64("warm", 0, "warm-up cycles (0 = default)")
	measure := flag.Int64("measure", 0, "measurement cycles (0 = default)")
	parallel := flag.Int("parallel", -1, "workers for independent simulation points (-1 = all CPUs, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	cacheDir := flag.String("cache-dir", "",
		"content-addressed figure result cache: replay figures whose options fingerprint matches a stored entry, store the rest")
	checkpoint := flag.String("checkpoint", "",
		"sweep progress journal directory: record each completed simulation point as it finishes")
	resume := flag.Bool("resume", false,
		"pick an interrupted sweep up at the last completed point recorded in the -checkpoint journals")
	checkInvariants := flag.Bool("check-invariants", false,
		"validate cross-layer conservation invariants at every commit barrier (bit-identical results, slower; violations quarantine the point)")
	deadline := flag.Duration("deadline", 0,
		"per-point wall-clock deadline (0 = none); an expired point fails with partial stats and the sweep continues")
	pointRetries := flag.Int("point-retries", 0,
		"retries with exponential backoff for transient per-point failures")
	failFast := flag.Bool("fail-fast", false,
		"abort a sweep at the first failing point instead of completing the healthy ones")
	inject := flag.String("inject", "",
		"arm a fault for smoke testing: panic-point=K, point-err=K:N, stuck-horizon=C, ckpt-torn=K, ckpt-badsum=K, or die-after-ckpt=N")
	ckptEvery := flag.Int64("checkpoint-every", 0,
		"cycles between durable mid-point checkpoints of each in-flight simulation (0 = off; requires -checkpoint DIR)")
	onInterrupt := flag.String("on-interrupt", "checkpoint",
		"first SIGINT/SIGTERM behavior: checkpoint (cancel points at a quiescent boundary and persist them), drain (finish in-flight points, admit no more), abort (exit immediately)")
	sampled := flag.Bool("sampled", false,
		"SMARTS-style sampled execution: short detailed windows separated by functional fast-forward, reporting per-window means (approximate; see DESIGN.md §2.11)")
	sampleWindows := flag.Int("sample-windows", 0,
		"sampled mode: measured detailed windows per point (0 = default 8; implies -sampled)")
	sampleDetail := flag.Int64("sample-detail", 0,
		"sampled mode: measured cycles per window (0 = default 1000; implies -sampled)")
	sampleFF := flag.Int64("sample-ff", 0,
		"sampled mode: functionally fast-forwarded cycles between windows (0 = default 20000; implies -sampled)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chopim [flags] <fig2|fig10|fig11|fig12|fig13|fig14|fig15a|fig15b|power|config|all>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chopim: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "chopim: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	opt := experiments.DefaultOptions()
	if *quick {
		opt = experiments.QuickOptions()
	}
	if *warm > 0 {
		opt.WarmCycles = *warm
	}
	if *measure > 0 {
		opt.MeasureCycles = *measure
	}
	opt.Parallel = *parallel
	if *resume && *checkpoint == "" {
		fmt.Fprintf(os.Stderr, "chopim: -resume requires -checkpoint DIR (the journals to resume from)\n")
		return 2
	}
	if *ckptEvery > 0 && *checkpoint == "" {
		fmt.Fprintf(os.Stderr, "chopim: -checkpoint-every requires -checkpoint DIR (where the checkpoints live)\n")
		return 2
	}
	switch *onInterrupt {
	case "checkpoint", "drain", "abort":
	default:
		fmt.Fprintf(os.Stderr, "chopim: -on-interrupt=%q (want checkpoint, drain, or abort)\n", *onInterrupt)
		return 2
	}
	opt.CacheDir = *cacheDir
	opt.JournalDir = *checkpoint
	opt.Resume = *resume
	opt.CheckInvariants = *checkInvariants
	opt.PointTimeout = *deadline
	opt.PointRetries = *pointRetries
	opt.KeepGoing = !*failFast
	if *inject != "" {
		if err := faults.ArmSpec(*inject); err != nil {
			fmt.Fprintf(os.Stderr, "chopim: -inject: %v\n", err)
			return 2
		}
	}
	opt.CheckpointEvery = *ckptEvery
	if *sampleWindows > 0 || *sampleDetail > 0 || *sampleFF > 0 {
		*sampled = true
	}
	if *sampled {
		opt.Sampled = true
		opt.Sample.Windows = *sampleWindows
		opt.Sample.Detail = *sampleDetail
		opt.Sample.FF = *sampleFF
	}
	cancel := &experiments.Canceler{}
	opt.Cancel = cancel
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		for range sigCh {
			if interrupted.Swap(true) {
				fmt.Fprintln(os.Stderr, "chopim: second signal, forcing exit")
				os.Exit(130)
			}
			switch *onInterrupt {
			case "drain":
				fmt.Fprintln(os.Stderr, "chopim: interrupt: draining in-flight points (signal again to force exit)")
				cancel.CancelAdmission()
			case "abort":
				os.Exit(130)
			default: // checkpoint
				fmt.Fprintln(os.Stderr, "chopim: interrupt: stopping (checkpointing in-flight points; signal again to force exit)")
				cancel.CancelPoints()
			}
		}
	}()
	if *cacheDir != "" || *checkpoint != "" {
		defer printCacheStats()
	}
	defer printSweepHealth()

	cmds := map[string]func(experiments.Options) error{
		"fig2":   runFig2,
		"fig10":  runFig10,
		"fig11":  runFig11,
		"fig12":  runFig12,
		"fig13":  runFig13,
		"fig14":  runFig14,
		"fig15a": runFig15a,
		"fig15b": runFig15b,
		"power":  runPower,
		"config": runConfig,
		"ablate": runAblate,
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range []string{"config", "fig2", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "power"} {
			fmt.Printf("\n===== %s =====\n", n)
			if err := cmds[n](opt); err != nil {
				fmt.Fprintf(os.Stderr, "chopim %s: %v\n", n, err)
				if canceledRun(err) {
					return 130
				}
				return 1
			}
		}
		st := experiments.ReadRunnerStats()
		fmt.Printf("\nrunner: %d points (%d failed), %s simulation time across <=%d workers\n",
			st.Jobs, st.Errors, st.BusyTime.Round(time.Millisecond), st.MaxShards)
		return 0
	}
	cmd, ok := cmds[name]
	if !ok {
		flag.Usage()
		return 2
	}
	if err := cmd(opt); err != nil {
		fmt.Fprintf(os.Stderr, "chopim %s: %v\n", name, err)
		if canceledRun(err) {
			return 130
		}
		return 1
	}
	if interrupted.Load() {
		// The signal landed after the last point finished: the tables
		// above are complete, but a cancel-requested run still reports
		// the conventional interrupted exit status.
		return 130
	}
	return 0
}

// canceledRun classifies an experiment error as cooperative
// cancellation — a drained sweep (ErrSweepCanceled) or a point cut by
// the stop flag (*sim.CanceledError) — so the process exits 130, the
// conventional interrupted status, rather than 1.
func canceledRun(err error) bool {
	if errors.Is(err, experiments.ErrSweepCanceled) {
		return true
	}
	var ce *sim.CanceledError
	return errors.As(err, &ce)
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// printCacheStats reports result-cache and resume activity after a run
// with -cache-dir or -checkpoint (CI greps this line to assert the
// second run of a cached figure hits).
func printCacheStats() {
	st := experiments.ReadRunnerStats()
	fmt.Printf("\ncache: %d hits, %d misses; resumed %d points; %d warm forks\n",
		st.CacheHits, st.CacheMisses, st.Resumed, st.WarmForks)
}

// printSweepHealth reports fault-handling activity on stderr after any
// run where it occurred: panics quarantined, transient retries, or
// deadline expiries. Quiet on healthy runs; CI's fault-injection smoke
// greps for it.
func printSweepHealth() {
	st := experiments.ReadRunnerStats()
	if st.Panics != 0 || st.Retries != 0 || st.Timeouts != 0 || st.Quarantined != 0 {
		fmt.Fprintf(os.Stderr, "sweep health: %d panics (%d points quarantined), %d retries, %d deadline expiries\n",
			st.Panics, st.Quarantined, st.Retries, st.Timeouts)
	}
	if st.Canceled != 0 || st.CkptWrites != 0 || st.CkptRestores != 0 {
		fmt.Fprintf(os.Stderr, "interrupt: %d points canceled, %d checkpoints written, %d points resumed mid-flight\n",
			st.Canceled, st.CkptWrites, st.CkptRestores)
	}
}

func runFig2(opt experiments.Options) error {
	rows, err := experiments.Fig2(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprint(w, "mix")
	for b := stats.IdleBucket(0); b < stats.NumIdleBuckets; b++ {
		fmt.Fprintf(w, "\t%s", b)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprint(w, r.Mix)
		for _, f := range r.Fractions {
			fmt.Fprintf(w, "\t%.3f", f)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runFig10(opt experiments.Options) error {
	rows, err := experiments.Fig10(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "ranks/ch\tblocks/instr\thost IPC\tNDA BW util")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.3f\n", r.Ranks, r.BlocksPer, r.HostIPC, r.NDAUtil)
	}
	return w.Flush()
}

func runFig11(opt experiments.Options) error {
	rows, err := experiments.Fig11(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mix\tconfig\thost IPC\tNDA BW util")
	for _, r := range rows {
		for _, c := range []struct {
			name string
			res  experiments.Result
		}{
			{"Shared+DOT", r.SharedDOT}, {"Shared+COPY", r.SharedCOPY},
			{"Partitioned+DOT", r.PartDOT}, {"Partitioned+COPY", r.PartCOPY},
		} {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Mix, c.name, c.res.HostIPC, c.res.NDAUtil)
		}
		fmt.Fprintf(w, "%s\tIdealized\t%.3f\t1.000\n", r.Mix, r.IdealHostIPC)
	}
	return w.Flush()
}

func runFig12(opt experiments.Options) error {
	rows, err := experiments.Fig12(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mix\tpolicy\thost IPC\tNDA BW util")
	for _, r := range rows {
		for _, p := range r.Points {
			fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Mix, p.Label, p.Res.HostIPC, p.Res.NDAUtil)
		}
	}
	return w.Flush()
}

func runFig13(opt experiments.Options) error {
	rows, err := experiments.Fig13(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "op\tsize\thost IPC\tNDA BW util")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\n", r.Op, r.Size, r.HostIPC, r.NDAUtil)
	}
	return w.Flush()
}

func runFig14(opt experiments.Options) error {
	rows, err := experiments.Fig14(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "ranks/ch\tworkload\tChopim IPC\tChopim NDA GB/s\tRP IPC\tRP NDA GB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%.3f\t%.2f\t%.3f\t%.2f\n",
			r.Ranks, r.Workload, r.ChopimHostIPC, r.ChopimNDABW, r.RPHostIPC, r.RPNDABW)
	}
	return w.Flush()
}

func runFig15a(opt experiments.Options) error {
	curves, optimum, err := experiments.Fig15a(opt)
	if err != nil {
		return err
	}
	fmt.Printf("optimum loss: %.9f\n", optimum)
	w := tw()
	fmt.Fprintln(w, "curve\ttime(s)\tloss-optimum")
	for _, c := range curves {
		for _, p := range c.Points {
			fmt.Fprintf(w, "%s\t%.4f\t%.3e\n", c.Label, p.Seconds, p.Loss-optimum)
		}
	}
	return w.Flush()
}

func runFig15b(opt experiments.Options) error {
	rows, err := experiments.Fig15b(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "NDAs\tACC_Best speedup\tDelayedUpdate speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", r.NDAs, r.SpeedupACCBest, r.SpeedupDelayed)
	}
	return w.Flush()
}

func runPower(opt experiments.Options) error {
	rows, err := experiments.Power(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "scenario\tavg power (W)\tACT (J)\thost IO (J)\tNDA IO (J)\tcompute (J)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3e\t%.3e\t%.3e\t%.3e\n",
			r.Scenario, r.AvgPowerW, r.Breakdown.ActivateJ, r.Breakdown.HostIOJ,
			r.Breakdown.NDAIOJ, r.Breakdown.ComputeJ)
	}
	return w.Flush()
}

func runAblate(opt experiments.Options) error {
	rows, err := experiments.Ablations(opt)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "study\tsetting\thost IPC\tNDA BW util\tnotes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%s\n", r.Study, r.Setting, r.HostIPC, r.NDAUtil, r.Extra)
	}
	return w.Flush()
}

func runConfig(experiments.Options) error {
	g := dram.DefaultGeometry()
	t := dram.DDR42400()
	fmt.Printf("Table II system configuration\n")
	fmt.Printf("geometry: %d channels x %d ranks, %d bank groups x %d banks, %d rows x %d blocks (%.0f GiB)\n",
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, g.Rows, g.Cols,
		float64(g.Capacity())/(1<<30))
	fmt.Printf("timing: %+v\n", t)
	return nil
}
