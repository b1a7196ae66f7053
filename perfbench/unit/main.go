// Command unit runs one unit of a perfbench workload in a fresh process
// and prints one JSON object describing it: the timed wall time, the
// set-up time before it, peak resident memory and the simulated outputs
// (which perfbench/run.py checks). With -trace it also profiles the whole
// process and reports the spans of its calls into the simulator, counters
// read from public accessors, and CPU self time per package.
//
// Every unit is serial (Parallel=1, SimWorkers=1) and uses no cache,
// journal or checkpoint directory, so it pays the same process-wide
// first-use costs a user's chopim invocation pays.
//
//	unit -workload mixed_copy -seed 1 -t0 <spawn time, unix ns> [-trace cpu.pprof]
//	unit -reference   # exact full-budget Fig 11 rows, for expected.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"chopim/internal/apps"
	"chopim/internal/dram"
	"chopim/internal/experiments"
	"chopim/internal/nda"
	"chopim/internal/ndart"
	"chopim/internal/sim"
	"chopim/internal/workload"
)

// Simulated work of the two direct workloads, in DRAM cycles.
const (
	warmCycles    = 50_000
	measureCycles = 400_000
	// copyBytes sizes each COPY operand so the op outlives warm-up plus
	// the timed window about twice over; the unit fails if it does not.
	copyBytes = 8 << 20
)

// span is one call the unit makes into a layer's public API.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// report is the unit's output line.
type report struct {
	Error   string             `json:"error,omitempty"`
	WallS   float64            `json:"wall_s"`
	SetupS  float64            `json:"setup_s"`
	PeakRSS float64            `json:"peak_rss_mb"`
	Output  any                `json:"output"`
	Spans   []span             `json:"spans,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
	SelfS   map[string]float64 `json:"self_s,omitempty"`
}

// unit carries one run's clock, span log and counters.
type unit struct {
	t0       time.Time
	trace    bool
	spans    []span
	timedAt  time.Time
	timedDur time.Duration
	counts   map[string]float64
}

// call runs fn, recording it as a span when tracing.
func (u *unit) call(name, parent string, fn func() error) error {
	a := time.Now()
	err := fn()
	if u.trace {
		u.spans = append(u.spans, span{name, parent, a.Sub(u.t0).Seconds(), time.Since(u.t0).Seconds()})
	}
	return err
}

// timed runs fn as the unit's timed phase; the runtime's allocation and
// GC counters are read around it, outside the clock.
func (u *unit) timed(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u.timedAt = time.Now()
	err := u.call(name, "timed", fn)
	u.timedDur = time.Since(u.timedAt)
	runtime.ReadMemStats(&m1)
	u.counts["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	u.counts["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	return err
}

func main() {
	wl := flag.String("workload", "", "mixed_copy | host_compute | sampled_fig11 | svrg_fig15b")
	seed := flag.Int64("seed", 1, "workload seed (direct workloads only)")
	t0ns := flag.Int64("t0", 0, "spawn time in unix nanoseconds, the start of set-up (0 = now)")
	prof := flag.String("trace", "", "write a CPU profile to this file and report spans, counters and per-package self time")
	reference := flag.Bool("reference", false, "print exact full-budget Fig 11 rows and exit")
	flag.Parse()

	if *reference {
		rows, err := experiments.Fig11(serial(experiments.DefaultOptions()))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		emit(rows)
		return
	}
	u := &unit{t0: time.Now(), trace: *prof != "", counts: map[string]float64{}}
	if *t0ns != 0 {
		u.t0 = time.Unix(0, *t0ns)
	}
	var pf *os.File
	if u.trace {
		f, err := os.Create(*prof)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pf = f
	}
	out, err := u.run(*wl, *seed)
	rep := report{
		Output:  out,
		WallS:   u.timedDur.Seconds(),
		SetupS:  u.timedAt.Sub(u.t0).Seconds(),
		PeakRSS: peakRSSMB(),
	}
	if u.trace {
		pprof.StopCPUProfile()
		if cerr := pf.Close(); cerr != nil && err == nil {
			err = cerr
		}
		self, perr := packageSelfTime(*prof)
		if perr != nil && err == nil {
			err = perr
		}
		rep.Spans, rep.Counts, rep.SelfS = u.spans, u.counts, self
	}
	if err != nil {
		rep.Error = err.Error()
	}
	emit(rep)
	if err != nil {
		os.Exit(1)
	}
}

// run executes one workload, converting a panic into an error so the
// orchestrator counts the unit as failed.
func (u *unit) run(wl string, seed int64) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	switch wl {
	case "mixed_copy":
		return u.direct(seeded(sim.Default(1), seed), true)
	case "host_compute":
		cfg := sim.Default(-1)
		p := workload.ComputeHeavy()
		cfg.HostProfiles = []workload.Profile{p, p, p, p}
		return u.direct(seeded(cfg, seed), false)
	case "sampled_fig11":
		opt := serial(experiments.DefaultOptions())
		opt.Sampled = true
		return figure(u, "experiments.Fig11", opt, experiments.Fig11)
	case "svrg_fig15b":
		return figure(u, "experiments.Fig15b", serial(experiments.QuickOptions()), experiments.Fig15b)
	}
	return nil, fmt.Errorf("unknown workload %q", wl)
}

// serial pins a figure's options to one process and one worker; no
// cache, journal or checkpoint directory is set.
func serial(o experiments.Options) experiments.Options {
	o.Parallel, o.SimWorkers = 1, 1
	return o
}

// seeded applies the workload seed to a serial system config. Seed 1
// keeps the library defaults (sim seed 1, NDA seed 42).
func seeded(cfg sim.Config, seed int64) sim.Config {
	cfg.SimWorkers = 1
	cfg.Seed = seed
	cfg.NDA.Seed = nda.DefaultConfig().Seed + seed - 1
	return cfg
}

// directOutput is the stat vector checked for the direct workloads.
type directOutput struct {
	HostIPC      float64
	Retired      []int64
	Counts       dram.CmdCounts
	NDA          nda.RankStats
	CopyInFlight bool
}

// direct builds a system, optionally launches a rank-private COPY,
// warms up, and times a fixed RunFast window. Counters cover the whole
// unit; the per-instruction and per-cycle rates cover the timed window.
func (u *unit) direct(cfg sim.Config, withCopy bool) (any, error) {
	var s *sim.System
	if err := u.call("sim.New", "setup", func() (err error) {
		s, err = sim.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	defer s.Close()
	var h *ndart.Handle
	if withCopy {
		if err := u.call("operand.alloc", "setup", func() error {
			app, err := apps.NewMicroPlaced(s.RT, "copy", copyBytes/4, ndart.Private)
			if err == nil {
				h, err = app.Iterate()
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := u.call("sim.RunFast.warm", "setup", func() error { return s.RunFast(warmCycles) }); err != nil {
		return nil, err
	}
	s.BeginMeasurement()
	var retired0 int64
	for _, c := range s.Cores {
		retired0 += c.Retired
	}
	if err := u.timed("sim.RunFast.measure", func() error { return s.RunFast(measureCycles) }); err != nil {
		return nil, err
	}
	out := directOutput{HostIPC: s.HostIPC(), Counts: s.Mem.Counts(), NDA: s.NDA.TotalStats()}
	var retired int64
	for _, c := range s.Cores {
		out.Retired = append(out.Retired, c.Retired)
		retired += c.Retired
	}
	if withCopy {
		out.CopyInFlight = !h.Done()
		if !out.CopyInFlight {
			return out, errors.New("COPY finished inside the timed window")
		}
	}
	ns := float64(u.timedDur.Nanoseconds())
	c := s.Mem.Counts()
	cols := c.RD + c.WR + c.NDARD + c.NDAWR
	st := out.NDA
	for k, v := range map[string]float64{
		"dram.cmds":         float64(c.ACT + c.PRE + cols),
		"dram.row_hit":      1 - float64(c.ACT)/float64(max(cols, 1)),
		"nda.blocks":        float64(st.BlocksRead + st.BlocksWritten),
		"nda.stalls_host":   float64(st.StallsHost),
		"nda.stalls_policy": float64(st.StallsPolicy),
		"cache.demand":      float64(s.Hier.Demand),
		"cache.prefetches":  float64(s.Hier.Prefetches),
		"cpu.retired":       float64(retired),
		"cpu.ns_per_instr":  ns / float64(max(retired-retired0, 1)),
		"sim.dram_cycles":   float64(s.Now()),
		"sim.ns_per_cycle":  ns / measureCycles,
		"ndart.launches":    float64(s.RT.Launches),
	} {
		u.counts[k] = v
	}
	return out, nil
}

// figure times one whole figure call as a user's chopim run makes it.
func figure[T any](u *unit, name string, opt experiments.Options, fig func(experiments.Options) (T, error)) (any, error) {
	var rows T
	err := u.timed(name, func() (err error) {
		rows, err = fig(opt)
		return err
	})
	st := experiments.ReadRunnerStats()
	u.counts["experiments.points"] = float64(st.Jobs)
	u.counts["experiments.warm_forks"] = float64(st.WarmForks)
	if r11, ok := any(rows).([]experiments.Fig11Row); ok {
		// Simulated cycles of the NDA points' sampled schedules; the
		// rows do not carry the host-only points' cycles.
		var cyc int64
		for _, r := range r11 {
			cyc += r.SharedDOT.Cycles + r.SharedCOPY.Cycles + r.PartDOT.Cycles + r.PartCOPY.Cycles
		}
		u.counts["sim.dram_cycles"] = float64(cyc)
		u.counts["sim.ns_per_cycle"] = float64(u.timedDur.Nanoseconds()) / float64(max(cyc, 1))
	}
	return rows, err
}

// peakRSSMB returns the process's resident-set high-water mark. It
// reads VmHWM rather than getrusage's maxrss, which keeps the forking
// parent's peak across exec.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024
		}
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(append(b, '\n'))
}
