package experiments

import (
	"fmt"
	"math"

	"chopim/internal/apps"
	"chopim/internal/sim"
	"chopim/internal/svrg"
)

// SVRGScale sizes the Fig 15 study. The paper trains on CIFAR-10
// (50000x3072); the default here is a scaled synthetic dataset whose
// matrix still exceeds the LLC, preserving the bandwidth-bound character
// of summarization (see DESIGN.md).
type SVRGScale struct {
	N, D, K int
	Lambda  float64
}

// DefaultSVRGScale returns the scaled study configuration.
func DefaultSVRGScale() SVRGScale { return SVRGScale{N: 4096, D: 768, K: 10, Lambda: 1e-3} }

// quickSVRGScale shrinks the study for tests.
func quickSVRGScale() SVRGScale { return SVRGScale{N: 512, D: 128, K: 10, Lambda: 1e-3} }

// CalibrateTiming measures the SVRG phase times on the simulated machine
// for a system with the given ranks per channel.
func CalibrateTiming(scale SVRGScale, ranksPerChannel int, opt Options) (svrg.Timing, error) {
	bw, err := hostStreamBandwidth(opt)
	if err != nil {
		return svrg.Timing{}, err
	}
	return calibrateTiming(scale, ranksPerChannel, bw, opt)
}

// calibrateTiming is CalibrateTiming given the host stream bandwidth bw
// (bytes/s), which does not depend on the rank count.
func calibrateTiming(scale SVRGScale, ranksPerChannel int, bw float64, opt Options) (svrg.Timing, error) {
	var t svrg.Timing

	// NDA summarization: run the Fig 8 kernel once, no host interference
	// (the ACC host blocks during summarization; the delayed-update host
	// traffic is cache-resident).
	cfg := sim.Default(-1)
	cfg.Geom = geomWithRanks(ranksPerChannel)
	s, err := opt.newSystem(cfg)
	if err != nil {
		return t, err
	}
	ag, err := apps.NewAverageGradient(s.RT, apps.AverageGradientConfig{N: scale.N, D: scale.D})
	if err != nil {
		return t, err
	}
	start := s.Now()
	h, err := ag.Run()
	if err != nil {
		return t, err
	}
	if err := s.Await(2_000_000_000, h); err != nil {
		return t, err
	}
	t.SummarizeNDA = sim.Seconds(s.Now() - start)

	// Host summarization: the host streams X twice (GEMV pass plus the
	// per-row AXPY pass) at its achievable stream bandwidth, measured by
	// a single-core streaming calibration run, and additionally pays the
	// gradient arithmetic at the core's FMA rate.
	xBytes := float64(scale.N) * float64(scale.D) * 4
	flops := 3 * float64(scale.N) * float64(scale.D) * float64(scale.K)
	const hostFlops = 32e9 // 4 GHz x 8-wide FMA pipeline
	t.SummarizeHost = 2*xBytes/bw + flops/hostFlops

	// Inner iteration: one sampled row streamed plus 3*D*K MACs.
	rowBytes := float64(scale.D) * 4
	t.InnerIter = rowBytes/bw + 3*float64(scale.D)*float64(scale.K)/hostFlops

	// Exchange: s and g (D*K floats each) copied twice with a fence.
	wBytes := float64(scale.D) * float64(scale.K) * 4
	t.Exchange = 4*wBytes/bw + 2e-6
	return t, nil
}

// hostStreamBandwidth measures achievable single-stream host read
// bandwidth (bytes/s) on the baseline system using the lbm-like
// streaming mix running alone.
func hostStreamBandwidth(opt Options) (float64, error) {
	s, err := opt.newSystem(sim.Default(3)) // lbm-led streaming mix
	if err != nil {
		return 0, err
	}
	res, err := measureConcurrent(s, nil, opt.withTag("fig15-hostbw"))
	if err != nil {
		return 0, err
	}
	if res.HostBWGBs <= 0 {
		return 0, fmt.Errorf("fig15: calibration produced zero bandwidth")
	}
	// Per-core share of the measured aggregate bandwidth.
	return res.HostBWGBs * 1e9 / 4, nil
}

// Fig15aCurve is one convergence trajectory.
type Fig15aCurve struct {
	Label  string
	Points []svrg.Point
}

// fig15aResult bundles the figure's two outputs so they cache as one
// entry.
type fig15aResult struct {
	Curves  []Fig15aCurve
	Optimum float64
}

// Fig15a reproduces Figure 15a: training-loss-minus-optimum versus time
// for host-only and accelerated SVRG at epoch lengths N, N/2, N/4, plus
// delayed-update SVRG, with 8 NDAs (2x4).
func Fig15a(opt Options) ([]Fig15aCurve, float64, error) {
	r, err := figCached(opt, "fig15a", fig15aRun)
	if err != nil {
		return nil, 0, err
	}
	return r.Curves, r.Optimum, nil
}

func fig15aRun(opt Options) (fig15aResult, error) {
	scale := DefaultSVRGScale()
	outers := 30
	if opt.Quick {
		scale = quickSVRGScale()
		outers = 8
	}
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, 7)
	timing, err := CalibrateTiming(scale, 4, opt)
	if err != nil {
		return fig15aResult{}, err
	}
	opt15 := svrg.Optimum(ds, scale.Lambda, 11)

	lr := 0.05
	modes := []struct {
		mode  svrg.Mode
		epoch int
		label string
	}{
		{svrg.HostOnly, scale.N, "HO, Epoch (N)"},
		{svrg.HostOnly, scale.N / 2, "HO, Epoch (N/2)"},
		{svrg.HostOnly, scale.N / 4, "HO, Epoch (N/4)"},
		{svrg.Accelerated, scale.N, "ACC, Epoch (N)"},
		{svrg.Accelerated, scale.N / 2, "ACC, Epoch (N/2)"},
		{svrg.Accelerated, scale.N / 4, "ACC, Epoch (N/4)"},
		{svrg.DelayedUpdate, 0, "DelayedUpdate"},
	}
	curves, err := sharded(opt, len(modes), func(i int) (Fig15aCurve, error) {
		m := modes[i]
		pts := svrg.Run(ds, scale.Lambda, svrg.RunConfig{
			Mode: m.mode, Epoch: m.epoch, LR: lr, Momentum: 0.9,
			Outers: outers, Seed: 99, Timing: timing,
		})
		return Fig15aCurve{Label: m.label, Points: pts}, nil
	})
	if err != nil {
		return fig15aResult{}, err
	}
	return fig15aResult{Curves: curves, Optimum: opt15}, nil
}

// Fig15bRow is one NDA-count scaling result.
type Fig15bRow struct {
	NDAs           int
	SpeedupACCBest float64
	SpeedupDelayed float64
}

// Fig15b reproduces Figure 15b: time-to-convergence speedup over
// host-only for the best serialized accelerated configuration and for
// delayed-update SVRG at 4, 8, and 16 NDAs.
func Fig15b(opt Options) ([]Fig15bRow, error) { return figCached(opt, "fig15b", fig15bRows) }

func fig15bRows(opt Options) ([]Fig15bRow, error) {
	scale := DefaultSVRGScale()
	outers := 40
	ndaCounts := []int{4, 8, 16}
	if opt.Quick {
		scale = quickSVRGScale()
		outers = 10
		ndaCounts = []int{4, 8}
	}
	ds := svrg.Synthetic(scale.N, scale.D, scale.K, 7)
	optimum := svrg.Optimum(ds, scale.Lambda, 11)

	// Host-only reference runs. The convergence threshold is adaptive:
	// 1.5x the best final loss gap any host-only run achieves, so every
	// configuration's time-to-reach is well defined at any study scale
	// (the paper uses a fixed 1e-13 on its much longer runs). Host-only
	// runs read only the bandwidth-derived phase times; the 4-NDA row
	// reuses this calibration, which is at its rank count.
	bw, err := hostStreamBandwidth(opt)
	if err != nil {
		return nil, err
	}
	const ranks0 = 2
	timing0, err := calibrateTiming(scale, ranks0, bw, opt)
	if err != nil {
		return nil, err
	}
	var hoRuns [][]svrg.Point
	bestFinalGap := math.Inf(1)
	for _, e := range []int{scale.N, scale.N / 2, scale.N / 4} {
		pts := svrg.Run(ds, scale.Lambda, svrg.RunConfig{
			Mode: svrg.HostOnly, Epoch: e, LR: 0.05, Momentum: 0.9,
			Outers: outers, Seed: 99, Timing: timing0,
		})
		hoRuns = append(hoRuns, pts)
		if gap := pts[len(pts)-1].Loss - optimum; gap < bestFinalGap {
			bestFinalGap = gap
		}
	}
	eps := 1.5 * bestFinalGap
	if eps <= 0 {
		eps = 1e-12
	}
	hoBest := math.Inf(1)
	for _, pts := range hoRuns {
		if tt, ok := svrg.TimeToReach(pts, optimum, eps); ok && tt < hoBest {
			hoBest = tt
		}
	}
	if math.IsInf(hoBest, 1) {
		return nil, fmt.Errorf("fig15b: host-only runs never reached adaptive eps=%g", eps)
	}

	return sharded(opt, len(ndaCounts), func(i int) (Fig15bRow, error) {
		ndas := ndaCounts[i]
		timing := timing0
		if ndas/2 != ranks0 {
			var err error
			if timing, err = calibrateTiming(scale, ndas/2, bw, opt); err != nil {
				return Fig15bRow{}, err
			}
		}
		accBest := math.Inf(1)
		for _, e := range []int{scale.N, scale.N / 2, scale.N / 4} {
			pts := svrg.Run(ds, scale.Lambda, svrg.RunConfig{
				Mode: svrg.Accelerated, Epoch: e, LR: 0.05, Momentum: 0.9,
				Outers: outers, Seed: 99, Timing: timing,
			})
			if tt, ok := svrg.TimeToReach(pts, optimum, eps); ok && tt < accBest {
				accBest = tt
			}
		}
		// Delayed update's outer iterations are short (summarize +
		// exchange only); give it enough to span the host-only
		// reference wall-clock so time-to-reach is comparable.
		duOuters := int(hoBest/(timing.SummarizeNDA+timing.Exchange)) + 1
		if duOuters > 50*outers {
			duOuters = 50 * outers
		}
		if duOuters < outers {
			duOuters = outers
		}
		delayed := math.Inf(1)
		for _, lr := range []float64{0.03, 0.05} {
			pts := svrg.Run(ds, scale.Lambda, svrg.RunConfig{
				Mode: svrg.DelayedUpdate, LR: lr, Momentum: 0.9,
				Outers: duOuters, Seed: 99, Timing: timing,
			})
			if tt, ok := svrg.TimeToReach(pts, optimum, eps); ok && tt < delayed {
				delayed = tt
			}
		}
		row := Fig15bRow{NDAs: ndas}
		if !math.IsInf(accBest, 1) {
			row.SpeedupACCBest = hoBest / accBest
		}
		if !math.IsInf(delayed, 1) {
			row.SpeedupDelayed = hoBest / delayed
		}
		return row, nil
	})
}
