package svrg

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions below are the straightforward kernel that Run's
// one-pass summarization replaced: every snapshot is summarized by
// separate FullGradient and Loss passes, and each inner iteration
// recomputes the snapshot's logits and materializes both per-sample
// gradients. They are kept verbatim so TestRunMatchesReference pins the
// optimized kernel to them bit for bit.

func (m *Model) refLogits(x []float32, out []float64) {
	for c := 0; c < m.K; c++ {
		out[c] = 0
	}
	for j := 0; j < m.D; j++ {
		xj := float64(x[j])
		if xj == 0 {
			continue
		}
		row := m.W[j*m.K : j*m.K+m.K]
		for c := 0; c < m.K; c++ {
			out[c] += xj * row[c]
		}
	}
}

func (m *Model) refLoss(ds *Dataset) float64 {
	z := make([]float64, m.K)
	var total float64
	for i := 0; i < ds.N; i++ {
		x := ds.X[i*m.D : (i+1)*m.D]
		m.refLogits(x, z)
		softmax(z)
		p := z[ds.Y[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		total += -math.Log(p)
	}
	var reg float64
	for _, w := range m.W {
		reg += w * w
	}
	return total/float64(ds.N) + 0.5*m.Lambda*reg
}

func (m *Model) refFullGradient(ds *Dataset) []float64 {
	g := make([]float64, m.D*m.K)
	z := make([]float64, m.K)
	for i := 0; i < ds.N; i++ {
		x := ds.X[i*m.D : (i+1)*m.D]
		m.refLogits(x, z)
		softmax(z)
		z[ds.Y[i]] -= 1
		for j := 0; j < m.D; j++ {
			xj := float64(x[j])
			if xj == 0 {
				continue
			}
			row := g[j*m.K : j*m.K+m.K]
			for c := 0; c < m.K; c++ {
				row[c] += xj * z[c]
			}
		}
	}
	inv := 1 / float64(ds.N)
	for i := range g {
		g[i] = g[i]*inv + m.Lambda*m.W[i]
	}
	return g
}

func (m *Model) refSampleGradInto(ds *Dataset, i int, z, buf []float64) {
	x := ds.X[i*m.D : (i+1)*m.D]
	m.refLogits(x, z)
	softmax(z)
	z[ds.Y[i]] -= 1
	for j := 0; j < m.D; j++ {
		xj := float64(x[j])
		row := buf[j*m.K : j*m.K+m.K]
		for c := 0; c < m.K; c++ {
			row[c] = xj * z[c]
		}
	}
}

func refRun(ds *Dataset, lambda float64, cfg RunConfig) []Point {
	m := NewModel(ds.D, ds.K, lambda)
	rng := rand.New(rand.NewSource(cfg.Seed))
	dk := ds.D * ds.K

	snap := m.Clone()
	g := snap.refFullGradient(ds)
	prevSnap := snap
	prevG := g
	vel := make([]float64, dk)

	z := make([]float64, ds.K)
	gw := make([]float64, dk)
	gs := make([]float64, dk)

	var now float64
	switch cfg.Mode {
	case HostOnly:
		now += cfg.Timing.SummarizeHost
	default:
		now += cfg.Timing.SummarizeNDA
	}
	pts := []Point{{now, m.refLoss(ds)}}

	for outer := 0; outer < cfg.Outers; outer++ {
		epoch := cfg.Epoch
		useSnap, useG := snap, g
		if cfg.Mode == DelayedUpdate {
			epoch = int(cfg.Timing.SummarizeNDA/cfg.Timing.InnerIter) + 1
			useSnap, useG = prevSnap, prevG
		}
		for it := 0; it < epoch; it++ {
			i := rng.Intn(ds.N)
			m.refSampleGradInto(ds, i, z, gw)
			useSnap.refSampleGradInto(ds, i, z, gs)
			for j := 0; j < dk; j++ {
				grad := gw[j] - gs[j] + useG[j] + m.Lambda*(m.W[j]-useSnap.W[j])
				vel[j] = cfg.Momentum*vel[j] - cfg.LR*grad
				m.W[j] += vel[j]
			}
		}

		switch cfg.Mode {
		case HostOnly:
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeHost
			snap = m.Clone()
			g = snap.refFullGradient(ds)
		case Accelerated:
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeNDA
			snap = m.Clone()
			g = snap.refFullGradient(ds)
		case DelayedUpdate:
			now += cfg.Timing.SummarizeNDA + cfg.Timing.Exchange
			prevSnap, prevG = snap, snap.refFullGradient(ds)
			snap = m.Clone()
			g = prevG
		}
		pts = append(pts, Point{now, m.refLoss(ds)})
	}
	return pts
}

func refOptimum(ds *Dataset, lambda float64, seed int64) float64 {
	pts := refRun(ds, lambda, RunConfig{
		Mode: HostOnly, Epoch: 2 * ds.N, LR: 0.05, Momentum: 0.9,
		Outers: 40, Seed: seed,
		Timing: Timing{SummarizeHost: 1, InnerIter: 1e-6},
	})
	min := math.Inf(1)
	for _, p := range pts {
		if p.Loss < min {
			min = p.Loss
		}
	}
	return min
}

// referenceScales are the quick Fig 15 scale and one whose class count
// is not 10.
var referenceScales = []struct{ n, d, k int }{{512, 128, 10}, {1024, 300, 7}}

// TestRunMatchesReference pins every trajectory point of every mode, at
// epochs that do and do not divide N, bitwise to the reference kernel.
func TestRunMatchesReference(t *testing.T) {
	tm := Timing{SummarizeHost: 1e-3, SummarizeNDA: 2e-4, InnerIter: 1e-6, Exchange: 2e-6}
	for _, sc := range referenceScales {
		ds := Synthetic(sc.n, sc.d, sc.k, 7)
		for _, mode := range []Mode{HostOnly, Accelerated, DelayedUpdate} {
			for _, epoch := range []int{sc.n, sc.n / 4, sc.n / 3} {
				if mode == DelayedUpdate && epoch != sc.n {
					continue // delayed update derives its epoch from Timing
				}
				cfg := RunConfig{Mode: mode, Epoch: epoch, LR: 0.05, Momentum: 0.9,
					Outers: 4, Seed: 99, Timing: tm}
				got, want := Run(ds, 1e-3, cfg), refRun(ds, 1e-3, cfg)
				if len(got) != len(want) {
					t.Fatalf("%dx%dx%d %v epoch %d: %d points, want %d",
						sc.n, sc.d, sc.k, mode, epoch, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i].Seconds) != math.Float64bits(want[i].Seconds) ||
						math.Float64bits(got[i].Loss) != math.Float64bits(want[i].Loss) {
						t.Errorf("%dx%dx%d %v epoch %d point %d: %v, want %v",
							sc.n, sc.d, sc.k, mode, epoch, i, got[i], want[i])
					}
				}
			}
		}
	}
	ds := Synthetic(512, 128, 10, 7)
	if got, want := Optimum(ds, 1e-3, 11), refOptimum(ds, 1e-3, 11); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Optimum = %v, want %v", got, want)
	}
}

// TestSummarizeMatchesReference checks the one-pass summarization's
// gradient and loss bitwise against the separate reference passes, at
// the zero model and at a trained one.
func TestSummarizeMatchesReference(t *testing.T) {
	for _, sc := range referenceScales {
		ds := Synthetic(sc.n, sc.d, sc.k, 7)
		m := NewModel(ds.D, ds.K, 1e-3)
		for step := 0; step < 2; step++ {
			g := make([]float64, ds.D*ds.K)
			res := make([]float64, ds.N*ds.K)
			loss := m.summarize(ds, g, res)
			if want := m.refLoss(ds); math.Float64bits(loss) != math.Float64bits(want) {
				t.Errorf("%dx%dx%d step %d: loss %v, want %v", sc.n, sc.d, sc.k, step, loss, want)
			}
			for i, want := range m.refFullGradient(ds) {
				if math.Float64bits(g[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%dx%d step %d: g[%d] = %v, want %v", sc.n, sc.d, sc.k, step, i, g[i], want)
				}
			}
			if math.Float64bits(m.Loss(ds)) != math.Float64bits(loss) {
				t.Errorf("Loss differs from summarize")
			}
			for i, v := range m.FullGradient(ds) {
				if math.Float64bits(v) != math.Float64bits(g[i]) {
					t.Fatalf("FullGradient[%d] differs from summarize", i)
				}
			}
			z := make([]float64, ds.K)
			for i := 0; i < ds.N; i++ {
				m.refLogits(ds.X[i*ds.D:(i+1)*ds.D], z)
				softmax(z)
				z[ds.Y[i]] -= 1
				for c, want := range z {
					if got := res[i*ds.K+c]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%dx%dx%d step %d: residual[%d][%d] = %v, want %v",
							sc.n, sc.d, sc.k, step, i, c, got, want)
					}
				}
			}
			for i := range m.W {
				m.W[i] -= 0.5 * g[i]
			}
		}
	}
}
