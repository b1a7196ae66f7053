// Package svrg implements the paper's Section IV case study: 10-class
// logistic regression trained with stochastic variance-reduced gradient
// descent, in three execution modes — host-only, NDA-accelerated
// (serialized summarization), and the paper's delayed-update variant that
// runs summarization on the NDAs concurrently with the host's inner loop
// using one-epoch-stale correction terms.
//
// The optimization math is real (losses are actually minimized); the
// execution times attached to each phase come from the performance
// simulation (see internal/experiments), so convergence-versus-time
// curves reflect the simulated machine.
package svrg

import (
	"math"
	"math/rand"
)

// Dataset is a dense multi-class classification problem.
type Dataset struct {
	N, D, K int
	X       []float32 // N x D row-major
	Y       []int     // labels in [0, K)
}

// Synthetic generates a deterministic Gaussian-mixture dataset standing
// in for CIFAR-10 (see DESIGN.md substitutions).
func Synthetic(n, d, k int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{N: n, D: d, K: k, X: make([]float32, n*d), Y: make([]int, n)}
	// Class centers.
	centers := make([]float64, k*d)
	for i := range centers {
		centers[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		c := i % k
		ds.Y[i] = c
		for j := 0; j < d; j++ {
			ds.X[i*d+j] = float32(centers[c*d+j] + 2.0*rng.NormFloat64())
		}
	}
	// Normalize so E||x||^2 ~= 1: keeps a single learning-rate range
	// stable across dataset scales (CIFAR pipelines normalize too).
	var sum float64
	for _, v := range ds.X {
		sum += float64(v) * float64(v)
	}
	scale := math.Sqrt(float64(n) / sum)
	for i := range ds.X {
		ds.X[i] = float32(float64(ds.X[i]) * scale)
	}
	return ds
}

// Model is the softmax-regression parameter matrix (D x K) with L2
// regularization lambda.
type Model struct {
	D, K   int
	W      []float64 // D x K row-major
	Lambda float64
}

// NewModel builds a zero-initialized model.
func NewModel(d, k int, lambda float64) *Model {
	return &Model{D: d, K: k, W: make([]float64, d*k), Lambda: lambda}
}

// Clone deep-copies the model parameters.
func (m *Model) Clone() *Model {
	w := make([]float64, len(m.W))
	copy(w, m.W)
	return &Model{D: m.D, K: m.K, W: w, Lambda: m.Lambda}
}

// logits computes x*W into out (length K).
func (m *Model) logits(x []float32, out []float64) {
	k := len(out)
	w := m.W[:len(x)*k]
	for c := range out {
		out[c] = 0
	}
	for j, xv := range x {
		xj := float64(xv)
		if xj == 0 {
			continue
		}
		row := w[j*k:][:k]
		for c := range out {
			out[c] += xj * row[c]
		}
	}
}

// softmax converts logits to probabilities in place, returning logsumexp.
func softmax(z []float64) float64 {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - max)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
	return max + math.Log(sum)
}

// Loss returns the regularized mean cross-entropy over the dataset.
func (m *Model) Loss(ds *Dataset) float64 {
	return m.summarize(ds, make([]float64, m.D*m.K), nil)
}

// FullGradient computes the exact regularized gradient at the model (the
// summarization task the NDAs accelerate).
func (m *Model) FullGradient(ds *Dataset) []float64 {
	g := make([]float64, m.D*m.K)
	m.summarize(ds, g, nil)
	return g
}

// summarize makes the one pass over the dataset that a snapshot needs:
// it writes the regularized full gradient into g (D*K), each row's
// residual softmax(x*W) - onehot(y) into res (N*K; nil skips them), and
// returns the regularized loss.
func (m *Model) summarize(ds *Dataset, g, res []float64) float64 {
	k := m.K
	for i := range g {
		g[i] = 0
	}
	scratch := make([]float64, k)
	var total float64
	for i := 0; i < ds.N; i++ {
		x := ds.X[i*m.D : (i+1)*m.D]
		z := scratch
		if res != nil {
			z = res[i*k:]
		}
		z = z[:k]
		m.logits(x, z)
		softmax(z)
		p := z[ds.Y[i]]
		if p < 1e-300 {
			p = 1e-300
		}
		total += -math.Log(p)
		z[ds.Y[i]] -= 1
		for j, xv := range x {
			xj := float64(xv)
			if xj == 0 {
				continue
			}
			row := g[j*k:][:k]
			for c := range row {
				row[c] += xj * z[c]
			}
		}
	}
	inv := 1 / float64(ds.N)
	var reg float64
	g = g[:len(m.W)]
	for i, w := range m.W {
		g[i] = g[i]*inv + m.Lambda*w
		reg += w * w
	}
	return total/float64(ds.N) + 0.5*m.Lambda*reg
}

// Timing carries the simulated execution times (seconds) of each SVRG
// phase, measured by the performance simulation.
type Timing struct {
	SummarizeNDA  float64 // full-gradient pass on the NDAs
	SummarizeHost float64 // full-gradient pass on the host
	InnerIter     float64 // one host inner-loop iteration
	Exchange      float64 // s/g exchange + fence (delayed update)
}

// Mode selects the execution strategy.
type Mode int

// Execution modes of Figure 15.
const (
	HostOnly Mode = iota
	Accelerated
	DelayedUpdate
)

// String returns the figure legend prefix.
func (m Mode) String() string {
	switch m {
	case HostOnly:
		return "HO"
	case Accelerated:
		return "ACC"
	case DelayedUpdate:
		return "DelayedUpdate"
	}
	return "?"
}

// Point is one convergence sample.
type Point struct {
	Seconds float64
	Loss    float64
}

// RunConfig controls one training run.
type RunConfig struct {
	Mode     Mode
	Epoch    int     // inner iterations per outer loop (HostOnly/Accelerated)
	LR       float64 // learning rate
	Momentum float64
	Outers   int // outer-loop iterations to run
	Seed     int64
	Timing   Timing
}

// snapshot is an SVRG snapshot with what its summarization pass
// produced: the correction term g and the per-row residuals, which the
// inner loop reads instead of recomputing the snapshot's logits.
type snapshot struct {
	m   *Model
	g   []float64 // regularized full gradient at m (D*K)
	res []float64 // residual softmax(x*W) - onehot(y) of each row at m (N*K)
}

// take overwrites the snapshot with the model and summarizes it,
// returning the model's loss.
func (s *snapshot) take(ds *Dataset, m *Model) float64 {
	if s.m == nil {
		s.m = m.Clone()
		s.g = make([]float64, len(m.W))
		s.res = make([]float64, ds.N*ds.K)
	} else {
		copy(s.m.W, m.W)
	}
	return s.m.summarize(ds, s.g, s.res)
}

// Run trains and returns the convergence trajectory (loss after each
// outer iteration against cumulative simulated time).
func Run(ds *Dataset, lambda float64, cfg RunConfig) []Point {
	m := NewModel(ds.D, ds.K, lambda)
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := ds.K

	snap := new(snapshot) // s and its correction term g
	loss := snap.take(ds, m)
	prev := snap                     // delayed update: one epoch behind
	vel := make([]float64, len(m.W)) // momentum buffer
	zw := make([]float64, k)
	mom, lr := cfg.Momentum, cfg.LR

	var now float64
	// Initial summarization cost.
	switch cfg.Mode {
	case HostOnly:
		now += cfg.Timing.SummarizeHost
	default:
		now += cfg.Timing.SummarizeNDA
	}
	pts := []Point{{now, loss}}

	for outer := 0; outer < cfg.Outers; outer++ {
		epoch := cfg.Epoch
		use := snap
		if cfg.Mode == DelayedUpdate {
			// Summarization of `snap` runs on the NDAs concurrently;
			// the host iterates with the stale `prev` for as long as
			// the summarization takes.
			epoch = int(cfg.Timing.SummarizeNDA/cfg.Timing.InnerIter) + 1
			use = prev
		}
		for it := 0; it < epoch; it++ {
			// grad = x*(zw - zs) + g + lambda*(W - sW) per element, with
			// zw the model's residual on sample i and zs the snapshot's.
			// Each product is rounded on its own, so the result does not
			// depend on whether the target fuses multiply-adds.
			i := rng.Intn(ds.N)
			x := ds.X[i*ds.D : (i+1)*ds.D]
			m.logits(x, zw)
			softmax(zw)
			zw[ds.Y[i]] -= 1
			zw, zs := zw[:k], use.res[i*k:][:k]
			for j, xv := range x {
				xj := float64(xv)
				o := j * k
				w, sw, g, v := m.W[o:][:k], use.m.W[o:][:k], use.g[o:][:k], vel[o:][:k]
				for c := range w {
					grad := float64(xj*zw[c]) - float64(xj*zs[c]) + g[c] + lambda*(w[c]-sw[c])
					v[c] = mom*v[c] - lr*grad
					w[c] += v[c]
				}
			}
		}

		// Outer boundary: take a new snapshot and its correction term.
		switch cfg.Mode {
		case HostOnly:
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeHost
		case Accelerated:
			// Serialized: host idles while NDAs summarize.
			now += float64(epoch)*cfg.Timing.InnerIter + cfg.Timing.SummarizeNDA
		case DelayedUpdate:
			// Parallel: the epoch's wall time is the summarization
			// time (inner loop fully overlapped) plus the exchange.
			// The old snapshot's summary is promoted; the new snapshot
			// reuses the buffers of the one it retires (fresh ones the
			// first time, when both are the initial snapshot).
			now += cfg.Timing.SummarizeNDA + cfg.Timing.Exchange
			next := prev
			if next == snap {
				next = new(snapshot)
			}
			prev, snap = snap, next
		}
		pts = append(pts, Point{now, snap.take(ds, m)})
	}
	return pts
}

// TimeToReach returns the first time at which the trajectory's loss gap
// to optimum drops below eps, or ok=false.
func TimeToReach(pts []Point, optimum, eps float64) (float64, bool) {
	for _, p := range pts {
		if p.Loss-optimum <= eps {
			return p.Seconds, true
		}
	}
	return 0, false
}

// Optimum estimates the minimal loss by running a long, small-step
// host-only configuration.
func Optimum(ds *Dataset, lambda float64, seed int64) float64 {
	pts := Run(ds, lambda, RunConfig{
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
