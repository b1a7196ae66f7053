package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// domainWorkloads returns the mixed host+NDA shapes the channel-domain
// tests run: the 2-channel mixed goldens (one with a shared-rank COPY)
// and the 4-channel DOT variant.
func domainWorkloads() []ffWorkload {
	var out []ffWorkload
	for _, w := range ffWorkloads() {
		if w.name == "mixed-mix1-dot" || w.name == "mixed-mix3-copy-shared" {
			out = append(out, w)
		}
	}
	return append(out, wideWorkload())
}

// tickPermuted is Tick with the memory phase's channel domains ticked
// in the order perm instead of channel order; every other phase is
// Tick's, line for line. If Tick gains a phase this copy lacks, the
// fuzz below diverges from its Run baseline and fails.
func tickPermuted(s *System, perm []int) {
	now := s.dramCycle
	for _, d := range perm {
		s.MCs[d].Tick(now)
		s.NDA.TickChannel(d, now)
	}
	s.commit()
	s.RT.Tick(now)
	s.credit += cpuCredit
	for s.credit >= cpuDivisor {
		s.credit -= cpuDivisor
		for _, core := range s.Cores {
			core.Tick(s.cpuCycle)
		}
		s.cpuCycle++
	}
	s.dramCycle++
}

// TestDomainOrderFuzz pins the independence of the channel domains:
// they share no mutable state mid-phase, and every cross-channel effect
// waits in a mailbox for the canonical (channel, FIFO) commit, so
// ticking the domains in any order within a cycle must be bit-identical
// to channel order. Each cycle gets a fresh random permutation and is
// compared with Run at every segment boundary. The commit order itself
// is pinned by the goldens, not here.
func TestDomainOrderFuzz(t *testing.T) {
	for _, w := range domainWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			canonical := drive(t, w, false, 4, 5_000)
			rng := rand.New(rand.NewSource(0xD0A7))
			var perm []int
			permuted := func(s *System, _ int64) error {
				if perm == nil {
					perm = make([]int, len(s.doms))
				}
				for i := range perm {
					perm[i] = i
				}
				rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				tickPermuted(s, perm)
				return nil
			}
			got, err := driveWith(w, permuted, 4, 5_000)
			if err != nil {
				t.Fatal(err)
			}
			for i := range canonical {
				if got[i] != canonical[i] {
					t.Fatalf("segment %d diverged under permuted domain order:\n canonical: %s\n permuted:  %s",
						i, canonical[i], got[i])
				}
			}
		})
	}
}

// TestParallelDomainsMatchSerial pins what point-level parallelism
// (-parallel) relies on: several systems of the same workload stepped
// concurrently, one goroutine each, reach every segment boundary
// bit-identical to one system run alone. Under -race this also proves
// that systems share no mutable state: every channel domain, mailbox
// and cache hierarchy belongs to exactly one system.
func TestParallelDomainsMatchSerial(t *testing.T) {
	const copies = 3
	for _, w := range domainWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			serial := drive(t, w, true, 4, 5_000)
			got := make([][]string, copies)
			errs := make([]error, copies)
			var wg sync.WaitGroup
			for c := 0; c < copies; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					got[c], errs[c] = driveWith(w, (*System).StepFast, 4, 5_000)
				}(c)
			}
			wg.Wait()
			for c := 0; c < copies; c++ {
				if errs[c] != nil {
					t.Fatalf("copy %d: %v", c, errs[c])
				}
				for i := range serial {
					if got[c][i] != serial[i] {
						t.Fatalf("concurrent copy %d diverged at segment %d:\n serial:     %s\n concurrent: %s",
							c, i, serial[i], got[c][i])
					}
				}
			}
		})
	}
}

// TestCoreShardMissStorm fuzzes the shared cache path under MSHR
// pressure: randomized 8-core miss storms (missStormWorkload) must
// produce counters bit-identical on the reference Run oracle and the
// fast path. The storm shapes drive LLC probes, MSHR merges (demand
// meeting its own in-flight prefetch), MSHR/queue Stall classification
// with rollback, and backend reads, interleaved with probe-stall
// retries whose epoch checks must land at their Run positions.
func TestCoreShardMissStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5707))
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		name := fmt.Sprintf("storm-%d", it)
		w := missStormWorkload(rng, name)
		t.Run(name, func(t *testing.T) {
			ref := drive(t, w, false, 8, 5_000)
			got := drive(t, w, true, 8, 5_000)
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("fast path diverged from Run at segment %d:\n reference: %s\n fast:      %s",
						i, ref[i], got[i])
				}
			}
		})
	}
}
