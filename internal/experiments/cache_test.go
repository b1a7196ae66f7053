package experiments

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"chopim/internal/sim"
)

// TestFigureCacheRoundTrip proves the content-addressed cache replays a
// figure exactly: the second run with the same options returns identical
// rows without simulating, and a changed budget misses (different key).
func TestFigureCacheRoundTrip(t *testing.T) {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 2_000, 8_000
	opt.CacheDir = t.TempDir()

	before := ReadRunnerStats()
	first, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	mid := ReadRunnerStats()
	if hits, misses := mid.CacheHits-before.CacheHits, mid.CacheMisses-before.CacheMisses; hits != 0 || misses != 1 {
		t.Fatalf("first run: %d hits, %d misses; want 0, 1", hits, misses)
	}
	second, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadRunnerStats()
	if hits := after.CacheHits - mid.CacheHits; hits != 1 {
		t.Fatalf("second run: %d cache hits; want 1", hits)
	}
	if jobs := after.Jobs - mid.Jobs; jobs != 0 {
		t.Fatalf("second run simulated %d points; want 0 (cache hit)", jobs)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached rows differ from generated rows:\n gen: %+v\n hit: %+v", first, second)
	}

	// A different measurement budget must key differently.
	opt2 := opt
	opt2.MeasureCycles = 9_000
	if opt2.cacheKey("fig2") == opt.cacheKey("fig2") {
		t.Fatal("cache key ignores MeasureCycles")
	}
	// The worker count must NOT key differently (results are identical).
	opt3 := opt
	opt3.Parallel = 7
	if opt3.cacheKey("fig2") != opt.cacheKey("fig2") {
		t.Fatal("cache key depends on the worker count")
	}
}

// TestResumeJournal interrupts a sweep (an injected point failure) and
// proves the resumed run replays the completed points and recomputes
// only the rest, with the final rows identical to an uninterrupted run.
func TestResumeJournal(t *testing.T) {
	opt := QuickOptions()
	opt.JournalDir = t.TempDir()
	opt.Parallel = 1 // deterministic completion order up to the failure

	boom := errors.New("injected point failure")
	n := 6
	gen := func(fail int) func(Options) ([]int, error) {
		return func(opt Options) ([]int, error) {
			return sharded(opt, n, func(i int) (int, error) {
				if i == fail {
					return 0, boom
				}
				return 100 + i, nil
			})
		}
	}
	if _, err := figCached(opt, "resume-test", gen(4)); !errors.Is(err, boom) {
		t.Fatalf("interrupted run: got %v, want injected failure", err)
	}
	before := ReadRunnerStats()
	opt.Resume = true
	rows, err := figCached(opt, "resume-test", gen(-1))
	if err != nil {
		t.Fatal(err)
	}
	after := ReadRunnerStats()
	if res := after.Resumed - before.Resumed; res != 4 {
		t.Fatalf("resumed %d points; want 4 (points 0-3 completed before the failure)", res)
	}
	if jobs := after.Jobs - before.Jobs; jobs != 2 {
		t.Fatalf("resumed run simulated %d points; want 2", jobs)
	}
	want := []int{100, 101, 102, 103, 104, 105}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("resumed rows = %v, want %v", rows, want)
	}
	// The completed figure removes its journals.
	ents, err := os.ReadDir(opt.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("journal dir not cleaned after completion: %v", ents)
	}
}

// TestWarmPoolFork proves host-only points share warm-up state: the
// second point with the same configuration forks from the pooled
// checkpoint and still measures the same result as warming afresh.
func TestWarmPoolFork(t *testing.T) {
	opt := QuickOptions()
	opt.WarmCycles, opt.MeasureCycles = 3_000, 10_000
	// A config no other test warms at this budget (distinct pool key).
	cfg := sim.Default(5)

	measure := func() Result {
		s, err := opt.newSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measureConcurrent(s, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	before := ReadRunnerStats()
	first := measure()
	second := measure()
	after := ReadRunnerStats()
	if after.WarmForks-before.WarmForks < 1 {
		t.Fatal("second identical point did not fork from the warm pool")
	}
	if first != second {
		t.Fatalf("pooled warm-up changed the measurement:\n warm: %+v\n fork: %+v", first, second)
	}
}
