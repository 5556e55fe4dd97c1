package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// skewedFused wraps the fused kernel and inflates every configuration's
// reported misses, standing in for a fused pass whose results differ from
// the per-configuration kernels — the contamination the kernel-tagged memo
// key must keep out of the fast and reference slots.
type skewedFused struct{ FusedReplayer[cache.Config] }

func (s skewedFused) StatsOf(cfg cache.Config) cache.Stats {
	st := s.FusedReplayer.StatsOf(cfg)
	st.Misses += 1_000_000
	return st
}

// TestMemoKeySeparatesFusedKernel pins the memo-key property for the third
// kernel tag: results measured by the fused pass live under their own memo
// entries, so an engine on the fused default never serves them to, or
// takes them from, the fast or reference kernels — engines pinned
// WithFastSim/WithReferenceSim over the same (deliberately skewed) fused
// model measure the per-configuration kernels' results.
func TestMemoKeySeparatesFusedKernel(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	cfg := cache.BaseConfig()

	m := Configurable(p)
	inner := m.FusedBuild
	m.FusedBuild = func() FusedReplayer[cache.Config] { return skewedFused{inner()} }

	fusedEng, fastEng, refEng := New(data, m), New(data, m, WithFastSim()), New(data, m, WithReferenceSim())
	fused1, fast1, ref1 := fusedEng.Evaluate(cfg), fastEng.Evaluate(cfg), refEng.Evaluate(cfg)
	if fused1.Stats.Misses == fast1.Stats.Misses || fused1.Stats.Misses == ref1.Stats.Misses {
		t.Fatal("test harness broken: skewed fused kernel matched a per-config kernel")
	}
	if fast1.Stats != ref1.Stats {
		t.Fatalf("fast and reference kernels diverged:\n fast %+v\n ref  %+v", fast1.Stats, ref1.Stats)
	}
	if _, ok := fusedEng.memo[simKey[cache.Config]{cfg: cfg, kernel: KernelFused}]; !ok {
		t.Error("default engine's base-config result is not under a fused-tagged memo key")
	}
	for _, k := range fusedEng.memo {
		if k.Stats.Misses < 1_000_000 {
			t.Errorf("default engine memoised %v with unskewed counters: not from the fused pass", k.Cfg)
		}
	}

	// Each engine's re-evaluation must come from its own memo slot.
	if fusedEng.Evaluate(cfg) != fused1 || fastEng.Evaluate(cfg) != fast1 || refEng.Evaluate(cfg) != ref1 {
		t.Error("re-evaluations did not serve the matching kernel's memo entry")
	}
	for name, e := range map[string]*Engine[cache.Config]{"fused": fusedEng, "fast": fastEng, "reference": refEng} {
		if got := e.Counters().MemoMisses.Load(); got != 1 {
			t.Errorf("%s engine replayed %d times, want 1", name, got)
		}
	}

	// WithFusedSweep names the default: it measures the fused kernel too.
	if got := New(data, m, WithFusedSweep()).Evaluate(cfg); got != fused1 {
		t.Errorf("WithFusedSweep engine measured %+v, want the fused kernel's %+v", got.Stats, fused1.Stats)
	}
}

// TestFusedCoverageBuildsOneKernel pins that an engine resolves the fused
// coverage set from the model without constructing a kernel: the Table 1
// pattern (search, exhaustive sweep, base energy) on a default engine builds
// exactly one fused kernel, the one its single pass replays through.
func TestFusedCoverageBuildsOneKernel(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 5_000)
	m := Configurable(p)
	var builds atomic.Int64
	inner := m.FusedBuild
	m.FusedBuild = func() FusedReplayer[cache.Config] { builds.Add(1); return inner() }

	e := New(data, m)
	if got := builds.Load(); got != 0 {
		t.Fatalf("New built %d fused kernels, want 0", got)
	}
	e.Evaluate(cache.MinConfig())
	e.EvaluateAll(cache.AllConfigs(), 4)
	e.Evaluate(cache.BaseConfig())
	if got := builds.Load(); got != 1 {
		t.Errorf("Table 1 pattern built %d fused kernels, want 1", got)
	}
}

// TestFusedSweepWorkersBitIdentical pins the house invariant on the fused
// path: a full 27-configuration sweep returns bit-identical results at
// workers 1, 2 and 4, and exactly ONE fused pass leads it at any worker
// count (MemoMisses == 1, MemoHits == 26), so hits+misses still equals
// completed evaluations.
func TestFusedSweepWorkersBitIdentical(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 20_000)
	cfgs := cache.AllConfigs()
	var base []Result[cache.Config]
	for _, workers := range []int{1, 2, 4} {
		e := New(data, Configurable(p), WithFusedSweep())
		rs := e.EvaluateAll(cfgs, workers)
		if base == nil {
			base = rs
		} else if !reflect.DeepEqual(base, rs) {
			t.Fatalf("workers=%d: fused sweep results diverged from workers=1", workers)
		}
		hits, misses := e.Counters().MemoHits.Load(), e.Counters().MemoMisses.Load()
		if misses != 1 {
			t.Errorf("workers=%d: %d fused passes led the sweep, want 1", workers, misses)
		}
		if hits+misses != uint64(len(cfgs)) {
			t.Errorf("workers=%d: hits %d + misses %d != %d evaluations", workers, hits, misses, len(cfgs))
		}
	}
}

// TestConcurrentSweepSharedEngine closes a coverage gap: many concurrent
// full sweeps sharing ONE memoised engine on the batch replay path (the
// fast kernels implement BatchReplayer) and on the fused path. Run under
// -race this is the data-race probe for the memo/in-flight tables feeding
// batched replays; the assertions pin result identity across callers and
// the exactly-one-increment-per-evaluation counter invariant.
func TestConcurrentSweepSharedEngine(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 20_000)
	cfgs := cache.AllConfigs()
	for _, tc := range []struct {
		name       string
		opt        Option
		wantMisses uint64
	}{
		{"batch", WithFastSim(), uint64(len(cfgs))},
		{"fused", WithFusedSweep(), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(data, Configurable(p), tc.opt)
			const callers = 8
			results := make([][]Result[cache.Config], callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = e.EvaluateAll(cfgs, 4)
				}(i)
			}
			wg.Wait()
			for i := 1; i < callers; i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Fatalf("caller %d saw different sweep results", i)
				}
			}
			hits, misses := e.Counters().MemoHits.Load(), e.Counters().MemoMisses.Load()
			if want := uint64(callers * len(cfgs)); hits+misses != want {
				t.Errorf("hits %d + misses %d != %d evaluations", hits, misses, want)
			}
			if misses != tc.wantMisses {
				t.Errorf("%d replays led, want %d", misses, tc.wantMisses)
			}
		})
	}
}
