package engine

import (
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
)

// skewedSim wraps a simulator and inflates its reported misses, standing in
// for a fast kernel whose results differ from the reference — exactly the
// contamination the kernel-tagged memo key must keep out.
type skewedSim struct{ Simulator }

func (s skewedSim) Stats() cache.Stats {
	st := s.Simulator.Stats()
	st.Misses += 1_000_000
	return st
}

// TestMemoKeySeparatesKernels pins the memo-key property: an engine's
// results live under memo entries tagged with the kernel that measured
// them, so an engine pinned to one kernel never serves another kernel's
// (here: deliberately different) result, and its re-evaluations come from
// its own slot.
func TestMemoKeySeparatesKernels(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 10_000)
	cfg := cache.BaseConfig()

	m := Configurable(p)
	inner := m.Build
	m.FastBuild = func(c cache.Config) Simulator { return skewedSim{inner(c)} }

	fast, ref := New(data, m, WithFastSim()), New(data, m, WithReferenceSim())
	fast1, ref1 := fast.Evaluate(cfg), ref.Evaluate(cfg)
	if fast1.Stats.Misses == ref1.Stats.Misses {
		t.Fatal("test harness broken: skewed fast kernel matched the reference")
	}
	for _, tc := range []struct {
		name   string
		e      *Engine[cache.Config]
		kernel string
		first  Result[cache.Config]
	}{{"fast", fast, KernelFast, fast1}, {"reference", ref, KernelReference, ref1}} {
		if _, ok := tc.e.memo[simKey[cache.Config]{cfg: cfg, kernel: tc.kernel}]; !ok || len(tc.e.memo) != 1 {
			t.Errorf("%s engine memo %v, want one entry tagged %q", tc.name, tc.e.memo, tc.kernel)
		}
		if again := tc.e.Evaluate(cfg); again != tc.first {
			t.Errorf("%s engine re-evaluation did not serve its own memo entry", tc.name)
		}
		if got := tc.e.Counters().MemoMisses.Load(); got != 1 {
			t.Errorf("%s engine replayed %d times, want 1", tc.name, got)
		}
	}
}

// TestKernelForcingOptions pins the per-engine kernel choice: it is fixed
// at construction by the model and the option, WithReferenceSim and
// WithFastSim build only their own simulators, the default serves the
// four-bank space from the fused pass, and Kernel reports the
// per-configuration fallback.
func TestKernelForcingOptions(t *testing.T) {
	p := energy.DefaultParams()
	data := dataStream(t, "crc", 5_000)

	m := Configurable(p)
	var refBuilds, fastBuilds, fusedBuilds int
	innerRef, innerFast, innerFused := m.Build, m.FastBuild, m.FusedBuild
	m.Build = func(c cache.Config) Simulator { refBuilds++; return innerRef(c) }
	m.FastBuild = func(c cache.Config) Simulator { fastBuilds++; return innerFast(c) }
	m.FusedBuild = func() FusedReplayer[cache.Config] { fusedBuilds++; return innerFused() }

	for _, tc := range []struct {
		name              string
		opts              []Option
		kernel, cfgKernel string
		wantRef, wantFast int
		wantFused         int
	}{
		{"reference", []Option{WithReferenceSim()}, KernelReference, KernelReference, 1, 0, 0},
		{"fast", []Option{WithFastSim()}, KernelFast, KernelFast, 0, 1, 0},
		{"fused", []Option{WithFusedSweep()}, KernelFast, KernelFused, 0, 0, 1},
		{"default", nil, KernelFast, KernelFused, 0, 0, 1},
	} {
		refBuilds, fastBuilds, fusedBuilds = 0, 0, 0
		e := New(data, m, tc.opts...)
		if got := e.Kernel(); got != tc.kernel {
			t.Errorf("%s engine reports kernel %q, want %q", tc.name, got, tc.kernel)
		}
		if got := e.kernelFor(cache.BaseConfig()); got != tc.cfgKernel {
			t.Errorf("%s engine routes the base config to %q, want %q", tc.name, got, tc.cfgKernel)
		}
		e.Evaluate(cache.BaseConfig())
		if refBuilds != tc.wantRef || fastBuilds != tc.wantFast || fusedBuilds != tc.wantFused {
			t.Errorf("%s engine built ref=%d fast=%d fused=%d, want %d/%d/%d", tc.name,
				refBuilds, fastBuilds, fusedBuilds, tc.wantRef, tc.wantFast, tc.wantFused)
		}
	}

	// Without a FusedBuild the default is per-configuration fast; without
	// a FastBuild as well the engine is reference no matter what.
	m2 := Configurable(p)
	m2.FusedBuild = nil
	if got := New(data, m2).kernelFor(cache.BaseConfig()); got != KernelFast {
		t.Errorf("engine without FusedBuild routes the base config to %q", got)
	}
	m2.FastBuild = nil
	for _, opts := range [][]Option{nil, {WithFastSim()}, {WithFusedSweep()}} {
		if got := New(data, m2, opts...).kernelFor(cache.BaseConfig()); got != KernelReference {
			t.Errorf("engine without FastBuild/FusedBuild (opts %d) routes the base config to %q", len(opts), got)
		}
	}
}
