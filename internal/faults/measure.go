package faults

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"selftune/internal/cache"
	"selftune/internal/engine"
)

// Measurement injects counter-readout faults into every simulator an engine
// model builds — the hardware tuner's view of a cache whose hit/miss
// counters are noisy, too narrow, wedged, or whose datapath crashes mid
// measurement. Rates are per-reading (one reading = one built simulator /
// one replay attempt); a zero-value Measurement is a pass-through.
//
// Fault decisions are drawn per (configuration, attempt) from seeds derived
// with Derive, never from shared global state, so a faulted sweep is
// bit-identical across runs and worker counts, and a re-measure of the same
// configuration is a genuinely fresh attempt that can come back clean —
// which is what makes the tuner's re-measure-then-degrade policy testable.
type Measurement struct {
	// Seed roots the injector's random streams.
	Seed uint64
	// NoiseRate is the probability a reading's miss counter is scaled by
	// a uniform factor in [1-NoiseMag, 1+NoiseMag], with hits adjusted to
	// keep hits+misses == accesses. The reading stays self-consistent —
	// plausible but wrong — so it sails past integrity checks and shows
	// up only as heuristic quality loss.
	NoiseRate float64
	// NoiseMag is the fractional noise magnitude (default 0.25).
	NoiseMag float64
	// SaturateBits models narrow hardware counters: when positive, every
	// counter in a reading clamps at 2^SaturateBits-1. Once the window
	// outgrows the counter width the reading becomes arithmetically
	// impossible (hits+misses < accesses) and plausibility checks fire.
	SaturateBits int
	// StuckRate is the probability the counter latch never captures the
	// window: the reading comes back all zeros (an implausible
	// zero-access reading).
	StuckRate float64
	// CrashRate is the probability a replay attempt wedges: the simulator
	// panics partway through the stream. The engine's panic recovery and
	// RetryPolicy absorb these.
	CrashRate float64
}

// Wrap returns m with every built simulator wrapped in the injector.
// Passing a nil or zero-value receiver returns m unchanged.
func Wrap[C comparable](m engine.Model[C], f *Measurement) engine.Model[C] {
	if f == nil || *f == (Measurement{}) {
		return m
	}
	// attempts tracks replay attempts per configuration so a re-measure
	// draws fresh faults. Keyed per configuration (not globally), the
	// attempt sequence is private to each configuration and therefore
	// independent of sweep scheduling. The reference and fast factories
	// share the sequence — an engine uses exactly one of them per replay,
	// and the kernels are bit-identical, so either factory's attempt N is
	// the same reading.
	var attempts sync.Map // config key -> *atomic.Int64
	wrap := func(inner engine.Factory[C]) engine.Factory[C] {
		return func(cfg C) engine.Simulator {
			key := fmt.Sprintf("%v", cfg)
			c, _ := attempts.LoadOrStore(key, new(atomic.Int64))
			attempt := c.(*atomic.Int64).Add(1)
			r := NewRand(Derive(f.Seed, "measure", key, strconv.FormatInt(attempt, 10)))
			s := &faultySim{inner: inner(cfg), saturateBits: f.SaturateBits}
			if f.CrashRate > 0 && r.Float64() < f.CrashRate {
				s.crashAfter = 1 + r.Intn(4096)
			}
			if f.StuckRate > 0 && r.Float64() < f.StuckRate {
				s.stuck = true
			}
			if f.NoiseRate > 0 && r.Float64() < f.NoiseRate {
				mag := f.NoiseMag
				if mag == 0 {
					mag = 0.25
				}
				s.noise = 1 + (2*r.Float64()-1)*mag
			}
			return s
		}
	}
	m.Build = wrap(m.Build)
	// The wrapper does not implement the engine's batch fast path, so a
	// faulted fast kernel replays per access — injected crashes keep their
	// per-access granularity either way.
	if m.FastBuild != nil {
		m.FastBuild = wrap(m.FastBuild)
	}
	// The fused pass measures every configuration from one shared replay, so
	// it cannot realise per-(configuration, reading) injection. Clearing the
	// factory forces fault-armed engines onto the wrapped per-configuration
	// factories — injection can never be bypassed by the fused pass, the
	// engine's default for the four-bank space.
	m.FusedBuild = nil
	return m
}

// StatsMeter builds a counter-readout fault model shaped for the online
// tuner's Meter seam: a function from a window's (configuration, counters)
// to the counters the tuner actually sees. With probability stuckRate the
// latch never captures the window (all zeros — implausible, triggering the
// re-measure/degrade policy); with probability noiseRate the miss counter is
// scaled by a uniform factor in [1-noiseMag, 1+noiseMag] with hits adjusted
// so the reading stays self-consistent (plausible but wrong).
//
// Unlike Measurement (which draws per replay attempt), every decision here
// is a pure function of (seed, cfg, counters): the same window measured
// after a process restart glitches identically. That is what keeps a
// kill+resume tuning run bit-identical to an uninterrupted one even with
// readout faults armed — the crash-equivalence property the chaos soak
// harness pins.
func StatsMeter(seed uint64, noiseRate, noiseMag, stuckRate float64) func(cfg cache.Config, st cache.Stats) cache.Stats {
	return func(cfg cache.Config, st cache.Stats) cache.Stats {
		r := NewRand(Derive(seed, "meter", cfg.String(),
			strconv.FormatUint(st.Accesses, 10),
			strconv.FormatUint(st.Hits, 10),
			strconv.FormatUint(st.Misses, 10)))
		if stuckRate > 0 && r.Float64() < stuckRate {
			return cache.Stats{}
		}
		if noiseRate > 0 && r.Float64() < noiseRate {
			if noiseMag == 0 {
				noiseMag = 0.25
			}
			m := uint64(float64(st.Misses)*(1+(2*r.Float64()-1)*noiseMag) + 0.5)
			if m > st.Accesses {
				m = st.Accesses
			}
			st.Misses = m
			st.Hits = st.Accesses - m
		}
		return st
	}
}

// PanicMeter builds a Meter-shaped readout that panics exactly once, on the
// n-th readout (1-based) of the meter's lifetime, and reads clean otherwise
// — the stand-in for a measurement datapath crashing inside a shard worker.
// Because readouts happen at deterministic stream positions (one per
// measurement window and probe), the panic lands at a reproducible point;
// and because the count keeps running after the trip, a session revived
// from checkpoint replays past the crash site cleanly, exactly like real
// transient corruption. Counts are atomic so inspection under the race
// detector is safe, but a meter instance belongs to one session.
func PanicMeter(n uint64) func(cfg cache.Config, st cache.Stats) cache.Stats {
	var count atomic.Uint64
	return func(cfg cache.Config, st cache.Stats) cache.Stats {
		if count.Add(1) == n {
			panic(fmt.Sprintf("faults: injected meter panic at readout %d", n))
		}
		return st
	}
}

// PanicMeterSticky is PanicMeter with a permanent fault: every readout from
// the n-th on panics, so a revived session re-trips at the same stream
// position each life — the path that exhausts the revive cap into Failed.
func PanicMeterSticky(n uint64) func(cfg cache.Config, st cache.Stats) cache.Stats {
	var count atomic.Uint64
	return func(cfg cache.Config, st cache.Stats) cache.Stats {
		if count.Add(1) >= n {
			panic(fmt.Sprintf("faults: injected sticky meter panic at readout %d", n))
		}
		return st
	}
}

// faultySim perturbs a simulator's counter readout (and optionally crashes
// its replay) while leaving the underlying cache behaviour untouched.
type faultySim struct {
	inner        engine.Simulator
	crashAfter   int // panic on the n-th access; 0 = never
	seen         int
	stuck        bool
	noise        float64 // miss-counter scale; 0 = clean
	saturateBits int
}

func (s *faultySim) Access(addr uint32, write bool) cache.AccessResult {
	if s.crashAfter > 0 {
		s.seen++
		if s.seen >= s.crashAfter {
			panic("faults: injected simulator crash")
		}
	}
	return s.inner.Access(addr, write)
}

func (s *faultySim) Stats() cache.Stats {
	st := s.inner.Stats()
	if s.stuck {
		return cache.Stats{}
	}
	if s.noise != 0 {
		m := uint64(float64(st.Misses)*s.noise + 0.5)
		if m > st.Accesses {
			m = st.Accesses
		}
		st.Misses = m
		st.Hits = st.Accesses - m
	}
	if s.saturateBits > 0 && s.saturateBits < 64 {
		max := uint64(1)<<s.saturateBits - 1
		for _, v := range []*uint64{
			&st.Accesses, &st.Hits, &st.Misses, &st.Writes,
			&st.Writebacks, &st.SettleWritebacks, &st.SublinesFilled,
			&st.PredHits, &st.PredMisses, &st.ExtraCycles,
		} {
			if *v > max {
				*v = max
			}
		}
	}
	return st
}

func (s *faultySim) ResetStats()     { s.inner.ResetStats() }
func (s *faultySim) DirtyLines() int { return s.inner.DirtyLines() }

var _ engine.Simulator = (*faultySim)(nil)
