package tuner

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// TestSearcherDegradesAsReturnedState drives the step machine by hand: an
// implausible reading asks for a re-measure of the same configuration, and
// a second one ends the search degraded on SafeConfig — no panic, and
// nothing further is requested.
func TestSearcherDegradesAsReturnedState(t *testing.T) {
	s := NewSearcher(PaperOrder, DefaultSpace(), nil)
	req, ok := s.Next()
	if !ok || req != (Request{Cfg: cache.MinConfig()}) {
		t.Fatalf("first request = %+v, %v; want the smallest configuration", req, ok)
	}
	s.Feed(EvalResult{Cfg: req.Cfg, Energy: 10})
	req, _ = s.Next()
	fault := errors.New("counter wedged")
	s.Feed(EvalResult{Cfg: req.Cfg, Err: fault})
	again, ok := s.Next()
	if !ok || again != (Request{Cfg: req.Cfg, Remeasure: true}) {
		t.Fatalf("after an implausible reading: %+v, %v; want a re-measure of %v", again, ok, req.Cfg)
	}
	s.Feed(EvalResult{Cfg: req.Cfg, Err: fault})
	if next, ok := s.Next(); ok {
		t.Fatalf("degraded search still requests %+v", next)
	}
	res := s.Result()
	if !res.Degraded || !errors.Is(res.Fault, fault) || res.Best.Cfg != SafeConfig() {
		t.Fatalf("result = %+v; want degraded on SafeConfig with the fault", res)
	}
	if res.NumExamined() != 1 {
		t.Fatalf("examined %d, want the one plausible reading kept", res.NumExamined())
	}
	s.Feed(EvalResult{Cfg: req.Cfg, Energy: 1}) // ignored once ended
	if !reflect.DeepEqual(s.Result(), res) {
		t.Fatal("Feed after the search ended changed its result")
	}
}

// TestOnlineSessionsHoldNoGoroutines pins that an Online session is plain
// data: a thousand live sessions — fresh, budget-constrained warm starts,
// resumed mid-search and aborted — each stepped through a few windows and
// never closed, start no goroutine.
func TestOnlineSessionsHoldNoGoroutines(t *testing.T) {
	const window, windows = 64, 3
	p := energy.DefaultParams()
	step := func(o *Online) {
		for i := 0; o.CompletedWindows() < windows && !o.Done(); i++ {
			o.Access(uint32(i*64%32768), i%7 == 0)
		}
	}

	// The mid-search boundary every resumed session restarts from.
	seed := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, window)
	step(seed)
	st, err := seed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	img, err := seed.Cache().Image()
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	sessions := make([]*Online, 0, 1000)
	for i := range 250 {
		fresh := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, window)
		warm := NewOnlineConstrained(cache.MustConfigurable(cache.MinConfig()), p, window, nil, nil, uint64(i),
			4096, cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32})
		c, err := cache.RestoreConfigurable(img)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeOnline(c, p, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		aborted := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, window)
		for _, o := range []*Online{fresh, warm, resumed, aborted} {
			step(o)
		}
		aborted.Abort()
		sessions = append(sessions, fresh, warm, resumed, aborted)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d sessions grew the goroutine count from %d to %d", len(sessions), before, after)
	}
	runtime.KeepAlive(sessions)
}

// TestResumeRejectsUnrealisableStart: a snapshot whose warm-start entry is
// not a configuration the cache can take is corrupt. Accepting it would let
// a transcript that matches the search's requests settle the cache on that
// configuration, which its reconfiguration then refuses.
func TestResumeRejectsUnrealisableStart(t *testing.T) {
	bad := cache.Config{SizeBytes: 3072, Ways: 1, LineBytes: 16}
	next := cache.Config{SizeBytes: 4096, Ways: 1, LineBytes: 16} // the size sweep's first candidate
	st := SessionState{
		Window:  1000,
		Applied: next,
		History: []EvalResult{{Cfg: bad, Energy: 1e-12}},
		Start:   bad,
	}
	if _, err := ResumeOnline(cache.MustConfigurable(next), energy.DefaultParams(), st, nil); err == nil {
		t.Fatal("resume accepted an unrealisable start configuration")
	}
}

// resumeSeed is a real session boundary FuzzResumeOnline mutates, with the
// uninterrupted run's outcome to compare an unmutated resume against.
type resumeSeed struct {
	st    SessionState
	img   cache.Image
	pos   int // accesses consumed at the boundary
	final SessionState
	res   SearchResult
}

// resumeSeeds captures, over one stream: a mid-search boundary, a settled
// boundary, and a mid-search boundary of a budget-constrained warm start.
func resumeSeeds(tb testing.TB, accs []trace.Access, window uint64) []resumeSeed {
	tb.Helper()
	p := energy.DefaultParams()
	capture := func(budget int, start cache.Config, settled bool) resumeSeed {
		o := NewOnlineConstrained(cache.MustConfigurable(cache.MinConfig()), p, window, nil, nil, 0, budget, start)
		var sd resumeSeed
		taken := false
		take := func(pos int) {
			st, err := o.Snapshot()
			if err != nil {
				tb.Fatal(err)
			}
			img, err := o.Cache().Image()
			if err != nil {
				tb.Fatal(err)
			}
			sd.st, sd.img, sd.pos, taken = st, img, pos, true
		}
		for i, a := range accs {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
			if !settled && !taken && o.CompletedWindows() == 2 {
				take(i + 1)
			}
		}
		if !o.Done() {
			tb.Fatal("seed search did not settle within the stream")
		}
		if settled {
			take(len(accs))
		}
		if !taken || sd.st.Finished != settled {
			tb.Fatalf("seed boundary missed (settled %v, %d windows)", settled, o.CompletedWindows())
		}
		final, err := o.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		sd.final, sd.res = final, o.Result()
		return sd
	}
	return []resumeSeed{
		capture(0, cache.Config{}, false),
		capture(0, cache.Config{}, true),
		capture(4096, cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 16}, false),
	}
}

// fuzzConfig maps v to a configuration: one of the space's 27 when the top
// bit is clear, arbitrary (usually unrealisable) fields otherwise.
func fuzzConfig(v uint16) cache.Config {
	if v&0x8000 == 0 {
		all := cache.AllConfigs()
		return all[int(v)%len(all)]
	}
	return cache.Config{SizeBytes: int(v&0xff) * 64, Ways: int(v>>8&7) - 1, LineBytes: 8 << (v >> 11 & 3), WayPredict: v&0x4000 != 0}
}

// fuzzEnergy perturbs a recorded energy into a neighbour or a hostile value.
func fuzzEnergy(old float64, v uint16) float64 {
	switch v % 6 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return -old
	case 3:
		return 0
	case 4:
		return old * (1 + float64(v)/65536)
	default:
		return old * float64(v) / 65536
	}
}

// mutate applies ops to a copy of st, four bytes per mutation: kind, index
// and a 16-bit value.
func mutate(st SessionState, ops []byte) SessionState {
	st.History = append([]EvalResult(nil), st.History...)
	for ; len(ops) >= 4; ops = ops[4:] {
		i, v := int(ops[1]), uint16(ops[2])|uint16(ops[3])<<8
		n := len(st.History)
		switch ops[0] % 9 {
		case 0:
			st.History = st.History[:i%(n+1)]
		case 1:
			if n > 0 {
				a, b := i%n, (i+int(v))%n
				st.History[a], st.History[b] = st.History[b], st.History[a]
			}
		case 2:
			if n > 0 {
				st.History[i%n].Cfg = fuzzConfig(v)
			}
		case 3:
			if n > 0 {
				st.History[i%n].Energy = fuzzEnergy(st.History[i%n].Energy, v)
			}
		case 4:
			st.Finished = !st.Finished
		case 5:
			st.Aborted = !st.Aborted
		case 6:
			st.Applied = fuzzConfig(v)
		case 7:
			st.MaxBytes = int(int16(v))
		case 8:
			st.Start = fuzzConfig(v)
		}
	}
	return st
}

// FuzzResumeOnline mutates real mid-search and settled session states —
// truncated or reordered transcripts, perturbed readings, flipped flags,
// changed Applied/MaxBytes/Start — and resumes them. ResumeOnline must
// return an error or a session that keeps serving, never panic or hang; an
// unmutated state must continue to the uninterrupted run's exact result and
// final snapshot.
func FuzzResumeOnline(f *testing.F) {
	const window = 1000
	prof, ok := workload.ByName("crc")
	if !ok {
		f.Fatal("no crc profile")
	}
	_, accs := trace.Split(trace.NewSliceSource(prof.Generate(120_000)))
	seeds := resumeSeeds(f, accs, window)
	for i := range seeds {
		f.Add(uint8(i), []byte{})
		for kind := range byte(9) {
			f.Add(uint8(i), []byte{kind, 1, 3, 0})
		}
	}
	p := energy.DefaultParams()
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		if len(ops) > 64 {
			return
		}
		sd := seeds[int(which)%len(seeds)]
		st := mutate(sd.st, ops)
		c, err := cache.RestoreConfigurable(sd.img)
		if err != nil {
			t.Fatal(err)
		}
		if st.Applied != c.Config() && st.Applied.Validate() == nil {
			// Meet a changed Applied with a cache at that configuration,
			// so resume gets past its cross-check.
			c.AllowShrink = true
			if err := c.SetConfig(st.Applied); err != nil {
				t.Fatal(err)
			}
			c.AllowShrink = false
		}
		o, err := ResumeOnline(c, p, st, nil)
		if err != nil {
			if o != nil {
				t.Fatal("ResumeOnline returned both a session and an error")
			}
			return
		}
		for _, a := range accs[sd.pos:] {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
		}
		if !o.AtWindowBoundary() {
			return
		}
		final, err := o.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot at a boundary: %v", err)
		}
		if !reflect.DeepEqual(st, sd.st) {
			return
		}
		if !reflect.DeepEqual(o.Result(), sd.res) {
			t.Fatalf("unmutated resume settled on %+v, want %+v", o.Result().Best, sd.res.Best)
		}
		if !reflect.DeepEqual(final, sd.final) {
			t.Fatal("unmutated resume ended in a different snapshot than the uninterrupted run")
		}
	})
}
