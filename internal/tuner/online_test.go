package tuner

import (
	"math/rand"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/fastsim"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

func runOnline(t *testing.T, name string, window uint64, budget int) (*Online, *workload.Profile) {
	t.Helper()
	prof, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), window)
	src := trace.OnlyData(prof.NewSource())
	for i := 0; i < budget && !o.Done(); i++ {
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	return o, prof
}

func TestOnlineCompletesAndSettles(t *testing.T) {
	o, _ := runOnline(t, "crc", 5000, 500_000)
	if !o.Done() {
		t.Fatal("online tuning did not complete within budget")
	}
	res := o.Result()
	if res.NumExamined() < 2 || res.NumExamined() > 9 {
		t.Errorf("examined %d configurations, want the heuristic's 2-9 range", res.NumExamined())
	}
	if o.Cache().Config() != res.Best.Cfg {
		t.Errorf("cache settled on %v, search chose %v", o.Cache().Config(), res.Best.Cfg)
	}
}

func TestOnlineNeverFullFlushes(t *testing.T) {
	// The session may write back a handful of dirty lines when a
	// rejected larger size is retreated from, but never a full flush
	// (512 lines).
	o, _ := runOnline(t, "blit", 4000, 500_000)
	if !o.Done() {
		t.Fatal("did not complete")
	}
	if wb := o.SettleWritebacks(); wb > 512 {
		t.Errorf("settle writebacks = %d, comparable to a full flush", wb)
	}
}

func TestOnlineInstructionStreamNeedsNoWritebacks(t *testing.T) {
	prof, _ := workload.ByName("g721")
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), 4000)
	src := trace.OnlyInst(prof.NewSource())
	for i := 0; i < 500_000 && !o.Done(); i++ {
		a, _ := src.Next()
		o.Access(a.Addr, false)
	}
	if !o.Done() {
		t.Fatal("did not complete")
	}
	if wb := o.SettleWritebacks(); wb != 0 {
		t.Errorf("instruction-cache tuning wrote back %d lines; fetches are never dirty", wb)
	}
}

func TestOnlineChoiceIsNearOfflineQuality(t *testing.T) {
	// The online tuner measures successive warm windows rather than the
	// whole trace, so its choice can legitimately differ from the
	// offline search's — but the configuration it settles on must be
	// close in whole-trace energy to the offline optimum.
	for _, name := range []string{"crc", "bcnt", "adpcm", "blit"} {
		prof, _ := workload.ByName(name)
		p := energy.DefaultParams()

		steady := prof.Generate(1_200_000)[prof.InitAccesses:]
		_, data := trace.Split(trace.NewSliceSource(steady))
		ev := NewTraceEvaluator(data, p)
		offline := SearchPaper(ev)

		c := cache.MustConfigurable(cache.MinConfig())
		o := NewOnline(c, p, 10_000)
		for _, a := range data {
			if o.Done() {
				break
			}
			o.Access(a.Addr, a.IsWrite())
		}
		if !o.Done() {
			t.Fatalf("%s: online tuning did not complete", name)
		}
		got := o.Result().Best.Cfg
		ratio := ev.Evaluate(got).Energy / offline.Best.Energy
		if ratio > 1.30 {
			t.Errorf("%s: online choice %v is %.0f%% worse than offline %v",
				name, got, (ratio-1)*100, offline.Best.Cfg)
		}
	}
}

func TestOnlineReconfigurationCountMatchesExamined(t *testing.T) {
	o, _ := runOnline(t, "fir", 3000, 500_000)
	if !o.Done() {
		t.Fatal("did not complete")
	}
	// Each examined configuration required at most one reconfiguration
	// (the first window runs on the starting configuration), plus the
	// final settle.
	// Reconfigurations are counted in the cache stats, which reset per
	// window; just sanity-check the session ran multiple windows.
	if o.Result().NumExamined() < 2 {
		t.Errorf("examined %d, want >= 2", o.Result().NumExamined())
	}
}

func TestOnlineAbort(t *testing.T) {
	prof, _ := workload.ByName("fir")
	c := cache.MustConfigurable(cache.MinConfig())
	o := NewOnline(c, energy.DefaultParams(), 5000)
	src := trace.OnlyData(prof.NewSource())
	for i := 0; i < 7000; i++ { // mid-session
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Done() {
		t.Skip("session finished before abort point")
	}
	o.Abort()
	if !o.Aborted() || o.Done() {
		t.Fatalf("aborted=%v done=%v after Abort", o.Aborted(), o.Done())
	}
	// The cache keeps working as a plain cache.
	cfg := o.Cache().Config()
	for i := 0; i < 5000; i++ {
		a, _ := src.Next()
		o.Access(a.Addr, a.IsWrite())
	}
	if o.Cache().Config() != cfg {
		t.Error("configuration changed after abort")
	}
	o.Abort() // idempotent
}

// TestOnlineReplayBatchMatchesAccess pins the batched path to the
// per-access one: a session fed in random-sized chunks through ReplayBatch
// — on the reference cache and on the live fastsim kernel — examines the
// same configurations, measures the same windows and leaves the same cache
// image as one fed a single Access at a time. Each chunk stops exactly at
// the access that completes a window.
func TestOnlineReplayBatchMatchesAccess(t *testing.T) {
	p := energy.DefaultParams()
	for _, name := range []string{"crc", "blit", "ucbqsort"} {
		prof, _ := workload.ByName(name)
		_, accs := trace.Split(trace.NewSliceSource(prof.Generate(400_000)))
		want := NewOnline(cache.MustConfigurable(cache.MinConfig()), p, 3000)
		for _, a := range accs {
			want.Access(a.Addr, a.IsWrite())
		}
		wantSnap, err := want.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wantImg, _ := want.Cache().Image()
		for _, c := range []Live{cache.MustConfigurable(cache.MinConfig()), fastsim.Must(cache.MinConfig())} {
			o := NewOnlineConstrained(c, p, 3000, nil, nil, 0, 0, cache.Config{})
			r := rand.New(rand.NewSource(int64(len(name))))
			for rest := accs; len(rest) > 0; {
				before := o.CompletedWindows()
				n := o.ReplayBatch(rest[:min(len(rest), 1+r.Intn(5000))])
				if n < 1 {
					t.Fatalf("%s %T: ReplayBatch consumed nothing", name, c)
				}
				if o.CompletedWindows() != before && !o.AtWindowBoundary() {
					t.Fatalf("%s %T: a chunk ran past the window it completed", name, c)
				}
				rest = rest[n:]
			}
			snap, err := o.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			img, _ := o.Cache().Image()
			if !reflect.DeepEqual(snap, wantSnap) || !reflect.DeepEqual(img, wantImg) {
				t.Errorf("%s %T: batched session diverged from the per-access one (%d vs %d windows, settled %v vs %v)",
					name, c, len(snap.History), len(wantSnap.History), snap.Applied, wantSnap.Applied)
			}
		}
	}
}
