package experiments

import (
	"context"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/trace"
	"selftune/internal/tuner"
	"selftune/internal/workload"
)

// TestTable1DefaultPathOneFusedPass pins the default four-bank kernel on
// the Table 1 pattern. An engine built with no kernel option serves the
// search, the exhaustive optimum and the base energy from ONE fused pass
// with no retries, and Table1TraceCtx (its I and D halves run concurrently)
// produces exactly the row the reference simulators do, at any worker count.
func TestTable1DefaultPathOneFusedPass(t *testing.T) {
	p := energy.DefaultParams()
	prof, ok := workload.ByName("crc")
	if !ok {
		t.Fatal("no crc profile")
	}
	accs := prof.Generate(30_000)
	inst, data := trace.Split(trace.NewSliceSource(accs))

	for _, stream := range [][]trace.Access{inst, data} {
		ev := tuner.EngineEvaluator{Eng: engine.New(stream, engine.Configurable(p))}
		tuner.SearchPaper(ev)
		tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), 4)
		ev.Evaluate(cache.BaseConfig())
		c := ev.Eng.Counters()
		if got := c.MemoMisses.Load(); got != 1 {
			t.Errorf("Table 1 pattern led %d replays, want 1 fused pass", got)
		}
		if got := c.Retries.Load(); got != 0 {
			t.Errorf("Table 1 pattern retried %d times, want 0", got)
		}
	}

	// The reference row, computed the way table1Row does but pinned to the
	// reference simulators, serially.
	half := func(stream []trace.Access) (chosen, opt cache.Config, num int, save, excess float64) {
		ev := tuner.EngineEvaluator{Eng: engine.New(stream, engine.Configurable(p), engine.WithReferenceSim())}
		h := tuner.SearchPaper(ev)
		o := tuner.ExhaustiveWorkers(ev, cache.AllConfigs(), 1).Best
		return h.Best.Cfg, o.Cfg, h.NumExamined(), 1 - h.Best.Energy/ev.Evaluate(cache.BaseConfig()).Energy, h.Best.Energy/o.Energy - 1
	}
	want := Table1Row{Name: "crc"}
	var iExcess, dExcess float64
	want.ICfg, want.IOpt, want.INum, want.ISave, iExcess = half(inst)
	want.DCfg, want.DOpt, want.DNum, want.DSave, dExcess = half(data)
	worst := iExcess
	if dExcess > worst {
		worst = dExcess
	}

	for _, workers := range []int{1, 2, 4} {
		res, err := Table1TraceCtx(context.Background(), "crc", accs, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, []Table1Row{want}) {
			t.Errorf("workers=%d: row %+v, reference %+v", workers, res.Rows, want)
		}
		if res.WorstOptimumExcess != worst {
			t.Errorf("workers=%d: worst excess %v, reference %v", workers, res.WorstOptimumExcess, worst)
		}
	}
}
