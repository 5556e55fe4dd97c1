package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/experiments"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// sweepWorkload is the researcher's path: Table 1 over all 19 profiles and
// the Figure 2 size sweep, each from a recorded STRC trace, on the default
// kernel selection at workers = GOMAXPROCS.
type sweepWorkload struct {
	table1  []sweepStream
	fig2    sweepStream
	encoded [][]byte // STRC traces: table1 streams, then the Figure 2 stream
	workers int

	refRows []experiments.Table1Row
	refFig2 []experiments.Fig2Point
	// Simulated metrics, computed once from the reference run.
	missesPerWindow float64
	configsExamined float64
	energySavingPct float64
}

func (w *sweepWorkload) prepare() error {
	for _, s := range append(append([]sweepStream(nil), w.table1...), w.fig2) {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, s.accs); err != nil {
			return err
		}
		w.encoded = append(w.encoded, buf.Bytes())
	}
	return w.reference()
}

// reference recomputes every Table 1 row and the Figure 2 points on the
// reference simulators (engine.WithReferenceSim), the oracle each timed
// repetition's output must equal exactly.
func (w *sweepWorkload) reference() error {
	p := energy.DefaultParams()
	w.refRows = make([]experiments.Table1Row, len(w.table1))
	var missesPerWindow, examined, saving []float64
	for i, s := range w.table1 {
		inst, data := trace.Split(trace.NewSliceSource(s.accs))
		ie := tuner.EngineEvaluator{Eng: engine.New(inst, engine.Configurable(p), engine.WithReferenceSim())}
		de := tuner.EngineEvaluator{Eng: engine.New(data, engine.Configurable(p), engine.WithReferenceSim())}
		ih, dh := tuner.SearchPaper(ie), tuner.SearchPaper(de)
		base := cache.BaseConfig()
		w.refRows[i] = experiments.Table1Row{
			Name:  s.name,
			ICfg:  ih.Best.Cfg,
			DCfg:  dh.Best.Cfg,
			INum:  ih.NumExamined(),
			DNum:  dh.NumExamined(),
			ISave: 1 - ih.Best.Energy/ie.Evaluate(base).Energy,
			DSave: 1 - dh.Best.Energy/de.Evaluate(base).Energy,
			IOpt:  tuner.ExhaustiveWorkers(ie, cache.AllConfigs(), w.workers).Best.Cfg,
			DOpt:  tuner.ExhaustiveWorkers(de, cache.AllConfigs(), w.workers).Best.Cfg,
		}
		// Misses per 10k-access window of the whole stream at the
		// heuristic's two picks (I-cache plus D-cache).
		m := ih.Best.Stats.Misses + dh.Best.Stats.Misses
		missesPerWindow = append(missesPerWindow, float64(m)*10_000/float64(len(s.accs)))
		examined = append(examined, float64(ih.NumExamined()), float64(dh.NumExamined()))
		saving = append(saving, w.refRows[i].ISave, w.refRows[i].DSave)
	}
	w.missesPerWindow = mean(missesPerWindow)
	w.configsExamined = mean(examined)
	w.energySavingPct = 100 * mean(saving)

	_, data := trace.Split(trace.NewSliceSource(w.fig2.accs))
	var cfgs []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		cfgs = append(cfgs, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	m := engine.Generic(p)
	m.NoDrain = true
	for _, r := range engine.Sweep(data, m, cfgs, w.workers, engine.WithReferenceSim()) {
		w.refFig2 = append(w.refFig2, experiments.Fig2Point{
			SizeBytes: r.Cfg.SizeBytes, OnChip: r.Breakdown.OnChip(), OffChip: r.Breakdown.OffChip(), Total: r.Breakdown.Total(),
		})
	}
	return nil
}

// rep runs the sweep once. Set-up is the program's own: the energy model
// and decoding every recorded trace. The timed phase is the 19 Table 1 rows
// and the Figure 2 sweep; each row's latency is a settle sample (the time a
// researcher waits for that profile's tuned answer).
func (w *sweepWorkload) rep(tr *tracer, memProbe bool) (*repResult, error) {
	res := &repResult{}
	mem := newMemProbe(memProbe, false)
	t0 := time.Now()
	p := energy.DefaultParams()
	streams := make([][]trace.Access, len(w.encoded))
	for i, b := range w.encoded {
		accs, err := trace.Decode(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("decode trace %d: %w", i, err)
		}
		streams[i] = accs
	}
	t1 := time.Now()
	res.setup = t1.Sub(t0)
	ctx := context.Background()
	rows := make([]experiments.Table1Row, len(w.table1))
	for i, s := range w.table1 {
		mem.at(i, len(w.table1))
		sp := tr.begin(0, "experiments.Table1TraceCtx", s.name)
		r0 := time.Now()
		t, err := experiments.Table1TraceCtx(ctx, s.name, streams[i], p, w.workers)
		if err != nil {
			return nil, fmt.Errorf("table 1 %s: %w", s.name, err)
		}
		res.settleMS = append(res.settleMS, float64(time.Since(r0).Nanoseconds())/1e6)
		tr.end(sp)
		rows[i] = t.Rows[0]
		res.accesses += uint64(len(streams[i]))
	}
	sp := tr.begin(0, "experiments.Figure2TraceCtx", w.fig2.name)
	fig2, err := experiments.Figure2TraceCtx(ctx, w.fig2.name, streams[len(streams)-1], p, w.workers)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	res.accesses += uint64(len(streams[len(streams)-1]))
	res.timed = time.Since(t1)
	res.memMB = mem.mb()
	runtime.KeepAlive(streams)
	res.acct = accounting{Opened: len(w.table1) + 1, Acked: len(w.table1) + 1, Submitted: res.accesses, Consumed: res.accesses}
	for i := range rows {
		if !reflect.DeepEqual(rows[i], w.refRows[i]) {
			return nil, fmt.Errorf("output check: table 1 row %s = %+v, reference %+v", rows[i].Name, rows[i], w.refRows[i])
		}
		res.examined = append(res.examined, float64(rows[i].INum), float64(rows[i].DNum))
	}
	if !reflect.DeepEqual(fig2, w.refFig2) {
		return nil, fmt.Errorf("output check: figure 2 points differ from the reference run")
	}
	res.misses = w.missesPerWindow
	return res, nil
}
