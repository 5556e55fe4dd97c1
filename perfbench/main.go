// Command perfbench is the repository's end-to-end benchmark. It drives the
// serving path and the offline sweep through their public APIs, as a client
// would, on inputs generated from a seed, checks every output, and prints
// one JSON result line.
//
//	perfbench --workload serve-steady|serve-churn|offline-sweep --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) repeats the workload for S seconds and reports
// the end-to-end metrics as medians over the repetitions. A traced run
// (--trace 1) times each layer's public functions from outside on the same
// inputs, records spans, and reports the per-layer metrics with a layer
// table that reconciles with the untraced end-to-end figure. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the self-describing run record written next to the result.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Traced      bool               `json:"traced"`
	Seconds     int                `json:"seconds"`
	Reps        int                `json:"reps"`
	Environment environment        `json:"environment"`
	Accounting  accounting         `json:"accounting"`
	Metrics     map[string]metric  `json:"metrics"`
	Spread      map[string]summary `json:"spread"`
	Notes       []string           `json:"notes,omitempty"`
	Layers      []layerRow         `json:"layers,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "serve-steady, serve-churn or offline-sweep")
	seed := fs.Int64("seed", 1, "input seed: perturbs every profile generator's seed")
	seconds := fs.Int("seconds", 10, "how long the repetitions run")
	traced := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for checkpoints, spans and run records")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	b, err := newBench(opt)
	if err != nil {
		return err
	}
	var rec *record
	if opt.traced {
		rec, err = b.traced()
	} else {
		rec, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	rec.Workload, rec.Seed, rec.Traced, rec.Seconds = opt.workload, opt.seed, opt.traced, opt.seconds
	rec.Environment = describeEnvironment()
	name := fmt.Sprintf("record-%s-seed%d-trace%d.json", opt.workload, opt.seed, *traced)
	rb, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.out, name), append(rb, '\n'), 0o644); err != nil {
		return err
	}
	printHuman(stdout, rec)
	res := result{Correct: true, Attempted: rec.Accounting.Opened, Failed: rec.Accounting.Rejected + rec.Accounting.Failed, Metrics: rec.Metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// bench is one workload prepared for repetitions.
type bench struct {
	opt   options
	serve *serveWorkload
	sweep *sweepWorkload
}

func newBench(opt options) (*bench, error) {
	b := &bench{opt: opt}
	dir := filepath.Join(opt.out, fmt.Sprintf("run-%d", os.Getpid()))
	switch opt.workload {
	case "serve-steady":
		ss, err := steadySessions(opt.seed)
		if err != nil {
			return nil, err
		}
		b.serve = &serveWorkload{wire: true, sessions: ss, shards: runtime.GOMAXPROCS(0), dir: dir,
			inputs: func() ([]*session, error) { return steadySessions(opt.seed) }}
	case "serve-churn":
		ss, err := churnSessions(opt.seed)
		if err != nil {
			return nil, err
		}
		b.serve = &serveWorkload{budget: churnBudgetBytes, sessions: ss, shards: runtime.GOMAXPROCS(0), dir: dir,
			inputs: func() ([]*session, error) { return churnSessions(opt.seed) }}
	case "offline-sweep":
		t1, f2, err := sweepStreams(opt.seed)
		if err != nil {
			return nil, err
		}
		b.sweep = &sweepWorkload{table1: t1, fig2: f2, workers: runtime.GOMAXPROCS(0)}
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-steady, serve-churn or offline-sweep)", opt.workload)
	}
	if b.serve != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return b, b.serve.prepare()
	}
	return b, b.sweep.prepare()
}

// cleanup removes the run's checkpoint directory.
func (b *bench) cleanup() {
	if b.serve != nil {
		os.RemoveAll(b.serve.dir)
	}
}

// rep runs one untraced repetition, as the end-to-end metrics measure it.
func (b *bench) rep(i int, memProbe bool) (*repResult, error) {
	if b.serve != nil {
		return b.serve.rep(i, repOpts{listen: true, wire: b.serve.wire, memProbe: memProbe})
	}
	return b.sweep.rep(nil, memProbe)
}

// minReps is the fewest repetitions a run makes, however long they take.
const minReps = 3

// memReps is how many untimed repetitions take the memory samples.
const memReps = 6

// endToEnd repeats the workload for the run's seconds and reports medians.
func (b *bench) endToEnd() (*record, error) {
	defer b.cleanup()
	// Untimed repetitions come first. They let lazy runtime and page-cache
	// set-up finish before anything is timed, and they take the memory
	// samples, so no timed repetition pays for the forced collections.
	// Queue occupancy while serving swings from one repetition to the next,
	// so mem_mb is the median of several repetitions' means. They are
	// checked like the rest.
	var mem []float64
	for i := 0; i < memReps; i++ {
		r, err := b.rep(i, true)
		if err != nil {
			return nil, err
		}
		mem = append(mem, r.memMB)
	}
	var reps []*repResult
	var acct accounting
	start := time.Now()
	for i := memReps; len(reps) < minReps || time.Since(start) < time.Duration(b.opt.seconds)*time.Second; i++ {
		r, err := b.rep(i, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		acct.add(r.acct)
	}
	rec := &record{Reps: len(reps), Accounting: acct, Metrics: map[string]metric{}, Spread: map[string]summary{}}
	rec.Spread["mem_mb"] = summarize(mem)
	rec.Metrics["mem_mb"] = metric{rec.Spread["mem_mb"].Median, "MiB"}
	perRep := func(name, unit string, f func(*repResult) float64) {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		s := summarize(xs)
		rec.Spread[name] = s
		rec.Metrics[name] = metric{s.Median, unit}
	}
	perRep("accesses_per_s", "1/s", func(r *repResult) float64 { return float64(r.accesses) / r.timed.Seconds() })
	perRep("setup_s", "s", func(r *repResult) float64 { return r.setup.Seconds() })
	// Settle latencies: each repetition's p50 and p90 over its searches,
	// then the median over repetitions, so a few repetitions slowed by the
	// host do not carry the tail of a pooled sample.
	perRep("settle_ms_p50", "ms", func(r *repResult) float64 { v, _ := percentile(r.settleMS, 0.5); return v })
	perRep("settle_ms_p90", "ms", func(r *repResult) float64 { v, _ := percentile(r.settleMS, 0.9); return v })
	var settle []float64
	for _, r := range reps {
		settle = append(settle, r.settleMS...)
	}
	p50, _ := percentile(settle, 0.5)
	p90, beyond := percentile(settle, 0.9)
	_, repBeyond := percentile(reps[0].settleMS, 0.9) // every repetition runs the same searches
	rec.Notes = append(rec.Notes, fmt.Sprintf("settle over %d searches in %d repetitions, %d beyond a repetition's p90; pooled p50 %.4g ms, p90 %.4g ms (%d beyond)",
		len(settle), len(reps), repBeyond, p50, p90, beyond))
	if repBeyond < 10 {
		rec.Notes = append(rec.Notes, "settle_ms_p90 has fewer than 10 samples beyond it in a repetition")
	}
	// The simulated metrics are identical in every repetition (checked).
	sim := reps[0]
	for _, r := range reps[1:] {
		if r.misses != sim.misses || mean(r.examined) != mean(sim.examined) {
			return nil, fmt.Errorf("output check: simulated metrics differ between repetitions")
		}
	}
	rec.Metrics["misses_per_window"] = metric{sim.misses, "count"}
	rec.Metrics["configs_examined"] = metric{mean(sim.examined), "count"}
	if b.serve != nil {
		rec.Metrics["energy_saving_pct"] = metric{b.serve.energySavingPct(), "%"}
	} else {
		rec.Metrics["energy_saving_pct"] = metric{b.sweep.energySavingPct, "%"}
	}
	return rec, nil
}

// printHuman prints every metric with its unit, one per line.
func printHuman(w io.Writer, rec *record) {
	fmt.Fprintf(w, "# %s seed=%d traced=%v reps=%d cpu=%q nproc=%d gomaxprocs=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Reps, rec.Environment.CPU, rec.Environment.NumCPU,
		rec.Environment.GOMAXPROCS, rec.Environment.GoVersion, rec.Environment.Commit)
	for _, row := range rec.Layers {
		fmt.Fprintf(w, "# layer %-12s %10.2f ns/access  %s\n", row.Layer, row.SelfNS, row.Basis)
	}
	for _, name := range sortedKeys(rec.Metrics) {
		m := rec.Metrics[name]
		if s, ok := rec.Spread[name]; ok && s.N > 1 {
			fmt.Fprintf(w, "%-32s %14.6g %-8s (q1 %.6g, q3 %.6g, n=%d)\n", name, m.Value, m.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	a := rec.Accounting
	fmt.Fprintf(w, "# sessions opened=%d acked=%d rejected=%d failed=%d; accesses submitted=%d consumed=%d shed=%d\n",
		a.Opened, a.Acked, a.Rejected, a.Failed, a.Submitted, a.Consumed, a.Shed)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
}
