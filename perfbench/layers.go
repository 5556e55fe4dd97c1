package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/fastsim"
	"selftune/internal/fleet"
	"selftune/internal/fleet/allocator"
	"selftune/internal/obs"
	"selftune/internal/trace"
	"selftune/internal/tuner"
)

// layerRow is one line of the traced run's layer table: a layer's self time
// per input access and how it was derived.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfNS float64 `json:"self_ns"`
	Basis  string  `json:"basis"`
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit; BENCHMARK.json's per_layer list is this list.
var perLayer = []struct{ name, unit string }{
	{"e2e_ns_per_access", "ns"},
	{"layer_sum_ns", "ns"},
	{"residual_ns", "ns"},
	{"trace.decode_ns", "ns"},
	{"trace.bytes_per_access", "B"},
	{"fleet.wire_ns", "ns"},
	{"fleet.submit_block_us_p50", "us"},
	{"fleet.submit_block_us_p99", "us"},
	{"fleet.goroutines", "count"},
	{"daemon.step_settled_ns", "ns"},
	{"daemon.step_tuning_ns", "ns"},
	{"daemon.boundary_us", "us"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"tuner.access_ns", "ns"},
	{"tuner.windows_per_search", "count"},
	{"tuner.searches", "count"},
	{"cache.access_ns", "ns"},
	{"cache.setconfig_us", "us"},
	{"cache.image_us", "us"},
	{"cache.miss_rate", "ratio"},
	{"cache.miss_rate_base", "ratio"},
	{"allocator.plan_us", "us"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.memo_lookups", "count"},
	{"engine.replays", "count"},
	{"fastsim.kernel_ns", "ns"},
	{"fastsim.kernel_ns_random", "ns"},
	{"fastsim.kernel_ns_conflict", "ns"},
	{"fastsim.fused_ns", "ns"},
	{"fastsim.fused_ns_random", "ns"},
	{"fastsim.fused_ns_conflict", "ns"},
	{"fastsim.generic_ns", "ns"},
	{"fastsim.generic_ns_random", "ns"},
	{"fastsim.generic_ns_conflict", "ns"},
	{"fastsim.reference_ns", "ns"},
	{"fastsim.reference_ns_random", "ns"},
	{"fastsim.reference_ns_conflict", "ns"},
	{"obs.overhead_pct", "%"},
	{"obs.listener_cost_pct", "%"},
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// nsPer is d in nanoseconds per unit of work.
func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// traced is the traced run: untraced repetitions for the end-to-end figure
// (alternating with instrumentation off, which prices the instrumentation),
// one traced repetition with spans around every client call, then timed
// calls into each layer's public functions on the workload's own streams.
func (b *bench) traced() (*record, error) {
	defer b.cleanup()
	tr := newTracer()
	rec := &record{Metrics: map[string]metric{}, Spread: map[string]summary{}}
	put := func(name string, v float64) {
		for _, l := range perLayer {
			if l.name == name {
				rec.Metrics[name] = metric{v, l.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}
	root := tr.begin(0, "perfbench.traced", b.opt.workload)

	if err := b.instrumentationCost(rec, put); err != nil {
		return nil, err
	}
	// The serving probes need a fleet of the workload's streams; the sweep
	// serves its 19 profile streams as sessions for them.
	sw := b.serve
	if sw == nil {
		sw = &serveWorkload{shards: b.sweep.workers, dir: filepath.Join(b.opt.out, fmt.Sprintf("run-%d", os.Getpid()))}
		for _, s := range b.sweep.table1 {
			sw.sessions = append(sw.sessions, &session{id: s.name, n: len(s.accs), segments: [][]trace.Access{s.accs}})
		}
		if err := os.MkdirAll(sw.dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(sw.dir)
		if err := sw.prepare(); err != nil {
			return nil, err
		}
	}
	// The traced end-to-end repetition: spans around each call into the
	// fleet (or each sweep row). The Submit path's blocking times come from
	// a Submit-driven repetition on the same sessions.
	sp := tr.begin(root, "rep.traced", b.opt.workload)
	if b.serve != nil && b.serve.wire {
		if _, err := b.serve.rep(100, repOpts{listen: true, tr: tr, wire: true}); err != nil {
			return nil, err
		}
	} else if b.sweep != nil {
		if _, err := b.sweep.rep(tr, false); err != nil {
			return nil, err
		}
	}
	for _, s := range sw.sessions {
		s.segments = s.load()
	}
	sub, err := sw.rep(101, repOpts{listen: true, tr: tr})
	for _, s := range sw.sessions {
		if s.gen != nil {
			s.segments = nil
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p50, _ := percentile(sub.submitUS, 0.5)
	p99, _ := percentile(sub.submitUS, 0.99)
	put("fleet.submit_block_us_p50", p50)
	put("fleet.submit_block_us_p99", p99)
	put("fleet.goroutines", sub.goroutinesPerSession)

	streams := b.probeStreams()
	pr := &probes{tr: tr, parent: root, put: put, dir: sw.dir, budget: sw.budget, workers: sw.shards, seed: b.opt.seed}
	for _, step := range []func([][]trace.Access) error{
		pr.decode, pr.wire, pr.daemon, pr.checkpoint, pr.tuner, pr.cache, pr.allocator, pr.engine, pr.kernels,
	} {
		if err := step(streams); err != nil {
			return nil, err
		}
	}
	var searches float64
	for _, s := range sw.solo {
		searches += float64(len(s.examined))
	}
	if b.sweep != nil {
		searches = float64(2 * len(b.sweep.table1))
	}
	put("tuner.searches", searches)

	rec.Layers = b.layerTable(rec, sw, put)
	for _, l := range perLayer {
		if _, ok := rec.Metrics[l.name]; !ok {
			return nil, fmt.Errorf("traced run did not measure %s", l.name)
		}
	}
	rec.Reps = 1
	rec.Accounting = sub.acct
	tr.end(root)
	spans := filepath.Join(b.opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.opt.workload, b.opt.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	for _, name := range sortedKeys(self) {
		rec.Notes = append(rec.Notes, fmt.Sprintf("span self time %s: %.3f ms", name, float64(self[name].Nanoseconds())/1e6))
	}
	rec.Notes = append(rec.Notes, "spans written to "+spans)
	return rec, nil
}

// instrumentationCost alternates untraced repetitions with the workload's
// instrumentation on (as the end-to-end runs measure: the settle listener,
// or for the sweep nothing extra) and off (serving: no recorder; sweep:
// the tracer's row spans on), for the run's seconds. The instrumented-as-
// measured median is the end-to-end figure the layer table reconciles to.
func (b *bench) instrumentationCost(rec *record, put func(string, float64)) error {
	if _, err := b.rep(0, false); err != nil { // warm-up
		return err
	}
	var asMeasured, other []float64
	start := time.Now()
	for i := 1; len(asMeasured) < 2 || time.Since(start) < time.Duration(b.opt.seconds)*time.Second; i++ {
		var a, o *repResult
		var err error
		if b.serve != nil {
			if a, err = b.rep(2*i, false); err == nil {
				o, err = b.serve.rep(2*i+1, repOpts{wire: b.serve.wire})
			}
		} else if a, err = b.rep(0, false); err == nil {
			o, err = b.sweep.rep(newTracer(), false)
		}
		if err != nil {
			return err
		}
		asMeasured = append(asMeasured, float64(a.accesses)/a.timed.Seconds())
		other = append(other, float64(o.accesses)/o.timed.Seconds())
	}
	aps := median(asMeasured)
	spread := summarize(asMeasured)
	rec.Spread["accesses_per_s"] = spread
	cost := 100 * (median(other) - aps) / median(other) // serving: listener on vs off
	if b.sweep != nil {
		cost = 100 * (aps - median(other)) / aps // sweep: row spans on vs off
	}
	put("obs.listener_cost_pct", cost)
	rec.Notes = append(rec.Notes, fmt.Sprintf("instrumentation cost %.2f%% of accesses_per_s against its quartile spread %.2f%% over %d repetitions",
		cost, 100*(spread.Q3-spread.Q1)/spread.Median, spread.N))
	put("e2e_ns_per_access", float64(b.shards())*1e9/aps)
	return nil
}

func (b *bench) shards() int {
	if b.serve != nil {
		return b.serve.shards
	}
	return b.sweep.workers
}

// probeStreams are the layer probes' inputs: the workload's own streams,
// one per bench profile (instance 0 for the serving workloads; the four
// bench profiles' Table 1 streams for the sweep).
func (b *bench) probeStreams() [][]trace.Access {
	var out [][]trace.Access
	if b.serve != nil {
		for i := 0; i < len(b.serve.sessions); i += instances {
			out = append(out, b.serve.sessions[i].flat())
		}
		return out
	}
	for _, name := range benchProfiles {
		for _, s := range b.sweep.table1 {
			if s.name == name {
				out = append(out, s.accs)
			}
		}
	}
	return out
}

// probes holds the traced run's layer measurements in progress.
type probes struct {
	tr      *tracer
	parent  int
	put     func(string, float64)
	dir     string
	budget  int
	workers int
	seed    int64

	states  []*checkpoint.State  // boundary snapshots captured by the daemon probe
	settled []cache.Config       // config in force at each stream's end (daemon probe)
	results []tuner.SearchResult // completed searches (tuner probe)
}

// decode times trace.StreamDecoder.Feed over 64 KiB chunks of each
// stream's STRC encoding.
func (p *probes) decode(streams [][]trace.Access) error {
	var d time.Duration
	var n, nb int
	for i, accs := range streams {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, accs); err != nil {
			return err
		}
		enc := buf.Bytes()
		var out []trace.Access
		sp := p.tr.begin(p.parent, "trace.StreamDecoder.Feed", fmt.Sprint(i))
		t := time.Now()
		dec := &trace.StreamDecoder{}
		got := 0
		for off := 0; off < len(enc); off += frameBytes {
			var err error
			if out, err = dec.Feed(enc[off:min(off+frameBytes, len(enc))], out[:0]); err != nil {
				return err
			}
			got += len(out)
		}
		if err := dec.Finish(); err != nil {
			return err
		}
		d += time.Since(t)
		p.tr.end(sp)
		if got != len(accs) {
			return fmt.Errorf("decoder returned %d of %d accesses", got, len(accs))
		}
		n += len(accs)
		nb += len(enc)
	}
	p.put("trace.decode_ns", nsPer(d, n))
	p.put("trace.bytes_per_access", float64(nb)/float64(n))
	return nil
}

// wire runs Manager.Ingest over an in-memory STFW stream of the probe
// sessions and Manager.Submit of the same decoded batches in the same
// order, each on a fresh in-memory fleet, and reports the difference in
// process CPU time per access: what the wire layer (frame parsing, decode,
// the batch copy) costs the cores. Wall time would hide it, since the
// ingest goroutine overlaps the shard workers.
func (p *probes) wire(streams [][]trace.Access) error {
	var stfw bytes.Buffer
	cw, err := fleet.NewConnWriter(&stfw)
	if err != nil {
		return err
	}
	type batch struct {
		sid  string
		accs []trace.Access
	}
	var batches []batch
	var encs [][]byte
	decs := make([]*trace.StreamDecoder, len(streams))
	n := 0
	for i, accs := range streams {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, accs); err != nil {
			return err
		}
		encs = append(encs, buf.Bytes())
		decs[i] = &trace.StreamDecoder{}
		if err := cw.Open(fmt.Sprintf("probe-%d", i)); err != nil {
			return err
		}
		n += len(accs)
	}
	for off := 0; ; off += frameBytes {
		more := false
		for i, enc := range encs {
			if off >= len(enc) {
				continue
			}
			more = true
			sid := fmt.Sprintf("probe-%d", i)
			chunk := enc[off:min(off+frameBytes, len(enc))]
			if err := cw.Data(sid, chunk); err != nil {
				return err
			}
			accs, err := decs[i].Feed(chunk, nil)
			if err != nil {
				return err
			}
			if len(accs) > 0 {
				batches = append(batches, batch{sid, accs})
			}
			if off+frameBytes >= len(enc) {
				if err := cw.Close(sid); err != nil {
					return err
				}
			}
		}
		if !more {
			break
		}
	}
	var ingest, submit []float64
	for r := 0; r < 2; r++ {
		m, err := fleet.New(fleet.Options{Shards: p.workers})
		if err != nil {
			return err
		}
		sp := p.tr.begin(p.parent, "fleet.Manager.Ingest", "")
		t := cpuTime()
		err = m.Ingest(bytes.NewReader(stfw.Bytes()))
		ingest = append(ingest, nsPer(cpuTime()-t, n))
		p.tr.end(sp)
		if err != nil {
			return err
		}
		if err := m.Close(); err != nil {
			return err
		}
		if m, err = fleet.New(fleet.Options{Shards: p.workers}); err != nil {
			return err
		}
		sp = p.tr.begin(p.parent, "fleet.Manager.Submit", "")
		t = cpuTime()
		for i := range streams {
			if err := m.Open(fmt.Sprintf("probe-%d", i)); err != nil {
				return err
			}
		}
		for _, bt := range batches {
			if err := m.Submit(bt.sid, bt.accs); err != nil {
				return err
			}
		}
		for i := range streams {
			if err := m.CloseSession(fmt.Sprintf("probe-%d", i)); err != nil {
				return err
			}
		}
		submit = append(submit, nsPer(cpuTime()-t, n))
		p.tr.end(sp)
		if err := m.Close(); err != nil {
			return err
		}
	}
	p.put("fleet.wire_ns", median(ingest)-median(submit))
	return nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemon steps solo daemon.Sessions through the streams, timing blocks of
// 64 steps: a block containing a window boundary prices the boundary (its
// time beyond 64 plain steps of its starting state); the others split by
// Tuning() at their start. It also captures boundary snapshots for the
// checkpoint probe and prices telemetry: the same replay with Rec nil
// versus a JSONL recorder writing to io.Discard.
func (p *probes) daemon(streams [][]trace.Access) error {
	const block = 64
	var settledD, tuningD time.Duration
	var settledN, tuningN int
	type bblock struct {
		d      time.Duration
		tuning bool
	}
	var bblocks []bblock
	for i, accs := range streams {
		sess := daemon.NewSession(daemon.Options{BudgetBytes: p.budget})
		boundaries := 0
		sp := p.tr.begin(p.parent, "daemon.Session.Step", fmt.Sprint(i))
		for lo := 0; lo < len(accs); lo += block {
			hi := min(lo+block, len(accs))
			tuning := sess.Tuning()
			hit := false
			t := time.Now()
			for _, a := range accs[lo:hi] {
				b, err := sess.Step(a.Addr, a.IsWrite())
				if err != nil {
					return err
				}
				hit = hit || b
			}
			d := time.Since(t)
			switch {
			case hit:
				bblocks = append(bblocks, bblock{d, tuning})
				boundaries++
				if boundaries%10 == 0 && len(p.states) < 8*(i+1) {
					p.states = append(p.states, sess.Pending())
				}
			case tuning:
				tuningD += d
				tuningN += hi - lo
			default:
				settledD += d
				settledN += hi - lo
			}
		}
		p.tr.end(sp)
		p.settled = append(p.settled, sess.Config())
	}
	settledNS, tuningNS := nsPer(settledD, settledN), nsPer(tuningD, tuningN)
	var extra float64
	for _, b := range bblocks {
		plain := settledNS
		if b.tuning {
			plain = tuningNS
		}
		extra += float64(b.d.Nanoseconds()) - block*plain
	}
	p.put("daemon.step_settled_ns", settledNS)
	p.put("daemon.step_tuning_ns", tuningNS)
	p.put("daemon.boundary_us", extra/float64(len(bblocks))/1e3)

	replay := func(rec obs.Recorder) time.Duration {
		var d time.Duration
		for _, accs := range streams {
			sess := daemon.NewSession(daemon.Options{BudgetBytes: p.budget, Rec: rec})
			t := time.Now()
			for _, a := range accs {
				sess.Step(a.Addr, a.IsWrite())
			}
			d += time.Since(t)
		}
		return d
	}
	var off, on []float64
	for r := 0; r < 3; r++ {
		sp := p.tr.begin(p.parent, "daemon.Session.Step/rec=nil", "")
		off = append(off, float64(replay(nil)))
		p.tr.end(sp)
		sp = p.tr.begin(p.parent, "daemon.Session.Step/rec=jsonl", "")
		on = append(on, float64(replay(obs.NewJSONL(io.Discard))))
		p.tr.end(sp)
	}
	p.put("obs.overhead_pct", 100*(median(on)-median(off))/median(off))
	return nil
}

// checkpoint times checkpoint.Encode and Store.Save (temp file, fsync,
// rename) on the boundary snapshots the daemon probe captured.
func (p *probes) checkpoint(_ [][]trace.Access) error {
	if len(p.states) == 0 {
		return fmt.Errorf("daemon probe captured no boundary snapshots")
	}
	dir := filepath.Join(p.dir, "probe-store")
	defer os.RemoveAll(dir)
	store, err := checkpoint.OpenStore(dir, 4)
	if err != nil {
		return err
	}
	var enc, save, size []float64
	for i, st := range p.states {
		sp := p.tr.begin(p.parent, "checkpoint.Encode", fmt.Sprint(i))
		t := time.Now()
		b, err := checkpoint.Encode(st)
		enc = append(enc, float64(time.Since(t).Nanoseconds())/1e3)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		size = append(size, float64(len(b)))
		sp = p.tr.begin(p.parent, "checkpoint.Store.Save", fmt.Sprint(i))
		t = time.Now()
		_, err = store.Save(st)
		save = append(save, float64(time.Since(t).Nanoseconds())/1e6)
		p.tr.end(sp)
		if err != nil {
			return err
		}
	}
	p.put("checkpoint.encode_us", median(enc))
	p.put("checkpoint.save_ms", median(save))
	p.put("checkpoint.bytes", mean(size))
	return nil
}

// tuner runs successive tuner.Online searches over each stream (a fresh
// cache per search), timing Access while searching.
func (p *probes) tuner(streams [][]trace.Access) error {
	params := energy.DefaultParams()
	var d time.Duration
	var n int
	var windows []float64
	for i, accs := range streams {
		sp := p.tr.begin(p.parent, "tuner.Online.Access", fmt.Sprint(i))
		for pos, k := 0, 0; pos < len(accs) && k < 4; k++ {
			o := tuner.NewOnline(cache.MustConfigurable(cache.MinConfig()), params, 10_000)
			for !o.Done() && pos < len(accs) {
				hi := min(pos+64, len(accs))
				t := time.Now()
				for _, a := range accs[pos:hi] {
					o.Access(a.Addr, a.IsWrite())
					if o.Done() {
						break
					}
				}
				d += time.Since(t)
				n += hi - pos
				pos = hi
			}
			if o.Done() {
				windows = append(windows, float64(o.CompletedWindows()))
				p.results = append(p.results, o.Result())
			}
		}
		p.tr.end(sp)
	}
	if len(p.results) == 0 {
		return fmt.Errorf("no tuner search completed on the probe streams")
	}
	p.put("tuner.access_ns", nsPer(d, n))
	p.put("tuner.windows_per_search", mean(windows))
	return nil
}

// cache times Configurable.Access at each stream's settled configuration
// (and the base, for the miss-rate comparison), SetConfig along each
// search's examined sequence on a warm cache, and Image.
func (p *probes) cache(streams [][]trace.Access) error {
	var d time.Duration
	var n int
	var miss, missBase uint64
	for i, accs := range streams {
		c := cache.MustConfigurable(p.settled[i])
		sp := p.tr.begin(p.parent, "cache.Configurable.Access", fmt.Sprint(i))
		t := time.Now()
		for _, a := range accs {
			if !c.Access(a.Addr, a.IsWrite()).Hit {
				miss++
			}
		}
		d += time.Since(t)
		p.tr.end(sp)
		n += len(accs)
		base := cache.MustConfigurable(cache.BaseConfig())
		for _, a := range accs {
			if !base.Access(a.Addr, a.IsWrite()).Hit {
				missBase++
			}
		}
	}
	p.put("cache.access_ns", nsPer(d, n))
	p.put("cache.miss_rate", float64(miss)/float64(n))
	p.put("cache.miss_rate_base", float64(missBase)/float64(n))

	var set, img []float64
	warm := streams[0]
	for _, res := range p.results {
		c := cache.MustConfigurable(cache.MinConfig())
		c.AllowShrink = true
		pos := 0
		for _, e := range res.Examined {
			for _, a := range warm[pos:min(pos+10_000, len(warm))] {
				c.Access(a.Addr, a.IsWrite())
			}
			pos = (pos + 10_000) % len(warm)
			t := time.Now()
			err := c.SetConfig(e.Cfg)
			set = append(set, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				return err
			}
		}
		t := time.Now()
		if _, err := c.Image(); err != nil {
			return err
		}
		img = append(img, float64(time.Since(t).Nanoseconds())/1e3)
	}
	p.put("cache.setconfig_us", median(set))
	p.put("cache.image_us", median(img))
	return nil
}

// allocator times allocator.Greedy over the miss-ratio curves of the tuner
// probe's searches, at 4 KiB per profile.
func (p *probes) allocator(_ [][]trace.Access) error {
	var profs []allocator.Profile
	for i, res := range p.results {
		if prof, ok := allocator.FromResults(fmt.Sprint(i), res.Examined); ok {
			profs = append(profs, prof)
		}
	}
	if len(profs) == 0 {
		return fmt.Errorf("no allocator profile from the probe searches")
	}
	var us []float64
	sp := p.tr.begin(p.parent, "allocator.Greedy", "")
	for r := 0; r < 200; r++ {
		t := time.Now()
		if _, err := allocator.Greedy(churnBudgetBytes*len(profs), 2048, profs); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	p.tr.end(sp)
	p.put("allocator.plan_us", median(us))
	return nil
}

// engine replays the Table 1 pattern on one engine per stream: a 27-config
// sweep, then the Figure 6 search, and reads the memo counters.
func (p *probes) engine(streams [][]trace.Access) error {
	params := energy.DefaultParams()
	var hits, misses uint64
	for i, accs := range streams {
		_, data := trace.Split(trace.NewSliceSource(accs))
		e := engine.New(data, engine.Configurable(params))
		sp := p.tr.begin(p.parent, "engine.Engine.EvaluateAll+SearchPaper", fmt.Sprint(i))
		e.EvaluateAll(cache.AllConfigs(), p.workers)
		tuner.SearchPaper(tuner.EngineEvaluator{Eng: e})
		p.tr.end(sp)
		c := e.Counters()
		hits += c.MemoHits.Load()
		misses += c.MemoMisses.Load()
	}
	p.put("engine.memo_hit_ratio", float64(hits)/float64(hits+misses))
	p.put("engine.memo_lookups", float64(hits+misses)/float64(len(streams)))
	p.put("engine.replays", float64(misses)/float64(len(streams)))
	return nil
}

// kernelInput is the accesses one kernel measurement replays.
const kernelInput = 200_000

// kernels times the replay kernels per access per configuration on the
// streams' instruction and data views, on a uniform-random stream and on a
// same-set conflict stream, beside the reference simulator.
func (p *probes) kernels(streams [][]trace.Access) error {
	var profile [][]trace.Access
	for _, accs := range streams {
		inst, data := trace.Split(trace.NewSliceSource(accs))
		profile = append(profile, inst[:min(len(inst), kernelInput)], data[:min(len(data), kernelInput)])
	}
	inputs := map[string][][]trace.Access{
		"":          profile,
		"_random":   {uniformRandom(p.seed, kernelInput)},
		"_conflict": {conflictStride(kernelInput)},
	}
	var fig2 []cache.GenericConfig
	for size := 1 << 10; size <= 1<<20; size *= 2 {
		fig2 = append(fig2, cache.GenericConfig{SizeBytes: size, Ways: 1, LineBytes: 32})
	}
	all := cache.AllConfigs()
	for _, suffix := range []string{"", "_random", "_conflict"} {
		var kernel, fused, generic, ref time.Duration
		n := 0
		for i, accs := range inputs[suffix] {
			n += len(accs)
			stream := fmt.Sprint(suffix, i)
			sp := p.tr.begin(p.parent, "fastsim.Kernel.ReplayBatch", stream)
			for _, cfg := range all {
				k := fastsim.Must(cfg)
				t := time.Now()
				k.ReplayBatch(accs)
				kernel += time.Since(t)
			}
			p.tr.end(sp)
			cols := trace.NewColumns(accs)
			sp = p.tr.begin(p.parent, "fastsim.FusedKernel.ReplayColumns", stream)
			k := fastsim.NewFused()
			t := time.Now()
			k.ReplayColumns(cols)
			fused += time.Since(t)
			p.tr.end(sp)
			sp = p.tr.begin(p.parent, "fastsim.GenericKernel.ReplayBatch", stream)
			for _, cfg := range fig2 {
				g := fastsim.MustGeneric(cfg)
				t := time.Now()
				g.ReplayBatch(accs)
				generic += time.Since(t)
			}
			p.tr.end(sp)
			sp = p.tr.begin(p.parent, "cache.Configurable.Access/reference", stream)
			for _, cfg := range all {
				c := cache.MustConfigurable(cfg)
				t := time.Now()
				for _, a := range accs {
					c.Access(a.Addr, a.IsWrite())
				}
				ref += time.Since(t)
			}
			p.tr.end(sp)
		}
		p.put("fastsim.kernel_ns"+suffix, nsPer(kernel, n*len(all)))
		p.put("fastsim.fused_ns"+suffix, nsPer(fused, n*len(all)))
		p.put("fastsim.generic_ns"+suffix, nsPer(generic, n*len(fig2)))
		p.put("fastsim.reference_ns"+suffix, nsPer(ref, n*len(all)))
	}
	return nil
}

// layerTable attributes the end-to-end ns per access (per shard or worker)
// to the layers the workload loads, from the probe measurements weighted by
// how often the workload exercises each, and reports the remainder — queue
// hops, scheduling, GC, the client — as residual_ns. Layers a workload
// bypasses are listed at zero, the "no change here" prediction.
func (b *bench) layerTable(rec *record, sw *serveWorkload, put func(string, float64)) []layerRow {
	v := func(name string) float64 { return rec.Metrics[name].Value }
	var rows []layerRow
	if b.serve != nil {
		var total, tuning, bounds, saves float64
		for _, s := range sw.sessions {
			solo := sw.solo[s.id]
			total += float64(s.n)
			tuning += float64(solo.tuning)
			bounds += float64(solo.boundaries)
			saves += float64(solo.boundaries/8 + 1) // every CheckpointEvery boundaries, plus the close
		}
		tf := tuning / total
		wire := 0.0
		if sw.wire {
			wire = 1
		}
		rows = []layerRow{
			{"trace", wire * v("trace.decode_ns"), "StreamDecoder.Feed per access (wire workloads only)"},
			{"fleet.wire", wire * (v("fleet.wire_ns") - v("trace.decode_ns")), "Ingest minus Submit path, minus decode (wire workloads only)"},
			{"daemon", (1-tf)*(v("daemon.step_settled_ns")-v("cache.access_ns")) + tf*(v("daemon.step_tuning_ns")-v("tuner.access_ns")) + bounds/total*v("daemon.boundary_us")*1e3,
				fmt.Sprintf("Session.Step minus cache/tuner, tuning share %.3f, plus %.2g boundaries/access", tf, bounds/total)},
			{"tuner", tf * (v("tuner.access_ns") - v("cache.access_ns")), "tuner.Online.Access minus the cache access, while tuning"},
			{"cache", v("cache.access_ns"), "Configurable.Access, once per access"},
			{"checkpoint", saves / total * v("checkpoint.save_ms") * 1e6, fmt.Sprintf("Store.Save x %.2g saves/access", saves/total)},
			{"fastsim", 0, "bypassed: the live cache is cache.Configurable"},
		}
	} else {
		var t1, fig2 float64
		for _, s := range b.sweep.table1 {
			t1 += float64(len(s.accs))
		}
		_, data := trace.Split(trace.NewSliceSource(b.sweep.fig2.accs))
		fig2 = float64(len(data))
		total := t1 + float64(len(b.sweep.fig2.accs))
		rows = []layerRow{
			{"fastsim", (27*t1*v("fastsim.kernel_ns") + 11*fig2*v("fastsim.generic_ns")) / total,
				"27 per-config Kernel replays per Table 1 access, 11 GenericKernel replays per Figure 2 data access"},
			{"trace", 0, "bypassed in the timed phase: traces decode during set-up"},
			{"fleet.wire", 0, "bypassed"},
			{"daemon", 0, "bypassed"},
			{"tuner", 0, "bypassed: the offline search replays through the engine"},
			{"cache", 0, "bypassed: the default kernel selection replays through fastsim"},
			{"checkpoint", 0, "bypassed"},
		}
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfNS
	}
	e2e := v("e2e_ns_per_access")
	put("layer_sum_ns", sum)
	put("residual_ns", e2e-sum)
	rows = append(rows, layerRow{"residual", e2e - sum, "untraced end-to-end ns/access per shard minus the layer sum"})
	return rows
}
