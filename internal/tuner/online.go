package tuner

import (
	"log/slog"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

// Live is the cache an Online session tunes: the reference
// cache.Configurable or the live fastsim.Kernel a daemon session serves
// from. Online calls it once per chunk of accesses on the batched path
// (ReplayBatch), never per access.
type Live interface {
	cache.Simulator
	Config() cache.Config
	SetConfig(cache.Config) error
	ReplayBatch([]trace.Access)
	Image() (cache.Image, error)
}

// Online drives a live configurable cache through the heuristic without
// ever flushing it, the way the on-chip tuner hardware does: each candidate
// configuration is applied to the running cache and measured over the next
// window of accesses. Because the heuristic only grows size/associativity
// and only changes line size otherwise, every reconfiguration is flush-free
// (§3.3); the final settle to the chosen configuration is the only
// transition that may shrink, and its writeback cost is recorded.
type Online struct {
	cache  Live
	params *energy.Params
	window uint64
	warmup uint64
	meter  Meter

	req  chan cache.Config
	resp chan EvalResult
	done chan SearchResult
	quit chan struct{}

	pending    bool
	count      uint64
	warmupLeft uint64
	finished   bool
	aborted    bool
	result     SearchResult
	settleWB   uint64

	// rec and sessionID are the telemetry seam: every heuristic step is
	// recorded as one event keyed (session, window, step, config). fed
	// counts measurements consumed by the search — it is touched only by
	// the search goroutine, and on resume the transcript replay advances
	// it identically, so re-executed windows re-emit identical events.
	rec       obs.Recorder
	sessionID uint64
	fed       uint64

	// history records every window measurement handed to the search, in
	// order — the externally visible transcript of the search's state
	// machine. Because the heuristic is a deterministic function of its
	// measurement sequence, replaying history reconstructs the search
	// exactly; Snapshot/ResumeOnline (session.go) build on this.
	history []EvalResult

	// maxBytes and start define the constrained space the session searches:
	// maxBytes caps the footprint (0 = unconstrained) and start is the warm
	// re-search entry point (zero value = the space's smallest
	// configuration). Both are part of the snapshot so a resumed session
	// replays the identical restricted walk.
	maxBytes int
	start    cache.Config

	// searchSpan is the deterministic "tuner.search" begin/end pair wrapping
	// the whole search: begun at construction (window 0, step 0 of this
	// session ordinal), ended at settle with the work-unit duration
	// (configurations examined). A resumed session re-begins the span at the
	// identical coordinates, so kill/resume re-emits bit-identical span
	// events and coordinate deduplication reconstructs one span.
	searchSpan obs.Span
}

// Meter transforms a window's raw counters before they are priced — the
// seam through which counter-readout faults (internal/faults.Measurement
// semantics) reach the online tuner, and where real hardware would clip its
// counter widths. nil is a perfect readout.
type Meter func(cfg cache.Config, st cache.Stats) cache.Stats

// NewOnline starts a tuning session on c. window is the number of accesses
// each configuration is measured over (the hardware's measurement
// interval). The search begins at the smallest configuration.
func NewOnline(c *cache.Configurable, p *energy.Params, window uint64) *Online {
	return NewOnlineMetered(c, p, window, nil)
}

// NewOnlineMetered is NewOnline with a counter-readout meter. Implausible
// window readings (by Plausible) are re-measured over the next window; if
// the second window is implausible too the session abandons tuning and
// settles the cache on SafeConfig, with the session's Result marked
// Degraded. Accesses keep being served normally throughout — a broken
// counter never takes the cache down.
func NewOnlineMetered(c *cache.Configurable, p *energy.Params, window uint64, meter Meter) *Online {
	return NewOnlineObserved(c, p, window, meter, nil, 0)
}

// NewOnlineObserved is NewOnlineMetered with telemetry: every heuristic step
// is recorded on rec as a "tuner.step" event carrying the session ordinal,
// the measurement-window ordinal, the step ordinal and the configuration —
// the search trajectory as data. Recording is strictly observational; a nil
// (or disabled) recorder session behaves bit-identically to an observed one.
func NewOnlineObserved(c *cache.Configurable, p *energy.Params, window uint64, meter Meter, rec obs.Recorder, session uint64) *Online {
	return NewOnlineConstrained(c, p, window, meter, rec, session, 0, cache.Config{})
}

// NewOnlineConstrained is NewOnlineObserved with a capacity budget: the
// search walks the paper's space restricted to configurations of at most
// maxBytes (0 = unconstrained, see Space.Constrain), starting from start
// instead of the smallest configuration when start is non-zero — the warm
// re-search a fleet reallocation triggers. start must be a valid
// configuration within the budget (ClampToBudget produces one); the live
// cache is reconfigured to it before the first measurement window. c may be
// either Live cache (a daemon passes its fastsim kernel).
func NewOnlineConstrained(c Live, p *energy.Params, window uint64, meter Meter, rec obs.Recorder, session uint64, maxBytes int, start cache.Config) *Online {
	o := &Online{
		cache:     c,
		params:    p,
		window:    window,
		meter:     meter,
		rec:       obs.OrNop(rec),
		sessionID: session,
		// A quarter-window warmup after each reconfiguration keeps the
		// transition transient (blocks stranded by the remapping
		// re-missing once) out of the measurement, which would
		// otherwise bias the sweep against growth steps.
		warmup:   window / 4,
		req:      make(chan cache.Config),
		resp:     make(chan EvalResult),
		done:     make(chan SearchResult, 1),
		quit:     make(chan struct{}),
		maxBytes: maxBytes,
		start:    start,
	}
	// The search logic runs in its own goroutine; Evaluate blocks until
	// the measurement window completes. This reuses the exact heuristic
	// implementation for the online hardware behaviour.
	o.beginSearchSpan()
	o.startSearch(EvaluatorFunc(o.liveEvaluate))
	o.advance()
	return o
}

// beginSearchSpan opens the session's "tuner.search" span. It must run
// before the search goroutine can emit its first "tuner.step" (i.e. before
// startSearch for a fresh session, and before the transcript replay for a
// resumed one) so the begin event always precedes the steps it encloses.
func (o *Online) beginSearchSpan() {
	o.searchSpan = obs.BeginSpan(o.rec, nil, obs.Event{
		Name:    "tuner.search",
		Session: o.sessionID,
		Window:  o.fed,
		Fields:  []slog.Attr{slog.Int("budget_bytes", o.maxBytes)},
	})
}

// searchSpace is the (possibly budget-restricted, possibly warm-started)
// space this session's heuristic walks.
func (o *Online) searchSpace() Space {
	sp := DefaultSpace().Constrain(o.maxBytes)
	if o.start != (cache.Config{}) {
		sp.Start = ClampToBudget(o.start, o.maxBytes, DefaultSpace())
	}
	return sp
}

// MaxBytes is the session's capacity budget, 0 when unconstrained.
func (o *Online) MaxBytes() int { return o.maxBytes }

// startSearch launches the search goroutine over eval. The evaluator is
// wrapped to count measurements consumed (o.fed), which is the window
// coordinate telemetry events carry; both the counter and the trace hook
// run on the search goroutine only.
func (o *Online) startSearch(eval Evaluator) {
	counted := EvaluatorFunc(func(cfg cache.Config) EvalResult {
		r := eval.Evaluate(cfg)
		o.fed++
		return r
	})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSession); ok {
					return // Abort unwound the search
				}
				panic(r)
			}
		}()
		res := SearchTraced(counted, PaperOrder, o.searchSpace(), o.traceStep)
		o.done <- res
		close(o.req)
	}()
}

// traceStep records one heuristic decision. It runs on the search goroutine,
// strictly between receiving a measurement and requesting the next one, so
// it is ordered with (and never races) the access loop.
func (o *Online) traceStep(st SearchStep) {
	if !o.rec.Enabled() {
		return
	}
	win := o.fed
	if win > 0 {
		win-- // the window that produced this measurement
	}
	o.rec.Record(obs.Event{
		Name:    "tuner.step",
		Session: o.sessionID,
		Window:  win,
		Step:    uint64(st.Step),
		Config:  st.Cfg.String(),
		Fields: []slog.Attr{
			slog.String("phase", st.Phase.String()),
			slog.Float64("energy", st.Energy),
			slog.Bool("improved", st.Improved),
			slog.Bool("stop", st.Stop),
			slog.Bool("remeasured", st.Remeasured),
		},
	})
}

// liveEvaluate is the search side of the window rendezvous: request a
// configuration, block until Access completes a measurement window over it.
func (o *Online) liveEvaluate(cfg cache.Config) EvalResult {
	select {
	case o.req <- cfg:
	case <-o.quit:
		panic(abortSession{})
	}
	select {
	case r := <-o.resp:
		return r
	case <-o.quit:
		panic(abortSession{})
	}
}

// advance applies the search's next requested configuration, or completes.
func (o *Online) advance() {
	select {
	case res := <-o.done:
		o.finish(res)
	case cfg, ok := <-o.req:
		if !ok {
			// The search goroutine closed req after publishing its
			// result; the select may observe the close first.
			o.finish(<-o.done)
			return
		}
		o.apply(cfg)
		o.cache.ResetStats()
		o.count = 0
		o.warmupLeft = o.warmup
		o.pending = true
	}
}

func (o *Online) finish(res SearchResult) {
	o.result = res
	o.finished = true
	o.apply(res.Best.Cfg)
	// Close the search span first: its end (work units, not wall-clock)
	// precedes the settle decision it explains.
	o.searchSpan.End(
		slog.Uint64("work", uint64(res.NumExamined())),
		slog.String("unit", "configs"),
		slog.Uint64("windows", o.fed))
	if o.rec.Enabled() {
		fields := []slog.Attr{
			slog.Float64("energy", res.Best.Energy),
			slog.Int("examined", res.NumExamined()),
			slog.Bool("degraded", res.Degraded),
			slog.Uint64("settle_writebacks", o.settleWB),
		}
		if res.Fault != nil {
			fields = append(fields, slog.String("fault", res.Fault.Error()))
		}
		o.rec.Record(obs.Event{
			Name:    "tuner.settle",
			Session: o.sessionID,
			Window:  o.fed,
			Step:    uint64(res.NumExamined()),
			Config:  res.Best.Cfg.String(),
			Fields:  fields,
		})
	}
}

// apply reconfigures the live cache. Most transitions are flush-free
// growth; retreating from a rejected larger size to the sweep's best (and
// the final settle) shrinks, which way shutdown pays for by writing back
// only the dirty lines of the deactivated banks — never a full flush.
func (o *Online) apply(cfg cache.Config) {
	before := o.cache.Stats().SettleWritebacks
	// The reference refuses to shrink unless told to; fastsim.Kernel
	// leaves every transition to its owner.
	if ref, ok := o.cache.(*cache.Configurable); ok {
		ref.AllowShrink = true
		defer func() { ref.AllowShrink = false }()
	}
	if err := o.cache.SetConfig(cfg); err != nil {
		panic("tuner: online transition rejected: " + err.Error())
	}
	o.settleWB += o.cache.Stats().SettleWritebacks - before
}

// abortSession unwinds the search goroutine when Abort is called.
type abortSession struct{}

// Abort ends an unfinished session: the search goroutine unwinds, the cache
// keeps its current configuration, and subsequent Access calls behave as a
// plain cache. Harmless after completion.
func (o *Online) Abort() {
	if o.finished || o.aborted {
		return
	}
	o.aborted = true
	o.pending = false
	close(o.quit)
}

// Aborted reports whether the session was cancelled.
func (o *Online) Aborted() bool { return o.aborted }

// Close ends the session (see Abort) and releases the search goroutine. It
// is safe to call any number of times, before or after the search settles,
// and never returns an error; it exists so daemons can manage a session with
// the usual io.Closer discipline.
func (o *Online) Close() error {
	o.Abort()
	return nil
}

// CompletedWindows is the number of measurement windows fed to the search so
// far (each examined configuration costs one window; re-measures after an
// implausible reading cost one more).
func (o *Online) CompletedWindows() uint64 { return uint64(len(o.history)) }

// SettleWritebacks returns the dirty lines written back by shrinking
// transitions over the whole session (zero for instruction caches; small
// for data caches — compare FlushAblation for the largest-first ordering).
func (o *Online) SettleWritebacks() uint64 { return o.settleWB }

// Access feeds one reference through the cache and advances the tuning
// session when the window completes.
func (o *Online) Access(addr uint32, write bool) cache.AccessResult {
	r := o.cache.Access(addr, write)
	o.served(1)
	return r
}

// ReplayBatch feeds accesses through the cache a chunk at a time: it
// consumes them up to and including the one that completes a measurement
// window (measured, handed to the search, and the next configuration
// applied, exactly as Access does) or the whole slice, and returns how many
// it consumed. Within a window it replays in at most two chunks: up to the
// end of the warmup (where the counters restart), then up to the window's
// end. Once the search has settled or been aborted it replays the whole
// slice as a plain cache.
func (o *Online) ReplayBatch(accs []trace.Access) int {
	n := 0
	for n < len(accs) {
		k := len(accs) - n
		if o.pending {
			k = int(min(uint64(k), o.untilEvent()))
		}
		o.cache.ReplayBatch(accs[n : n+k])
		n += k
		if o.served(uint64(k)) {
			break
		}
	}
	return n
}

// untilEvent is how many accesses the cache serves before the pending
// window's next bookkeeping point: the end of the warmup, or the end of the
// window (at least one access, so a zero window still consumes).
func (o *Online) untilEvent() uint64 {
	if o.warmupLeft > 0 {
		return o.warmupLeft
	}
	return max(o.window-o.count, 1)
}

// served accounts k accesses just served by the cache (k never crosses the
// bookkeeping point untilEvent reports) and reports whether they completed
// a measurement window. Access and ReplayBatch share it, so the per-access
// and batched paths cannot diverge.
func (o *Online) served(k uint64) bool {
	if !o.pending {
		return false
	}
	if o.warmupLeft > 0 {
		o.warmupLeft -= k
		if o.warmupLeft == 0 {
			o.cache.ResetStats()
		}
		return false
	}
	o.count += k
	if o.count < o.window {
		return false
	}
	o.pending = false
	cfg := o.cache.Config()
	st := o.cache.Stats()
	if o.meter != nil {
		st = o.meter(cfg, st)
	}
	b := o.params.Evaluate(cfg, st)
	r := EvalResult{Cfg: cfg, Energy: b.Total(), Breakdown: b, Stats: st}
	o.history = append(o.history, r)
	o.resp <- r
	o.advance()
	return true
}

// Done reports whether the search has settled.
func (o *Online) Done() bool { return o.finished }

// Degraded reports that the session abandoned tuning after persistently
// implausible window readings and settled on SafeConfig instead.
func (o *Online) Degraded() bool { return o.finished && o.result.Degraded }

// Result returns the completed search (zero until Done).
func (o *Online) Result() SearchResult { return o.result }

// Cache returns the cache under tuning.
func (o *Online) Cache() Live { return o.cache }
