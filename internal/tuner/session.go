package tuner

import (
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/energy"
	"selftune/internal/obs"
)

// This file makes an Online session snapshottable and resumable, the piece
// that lets a software tuner survive process death the way the paper's
// on-chip FSMD survives anything short of power loss. The key observation is
// that the heuristic is a pure function of its measurement sequence: the
// configurations it asks for, the sweeps it opens and closes, the incumbent
// it keeps — all of it is determined by the EvalResults it has been fed. So
// the exported state machine is simply that transcript (Online.history) plus
// the window geometry, and import is replay: feed the recorded measurements
// back through a fresh Search, which rebuilds its internal state exactly,
// then splice the live measurement loop back in where the transcript ends.
//
// Snapshots are only meaningful at window boundaries — mid-window the
// session's state includes half-measured counters that exist nowhere but in
// the live cache — so Snapshot refuses elsewhere. The companion cache.Image
// captures the cache contents at the same instant; together they make a
// kill+resume bit-identical to an uninterrupted run (the crash-equivalence
// property pinned by internal/experiments' chaos harness).

// SessionState is the complete externally held state of an Online session at
// a window boundary. It is plain data (no channels, no goroutines) so
// internal/checkpoint can persist it.
type SessionState struct {
	// Window is the measurement interval the session was created with.
	Window uint64
	// Applied is the configuration applied to the cache at the boundary
	// (the one the next window will measure, or the settled choice).
	Applied cache.Config
	// History is the transcript: every window measurement fed to the
	// search so far, in order.
	History []EvalResult
	// SettleWB is the settle-writeback total accumulated so far.
	SettleWB uint64
	// Finished and Aborted record a session that is no longer searching.
	Finished bool
	Aborted  bool
	// MaxBytes is the capacity budget the search was constrained to, 0 when
	// unconstrained. Start is the warm re-search entry configuration (zero
	// value = the space's smallest configuration). Both are replayed on
	// resume so the restricted walk continues identically.
	MaxBytes int
	Start    cache.Config
}

// AtWindowBoundary reports whether the session is exactly between
// measurement windows (including before the first access, and any time
// after the search finished or was aborted) — the only states Snapshot can
// capture faithfully.
func (o *Online) AtWindowBoundary() bool {
	if o.finished || o.aborted {
		return true
	}
	return o.pending && o.count == 0 && o.warmupLeft == o.warmup
}

// Snapshot exports the session's state machine. It must be called at a
// window boundary: immediately after an Access that completed a measurement
// window (or before any access, or after settle/abort). Mid-window it
// returns an error instead of a state that could not be resumed faithfully.
//
// The caller persists the returned state together with the cache's
// cache.Image taken at the same instant; ResumeOnline rebuilds the session
// from the pair.
func (o *Online) Snapshot() (SessionState, error) {
	if !o.AtWindowBoundary() {
		return SessionState{}, fmt.Errorf("tuner: session snapshot requested mid-window (%d of %d accesses measured)", o.count, o.window)
	}
	return SessionState{
		Window:   o.window,
		Applied:  o.cache.Config(),
		History:  append([]EvalResult(nil), o.history...),
		SettleWB: o.settleWB,
		Finished: o.finished,
		Aborted:  o.aborted,
		MaxBytes: o.maxBytes,
		Start:    o.start,
	}, nil
}

// resumeMismatch unwinds a replayed search whose requests diverge from the
// recorded transcript — a corrupt or mismatched snapshot.
type resumeMismatch struct{ err error }

// replaySearch reruns the heuristic over a recorded transcript — in the same
// (possibly budget-restricted) space the original session walked — and
// reports the state it reaches. complete is true when the transcript settles
// the search, in which case res is its result — recomputed, not stored, so it
// cannot drift from the transcript. An incomplete transcript (the search
// still wants more windows) is not an error; a transcript that diverges
// from the heuristic's deterministic request sequence is.
func replaySearch(history []EvalResult, space Space) (res SearchResult, complete bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			switch m := p.(type) {
			case resumeMismatch:
				res, complete, err = SearchResult{}, false, m.err
			case abortSession:
				// Transcript exhausted mid-search: the search wants its
				// next live window. This unwinds the goroutine-free
				// replay the same way Abort unwinds a live session.
				res, complete, err = SearchResult{}, false, nil
			default:
				panic(p)
			}
		}
	}()
	i := 0
	res = SearchInSpace(EvaluatorFunc(func(cfg cache.Config) EvalResult {
		if i >= len(history) {
			panic(abortSession{})
		}
		r := history[i]
		if r.Cfg != cfg {
			panic(resumeMismatch{fmt.Errorf("tuner: resume transcript diverged at window %d: recorded %v, search requests %v", i, r.Cfg, cfg)})
		}
		i++
		return r
	}), PaperOrder, space)
	if i != len(history) {
		return SearchResult{}, false, fmt.Errorf("tuner: resume transcript has %d windows but the search consumed only %d", len(history), i)
	}
	return res, true, nil
}

// ResumeOnline rebuilds a tuning session from a SessionState exported by
// Snapshot. c must be the cache restored from the Image captured at the same
// boundary (its applied configuration is cross-checked). The resumed session
// continues the search mid-sweep: the recorded transcript is replayed
// through a fresh heuristic — rebuilding sweep position, candidate index and
// best-so-far energies exactly — and the live measurement loop takes over at
// the first window the transcript does not cover. meter plays the same role
// as in NewOnlineMetered and must be the same measurement seam the original
// session used for the continuation to be faithful.
func ResumeOnline(c *cache.Configurable, p *energy.Params, st SessionState, meter Meter) (*Online, error) {
	return ResumeOnlineObserved(c, p, st, meter, nil, 0)
}

// ResumeOnlineObserved is ResumeOnline with telemetry (see NewOnlineObserved).
// The replayed transcript prefix re-emits its "tuner.step" events with
// coordinates identical to the first life's — the determinism contract that
// lets a killed-and-resumed daemon's event log be deduplicated by
// (session, window, step) instead of diverging. c may be either Live cache
// (a daemon passes its fastsim kernel).
func ResumeOnlineObserved(c Live, p *energy.Params, st SessionState, meter Meter, rec obs.Recorder, session uint64) (*Online, error) {
	if st.Window == 0 {
		return nil, fmt.Errorf("tuner: resume: zero measurement window")
	}
	if c.Config() != st.Applied {
		return nil, fmt.Errorf("tuner: resume: cache is configured %v but the snapshot applied %v", c.Config(), st.Applied)
	}
	o := &Online{
		cache:     c,
		params:    p,
		window:    st.Window,
		meter:     meter,
		rec:       obs.OrNop(rec),
		sessionID: session,
		warmup:    st.Window / 4,
		settleWB:  st.SettleWB,
		history:   append([]EvalResult(nil), st.History...),
		req:       make(chan cache.Config),
		resp:      make(chan EvalResult),
		done:      make(chan SearchResult, 1),
		quit:      make(chan struct{}),
		maxBytes:  st.MaxBytes,
		start:     st.Start,
	}
	if st.Aborted {
		o.aborted = true
		return o, nil
	}
	if st.Finished {
		// The transcript contains the whole search; recompute its result
		// (including the Degraded path) instead of trusting a separately
		// stored copy that could drift from it.
		res, complete, err := replaySearch(st.History, o.searchSpace())
		if err != nil {
			return nil, err
		}
		if !complete {
			return nil, fmt.Errorf("tuner: resume: snapshot marked finished but its %d-window transcript does not settle the search", len(st.History))
		}
		if res.Best.Cfg != st.Applied {
			return nil, fmt.Errorf("tuner: resume: settled snapshot applied %v but the transcript settles on %v", st.Applied, res.Best.Cfg)
		}
		o.finished = true
		o.result = res
		return o, nil
	}

	// Active session: replay the transcript inside the search goroutine,
	// then hand over to the live window loop. A transcript that diverges
	// from the deterministic request sequence, or that unexpectedly
	// completes the search, is a corrupt snapshot and fails construction.
	mismatch := make(chan error, 1)
	idx := 0
	// Re-begin the search span before the transcript replay: coordinates
	// (session ordinal, window 0) match the first life's begin exactly, so
	// the re-emitted span event is bit-identical and dedupes away.
	o.beginSearchSpan()
	o.startSearch(EvaluatorFunc(func(cfg cache.Config) EvalResult {
		if idx < len(st.History) {
			r := st.History[idx]
			if r.Cfg != cfg {
				mismatch <- fmt.Errorf("tuner: resume transcript diverged at window %d: recorded %v, search requests %v", idx, r.Cfg, cfg)
				panic(abortSession{})
			}
			idx++
			return r
		}
		return o.liveEvaluate(cfg)
	}))
	// Re-arm exactly like advance(): the first live request must be the
	// configuration that was applied at the boundary. Applying it again is
	// a no-op reconfiguration (SetConfig of the current configuration),
	// so the resumed window starts from the restored cache image with a
	// fresh warmup — the same state the original process was in.
	select {
	case err := <-mismatch:
		return nil, err
	case res := <-o.done:
		_ = res
		return nil, fmt.Errorf("tuner: resume: snapshot marked mid-search but its %d-window transcript settles the search", len(st.History))
	case cfg, ok := <-o.req:
		if !ok {
			return nil, fmt.Errorf("tuner: resume: search ended without a result")
		}
		if cfg != st.Applied {
			return nil, fmt.Errorf("tuner: resume: search requests %v next but the snapshot applied %v", cfg, st.Applied)
		}
		o.apply(cfg)
		o.cache.ResetStats()
		o.count = 0
		o.warmupLeft = o.warmup
		o.pending = true
	}
	return o, nil
}
