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
// to a fresh Searcher, which rebuilds its internal state exactly, then let
// the live measurement windows continue where the transcript ends.
//
// Snapshots are only meaningful at window boundaries — mid-window the
// session's state includes half-measured counters that exist nowhere but in
// the live cache — so Snapshot refuses elsewhere. The companion cache.Image
// captures the cache contents at the same instant; together they make a
// kill+resume bit-identical to an uninterrupted run (the crash-equivalence
// property pinned by internal/experiments' chaos harness).

// SessionState is the complete externally held state of an Online session at
// a window boundary. It is plain data so internal/checkpoint can persist it.
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
	return o.count == 0 && o.warmupLeft == o.warmup
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

// ResumeOnline rebuilds a tuning session from a SessionState exported by
// Snapshot. c must be the cache restored from the Image captured at the same
// boundary (its applied configuration is cross-checked). The resumed session
// continues the search mid-sweep: the recorded transcript is fed to a fresh
// Searcher — rebuilding sweep position, candidate index and best-so-far
// energies exactly — and live measurement windows take over at the first
// window the transcript does not cover. A transcript that diverges from the
// heuristic's deterministic request sequence is a corrupt snapshot and an
// error, as is one whose end state disagrees with the snapshot: a settled
// snapshot must settle on Applied, and a mid-search one must want Applied
// measured next. meter plays the same role as in NewOnlineMetered and must
// be the same measurement seam the original session used for the
// continuation to be faithful.
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
	if st.Start != (cache.Config{}) && st.Start.Validate() != nil {
		// Every request a search from a valid start makes is realisable,
		// so a transcript that matches them can never settle the cache
		// on a configuration it cannot take.
		return nil, fmt.Errorf("tuner: resume: invalid start configuration %v", st.Start)
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
		maxBytes:  st.MaxBytes,
		start:     st.Start,
	}
	if st.Aborted {
		o.aborted = true
		o.history = append([]EvalResult(nil), st.History...)
		return o, nil
	}
	// A settled session's result is recomputed from the transcript
	// (including the Degraded path) instead of trusting a separately
	// stored copy that could drift from it. Its steps were recorded when
	// the search made them, so only a session still searching re-emits
	// them — under the first life's coordinates, starting with the search
	// span, so the re-emitted events are bit-identical and dedupe away.
	var trace func(SearchStep)
	if !st.Finished {
		o.beginSearchSpan()
		trace = o.traceStep
	}
	s := NewSearcher(PaperOrder, o.searchSpace(), trace)
	for i, r := range st.History {
		req, ok := s.Next()
		if !ok {
			return nil, fmt.Errorf("tuner: resume transcript has %d windows but the search settles after %d", len(st.History), i)
		}
		if req.Cfg != r.Cfg {
			return nil, fmt.Errorf("tuner: resume transcript diverged at window %d: recorded %v, search requests %v", i, r.Cfg, req.Cfg)
		}
		o.history = append(o.history, r)
		s.Feed(r)
	}
	req, ok := s.Next()
	switch {
	case st.Finished && ok:
		return nil, fmt.Errorf("tuner: resume: snapshot marked finished but its %d-window transcript does not settle the search", len(st.History))
	case st.Finished && s.Result().Best.Cfg != st.Applied:
		return nil, fmt.Errorf("tuner: resume: settled snapshot applied %v but the transcript settles on %v", st.Applied, s.Result().Best.Cfg)
	case st.Finished:
		o.finished = true
		o.result = s.Result()
	case !ok:
		return nil, fmt.Errorf("tuner: resume: snapshot marked mid-search but its %d-window transcript settles the search", len(st.History))
	case req.Cfg != st.Applied:
		return nil, fmt.Errorf("tuner: resume: search requests %v next but the snapshot applied %v", req.Cfg, st.Applied)
	default:
		// Re-arm exactly like advance. Applying the configuration that
		// is already applied is a no-op reconfiguration, so the resumed
		// window starts from the restored cache image with a fresh
		// warmup — the state the original process was in.
		o.search = s
		o.arm(req.Cfg)
	}
	return o, nil
}
