package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"syscall"
	"time"

	"selftune/internal/cache"
	"selftune/internal/checkpoint"
	"selftune/internal/daemon"
	"selftune/internal/energy"
	"selftune/internal/engine"
	"selftune/internal/fleet"
	"selftune/internal/obs"
	"selftune/internal/trace"
)

const (
	// frameBytes is the STFW data-frame payload the wire client sends.
	frameBytes = 64 << 10
	// submitBatch is the access batch the Submit client sends.
	submitBatch = 4096
	// churnBudgetBytes is serve-churn's per-session capacity assignment.
	churnBudgetBytes = 4096
)

// serveWorkload is one serving-path workload: a fleet of durable sessions
// fed either over loopback TCP (STFW frames into Manager.IngestConn) or by
// Manager.Submit.
type serveWorkload struct {
	wire     bool
	budget   int // pinned per-session assignment in bytes; 0 = unconstrained
	sessions []*session
	encoded  map[string][]byte // STRC stream per session (wire only)
	// inputs renders the workload's sessions afresh from their seeded
	// generators; nil when the sessions are fixed (the sweep's probe fleet).
	inputs func() ([]*session, error)
	solo   map[string]*soloResult
	shards int
	dir    string // per-run root of the checkpoint directories
}

// soloResult is one session's stream replayed through a lone
// daemon.Session: the reference every fleet session must match.
type soloResult struct {
	events     []checkpoint.Event
	settled    *checkpoint.Outcome
	misses     float64 // settled config's misses over its last search window
	examined   []float64
	tuning     uint64 // accesses stepped while a search was running
	boundaries uint64
	// Energies of the settled configuration and of the base, summed over
	// the segments that end settled.
	settledEnergy, baseEnergy float64
}

func (w *serveWorkload) options(rec obs.Recorder, dir string) fleet.Options {
	o := fleet.Options{Shards: w.shards, Dir: dir, Rec: rec}
	if w.budget > 0 {
		// Pinned assignments keep each session's decisions independent of
		// when its neighbours settle, so the fleet stays bit-identical to
		// solo replays and the simulated metrics repeat exactly; the
		// allocator still replans and persists at every settle.
		o.AllocBudgetBytes = w.budget * len(w.sessions)
		o.EnforceBudget = true
		o.Assignments = map[string]int{}
		for _, s := range w.sessions {
			o.Assignments[s.id] = w.budget
		}
	}
	return o
}

// prepare replays every session solo and prices its settled configurations,
// once per invocation and outside any timed phase. Stationary streams are
// regenerated for it, not kept.
func (w *serveWorkload) prepare() error {
	results := make([]*soloResult, len(w.sessions))
	errs := make([]error, len(w.sessions))
	parallel(len(w.sessions), func(i int) {
		s := w.sessions[i]
		results[i], errs[i] = soloReplay(s.id, s.load(), w.budget)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.solo = map[string]*soloResult{}
	for i, s := range w.sessions {
		w.solo[s.id] = results[i]
	}
	return nil
}

// materialise is the client's share of a repetition's set-up: it renders
// every session's stream again from its seeded generator and, for the wire
// client, encodes each to STRC (keeping only the bytes it will send), on
// GOMAXPROCS goroutines. The output check holds the fleet to the solo
// replays of the prepared streams, so a stream that came out different
// fails the repetition.
func (w *serveWorkload) materialise() error {
	for _, s := range w.sessions {
		if s.gen == nil {
			s.segments = nil // let the previous repetition's streams go first
		}
	}
	fresh, err := w.inputs()
	if err != nil {
		return err
	}
	if !w.wire {
		for i, s := range fresh {
			w.sessions[i].segments = s.segments
		}
		return nil
	}
	encoded := make([][]byte, len(fresh))
	errs := make([]error, len(fresh))
	parallel(len(fresh), func(i int) {
		var buf bytes.Buffer
		buf.Grow(3 * fresh[i].n) // ~2.1 B per access
		if errs[i] = trace.Encode(&buf, fresh[i].flat()); errs[i] == nil {
			encoded[i] = buf.Bytes()
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.encoded = map[string][]byte{}
	for i, s := range w.sessions {
		w.encoded[s.id] = encoded[i]
	}
	return nil
}

// quiesceDisk removes a repetition's checkpoint tree and flushes the file
// system, so the deletion and the repetition's dirty pages are written back
// before the next repetition's set-up and timed phase instead of during
// them.
func quiesceDisk(dir string) {
	os.RemoveAll(dir)
	syscall.Sync()
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, fn func(int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// examinedRecorder collects the configurations-examined count of every
// search a solo session settles.
type examinedRecorder struct{ examined []float64 }

func (r *examinedRecorder) Enabled() bool { return true }
func (r *examinedRecorder) Record(e obs.Event) {
	if e.Name == "daemon.settle" || e.Name == "daemon.degraded" {
		r.examined = append(r.examined, float64(attr(e.Fields, "examined").Int64()))
	}
}

// soloReplay steps one session's stream through a lone daemon.Session and
// prices, for every segment that ends settled, the settled configuration
// and the configuration the session boots in (cache.MinConfig, where every
// search starts cold) over that segment's accesses.
func soloReplay(id string, segs [][]trace.Access, budget int) (*soloResult, error) {
	rec := &examinedRecorder{}
	sess := daemon.NewSession(daemon.Options{BudgetBytes: budget, Rec: rec})
	out := &soloResult{}
	p := energy.DefaultParams()
	for _, seg := range segs {
		for _, a := range seg {
			if sess.Tuning() {
				out.tuning++
			}
			b, err := sess.Step(a.Addr, a.IsWrite())
			if err != nil {
				return nil, fmt.Errorf("solo %s: %w", id, err)
			}
			if b {
				out.boundaries++
			}
		}
		if st := sess.Settled(); st != nil && !sess.Tuning() {
			e := engine.New(seg, engine.Configurable(p))
			out.settledEnergy += e.Evaluate(st.Cfg).Energy
			out.baseEnergy += e.Evaluate(cache.MinConfig()).Energy
		}
	}
	out.events = sess.Events()
	out.settled = sess.Settled()
	if res, ok := sess.LastResult(); ok {
		out.misses = float64(res.Best.Stats.Misses)
	}
	out.examined = rec.examined
	return out, nil
}

// energySavingPct is what self-tuning saved the fleet: 1 - sum(E settled) /
// sum(E boot) over every (session, phase) whose phase ends settled, each
// energy a replay of that phase's accesses, the boot configuration being
// cache.MinConfig. (The paper's 8K_4W_32B base is no reference here: a
// budget-constrained session cannot use it, and against it the metric sits
// near zero on serve-steady — the online search settles ucbqsort at
// 4K_1W_16B, about 2.6x the base's energy — where its relative seed-to-seed
// spread reached 0.22.)
func (w *serveWorkload) energySavingPct() float64 {
	var settled, base float64
	for _, s := range w.solo {
		settled += s.settledEnergy
		base += s.baseEnergy
	}
	return 100 * (1 - settled/base)
}

// repResult is one repetition's measurements.
type repResult struct {
	setup                time.Duration
	timed                time.Duration
	accesses             uint64
	settleMS             []float64
	examined             []float64
	memMB                float64
	misses               float64 // simulated misses per window, per session
	submitUS             []float64
	goroutinesPerSession float64
	acct                 accounting
}

// accounting is the attempt/failure ledger of a run.
type accounting struct {
	Opened    int    `json:"sessions_opened"`
	Acked     int    `json:"sessions_acked"`
	Rejected  int    `json:"sessions_rejected"`
	Failed    int    `json:"sessions_failed"`
	Submitted uint64 `json:"accesses_submitted"`
	Consumed  uint64 `json:"accesses_consumed"`
	Shed      uint64 `json:"accesses_shed"`
}

func (a *accounting) add(b accounting) {
	a.Opened += b.Opened
	a.Acked += b.Acked
	a.Rejected += b.Rejected
	a.Failed += b.Failed
	a.Submitted += b.Submitted
	a.Consumed += b.Consumed
	a.Shed += b.Shed
}

// repOpts selects how one repetition runs.
type repOpts struct {
	// listen attaches the settle listener as the fleet's recorder; off,
	// the fleet records nothing (the listener-cost comparison).
	listen bool
	// tr, when set, records a span around each client call into the fleet.
	tr *tracer
	// wire feeds the fleet over loopback TCP; otherwise by Submit.
	wire bool
	// memProbe takes the memory samples while the input is sent.
	memProbe bool
}

// rep runs the workload once: set-up (the workload's own client renders its
// inputs, then the fleet, listener and opens), the timed phase (first data
// to last done-ack or close), then the output check.
func (w *serveWorkload) rep(idx int, o repOpts) (*repResult, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("rep-%d", idx))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer quiesceDisk(dir)
	lis := newSettleListener()
	var rec obs.Recorder
	if o.listen {
		rec = lis
	}
	res := &repResult{}
	g0 := runtime.NumGoroutine()
	var client time.Duration
	if w.inputs != nil && o.wire == w.wire {
		c0 := time.Now()
		if err := w.materialise(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		client = time.Since(c0)
		// The client's garbage (generated accesses, the previous
		// repetition's inputs) is collected now, untimed, rather than
		// during the fleet's set-up or timed phase.
		runtime.GC()
	}
	// The memory baseline is taken after the client's inputs exist, so
	// mem_mb counts the program's memory only; its forced collection is not
	// set-up time.
	mem := newMemProbe(o.memProbe, true)
	defer mem.stop()
	t0 := time.Now()
	m, err := fleet.New(w.options(rec, dir))
	if err != nil {
		return nil, err
	}
	var cl *wireClient
	if o.wire {
		cl, err = w.dial(m)
	} else {
		for _, s := range w.sessions {
			if err = m.Open(s.id); err != nil {
				break
			}
		}
	}
	if err != nil {
		m.Kill()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t1 := time.Now()
	res.setup = client + t1.Sub(t0)
	res.goroutinesPerSession = float64(runtime.NumGoroutine()-g0) / float64(len(w.sessions))
	lis.begin(t1)
	var acked map[string]bool
	if o.wire {
		acked, err = cl.stream(w, o.tr, mem.at)
	} else {
		acked, res.submitUS, err = w.submitAll(m, o.tr, mem.at)
	}
	res.timed = time.Since(t1)
	res.memMB = mem.mb()
	if err != nil {
		m.Kill()
		return nil, err
	}
	rep := m.Report()
	if err := m.Close(); err != nil {
		return nil, fmt.Errorf("fleet close: %w", err)
	}
	lis.mu.Lock()
	res.settleMS, res.examined = lis.settleMS, lis.examined
	lis.mu.Unlock()
	res.acct.Opened = len(w.sessions)
	res.acct.Rejected = int(rep.Rejected)
	for _, s := range w.sessions {
		res.acct.Submitted += uint64(s.n)
		if acked[s.id] {
			res.acct.Acked++
		}
	}
	for _, sr := range rep.Sessions {
		res.accesses += sr.Consumed
		res.acct.Consumed += sr.Consumed
		res.acct.Shed += sr.Shed
		if sr.Health != fleet.Active {
			res.acct.Failed++
		}
	}
	if len(w.sessions) > 0 {
		res.misses = rep.TotalMissesPerWindow / float64(len(w.sessions))
	}
	if err := w.check(dir, rep, acked, res, o.listen); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return res, nil
}

// check is the per-repetition output check: every session acknowledged,
// Active, unshed and fully consumed, and its durable decision log and
// settled outcome equal to its solo replay.
func (w *serveWorkload) check(dir string, rep fleet.Report, acked map[string]bool, res *repResult, listen bool) error {
	if len(rep.Sessions) != len(w.sessions) {
		return fmt.Errorf("%d of %d sessions reported", len(rep.Sessions), len(w.sessions))
	}
	if rep.Rejected != 0 || rep.WorkerPanics != 0 {
		return fmt.Errorf("%d rejected opens, %d worker panics", rep.Rejected, rep.WorkerPanics)
	}
	byID := map[string]fleet.SessionReport{}
	for _, sr := range rep.Sessions {
		byID[sr.ID] = sr
	}
	fs, err := checkpoint.OpenFleetStore(dir, 0)
	if err != nil {
		return err
	}
	var soloMisses float64
	var soloExamined []float64
	for _, s := range w.sessions {
		sr, ok := byID[s.id]
		solo := w.solo[s.id]
		switch {
		case !ok:
			return fmt.Errorf("session %s missing from the report", s.id)
		case !acked[s.id]:
			return fmt.Errorf("session %s was not acknowledged", s.id)
		case sr.Health != fleet.Active:
			return fmt.Errorf("session %s ended %v", s.id, sr.Health)
		case sr.Shed != 0:
			return fmt.Errorf("session %s shed %d accesses", s.id, sr.Shed)
		case sr.Consumed != uint64(s.n):
			return fmt.Errorf("session %s consumed %d of %d accesses", s.id, sr.Consumed, s.n)
		}
		d, err := daemon.New(daemon.Options{Dir: fs.SessionDir(s.id), BudgetBytes: w.budget})
		if err != nil {
			return fmt.Errorf("session %s durable view: %w", s.id, err)
		}
		ev, st := d.Events(), d.Settled()
		d.Kill()
		if !reflect.DeepEqual(ev, solo.events) {
			return fmt.Errorf("session %s decision log differs from its solo replay (%d vs %d events)", s.id, len(ev), len(solo.events))
		}
		if !reflect.DeepEqual(st, solo.settled) {
			return fmt.Errorf("session %s settled %+v, solo replay settled %+v", s.id, st, solo.settled)
		}
		soloMisses += solo.misses
		soloExamined = append(soloExamined, solo.examined...)
	}
	if rep.TotalMissesPerWindow != soloMisses {
		return fmt.Errorf("fleet misses per window %v differ from solo %v", rep.TotalMissesPerWindow, soloMisses)
	}
	if listen && (len(res.examined) != len(soloExamined) || mean(res.examined) != mean(soloExamined)) {
		return fmt.Errorf("fleet searches examined %v configs over %d searches, solo %v over %d",
			mean(res.examined), len(res.examined), mean(soloExamined), len(soloExamined))
	}
	return nil
}

// submitAll is the Submit client: one goroutine sending 4096-access batches
// round-robin across the sessions (each Submit blocks under that session's
// backpressure), then closing every session. It returns the sessions that
// closed cleanly and, when traced, each Submit's blocking time.
func (w *serveWorkload) submitAll(m *fleet.Manager, tr *tracer, progress func(done, total int)) (map[string]bool, []float64, error) {
	type cursor struct{ seg, off int }
	cur := make([]cursor, len(w.sessions))
	var blockUS []float64
	total, sent := 0, 0
	for _, s := range w.sessions {
		total += s.n
	}
	for live := len(w.sessions); live > 0; {
		live = 0
		for i, s := range w.sessions {
			c := &cur[i]
			if c.seg >= len(s.segments) {
				continue
			}
			live++
			seg := s.segments[c.seg]
			hi := min(c.off+submitBatch, len(seg))
			sp := tr.begin(0, "fleet.Manager.Submit", s.id)
			if err := m.Submit(s.id, seg[c.off:hi]); err != nil {
				return nil, nil, fmt.Errorf("submit %s: %w", s.id, err)
			}
			if d := tr.end(sp); tr != nil {
				blockUS = append(blockUS, float64(d.Nanoseconds())/1e3)
			}
			sent += hi - c.off
			progress(sent, total)
			c.off = hi
			if c.off == len(seg) {
				c.seg, c.off = c.seg+1, 0
			}
		}
	}
	closed := map[string]bool{}
	for _, s := range w.sessions {
		sp := tr.begin(0, "fleet.Manager.CloseSession", s.id)
		if err := m.CloseSession(s.id); err != nil {
			return nil, nil, fmt.Errorf("close %s: %w", s.id, err)
		}
		tr.end(sp)
		closed[s.id] = true
	}
	return closed, blockUS, nil
}

// wireClient is one loopback TCP connection into the fleet.
type wireClient struct {
	conn   *net.TCPConn
	cw     *fleet.ConnWriter
	served chan error
}

// dial is serve-steady's transport set-up: a loopback listener whose single
// accepted connection the fleet serves with IngestConn (as cmd/stcd does),
// the client connection, and one open frame per session; it returns once
// the fleet has opened every session.
func (w *serveWorkload) dial(m *fleet.Manager) (*wireClient, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		err = m.IngestConn(c)
		c.Close()
		served <- err
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	cl := &wireClient{conn: c.(*net.TCPConn), served: served}
	if cl.cw, err = fleet.NewConnWriter(c); err != nil {
		c.Close()
		return nil, err
	}
	for _, s := range w.sessions {
		if err := cl.cw.Open(s.id); err != nil {
			c.Close()
			return nil, err
		}
	}
	for len(m.Sessions()) < len(w.sessions) {
		select {
		case err := <-served:
			c.Close()
			return nil, fmt.Errorf("fleet stopped serving during opens: %v", err)
		case <-time.After(50 * time.Microsecond):
		}
	}
	return cl, nil
}

// stream sends every session's STRC bytes as 64 KiB data frames,
// round-robin across sessions on the one connection, closes each session
// after its last frame, half-closes, and reads the server's responses to
// EOF. It returns the sessions whose closes were acknowledged.
func (cl *wireClient) stream(w *serveWorkload, tr *tracer, progress func(done, total int)) (map[string]bool, error) {
	defer cl.conn.Close()
	off := make([]int, len(w.sessions))
	total, sent := 0, 0
	for _, b := range w.encoded {
		total += len(b)
	}
	for live := len(w.sessions); live > 0; {
		live = 0
		for i, s := range w.sessions {
			b := w.encoded[s.id]
			if off[i] > len(b) {
				continue
			}
			live++
			hi := min(off[i]+frameBytes, len(b))
			sp := tr.begin(0, "fleet.ConnWriter.Data", s.id)
			err := cl.cw.Data(s.id, b[off[i]:hi])
			tr.end(sp)
			if err == nil && hi == len(b) {
				err = cl.cw.Close(s.id)
				hi++ // mark closed
			}
			if err != nil {
				return nil, fmt.Errorf("send %s: %w", s.id, err)
			}
			sent += min(hi, len(b)) - off[i]
			progress(sent, total)
			off[i] = hi
		}
	}
	if err := cl.conn.CloseWrite(); err != nil {
		return nil, err
	}
	sp := tr.begin(0, "fleet.ReadResponseStream", "")
	resp, err := fleet.ReadResponseStream(cl.conn)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("responses: %w", err)
	}
	if err := <-cl.served; err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if len(resp.Errors) > 0 {
		e := resp.Errors[0]
		return nil, fmt.Errorf("%d error frames, first for %s: code %d: %s", len(resp.Errors), e.SID, e.Code, e.Msg)
	}
	acked := map[string]bool{}
	for _, s := range w.sessions {
		acked[s.id] = resp.Acked(s.id)
	}
	return acked, nil
}
