package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"selftune/internal/obs"
)

// span is one timed call (or batch of calls) the benchmark made into a
// layer: its name, the stream it served (a session id or a sweep profile),
// the span that caused it, and its start and end relative to the run's
// start. Spans are recorded only by traced runs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Stream string `json:"stream,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, name, stream string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Stream: stream, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration(sp.End - sp.Start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coverage(s, children[s.ID])
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coverage is the length of the union of kids' intervals clipped to p.
func coverage(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heldBytes is the Go runtime memory the program holds: the heap and the
// goroutine stack bytes the most recent collection found live.
func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/scan/stack:bytes"}}
	metrics.Read(s)
	var n uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			n += x.Value.Uint64()
		}
	}
	return n
}

// memProbe takes the memory metric: the runtime memory the program holds
// (after a forced collection) at each 64th of a repetition's input,
// averaged — queue occupancy at any one instant varies — above a baseline
// taken the same way before the program's set-up. A disabled probe does
// nothing, so timed repetitions never pay for the forced collections.
const memSamples = 63

type memProbe struct {
	on      bool
	base    float64
	asked   int           // samples requested so far
	req     chan struct{} // the background sampler's requests; nil when synchronous
	done    chan struct{}
	samples []float64
}

// newMemProbe takes the baseline. With background set, samples are taken
// on a goroutine of their own: a serving client that waited for each
// forced collection would let the fleet drain its queues meanwhile, and
// the samples would measure the probe's stalls rather than the queues the
// client keeps full. The sweep reports progress between rows, where
// waiting for the sample keeps it at a fixed point of the work.
func newMemProbe(on, background bool) *memProbe {
	p := &memProbe{on: on}
	if !on {
		return p
	}
	p.base = heldAfterGC()
	if background {
		p.req, p.done = make(chan struct{}, 1), make(chan struct{})
		go func() {
			defer close(p.done)
			for range p.req {
				p.samples = append(p.samples, heldAfterGC())
			}
		}()
	}
	return p
}

// at reports progress: done of total input units sent so far.
func (p *memProbe) at(done, total int) {
	for p.on && p.asked < memSamples && done*(memSamples+1) >= (p.asked+1)*total {
		p.asked++
		if p.req == nil {
			p.samples = append(p.samples, heldAfterGC())
			continue
		}
		select {
		case p.req <- struct{}{}:
		default: // the sampler is still busy; this request folds into the pending one
		}
	}
}

// stop ends the background sampler and waits for it.
func (p *memProbe) stop() {
	if p.req != nil {
		close(p.req)
		<-p.done
		p.req = nil
	}
}

// mb is the mean sample above baseline in MiB (0 when disabled).
func (p *memProbe) mb() float64 {
	if !p.on {
		return 0
	}
	p.stop()
	return mean(p.samples) - p.base
}

// heldAfterGC collects and returns heldBytes in MiB.
func heldAfterGC() float64 {
	runtime.GC()
	return float64(heldBytes()) / (1 << 20)
}

// settleListener is the benchmark's own obs.Recorder, passed as the fleet's
// Rec. It keeps only search boundaries per session — a search starts at the
// timed phase's start (a session's first search) or at daemon.retune, and
// ends at daemon.settle, daemon.degraded or daemon.watchdog — and ignores
// every other event after one string switch.
type settleListener struct {
	mu       sync.Mutex
	start    time.Time
	open     map[string]time.Time
	settleMS []float64
	examined []float64
}

func newSettleListener() *settleListener {
	return &settleListener{open: map[string]time.Time{}}
}

// begin marks the timed phase's start.
func (l *settleListener) begin(t time.Time) {
	l.mu.Lock()
	l.start = t
	l.mu.Unlock()
}

func (l *settleListener) Enabled() bool { return true }

func (l *settleListener) Record(e obs.Event) {
	switch e.Name {
	case "daemon.retune", "daemon.settle", "daemon.degraded", "daemon.watchdog":
	default:
		return
	}
	now := time.Now()
	sid := attr(e.Fields, "sid").String()
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Name == "daemon.retune" {
		l.open[sid] = now
		return
	}
	start, ok := l.open[sid]
	if !ok {
		start = l.start
	}
	delete(l.open, sid)
	l.settleMS = append(l.settleMS, float64(now.Sub(start).Nanoseconds())/1e6)
	if v := attr(e.Fields, "examined"); v.Kind() == slog.KindInt64 {
		l.examined = append(l.examined, float64(v.Int64()))
	}
}

// attr finds a field by key (the zero Value when absent).
func attr(fs []slog.Attr, key string) slog.Value {
	for _, a := range fs {
		if a.Key == key {
			return a.Value
		}
	}
	return slog.Value{}
}

// environment is the self-describing part of the run record.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

func describeEnvironment() environment {
	return environment{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the checkout's .git directory without
// running git; a checkout exported without history reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return fmt.Sprintf("unknown (%s)", ref)
}
