package daemon

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"selftune/internal/checkpoint"
	"selftune/internal/trace"
)

func encodePending(t *testing.T, s *Session) []byte {
	t.Helper()
	b, err := checkpoint.Encode(s.Pending())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStepBatchMatchesStep pins the window-granular path to the per-access
// one: StepBatch fed random-sized chunks, Session.Run and Daemon.Run reach
// exactly the boundaries Step reaches, with byte-identical snapshots, across
// searches, settles, drift re-tunes and watchdog aborts.
func TestStepBatchMatchesStep(t *testing.T) {
	accs := append(twoPhaseStream(60_000, 60_000), twoPhaseStream(50_000, 0)...)
	for _, opts := range []Options{
		{Window: 2_000},
		{Window: 1_500, WatchdogWindows: 3},
	} {
		ref := NewSession(opts)
		want := map[uint64][]byte{}
		for _, a := range accs {
			b, err := ref.Step(a.Addr, a.IsWrite())
			if err != nil {
				t.Fatal(err)
			}
			if b {
				want[ref.Consumed()] = encodePending(t, ref)
			}
		}
		if ref.Retunes() == 0 {
			t.Fatalf("window %d: stream caused no re-tune; the test needs one", opts.Window)
		}

		got := NewSession(opts)
		r := rand.New(rand.NewSource(int64(opts.Window)))
		seen := 0
		for rest := accs; len(rest) > 0; {
			n, b, err := got.StepBatch(rest[:min(len(rest), 1+r.Intn(7_000))])
			if err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
			w, ok := want[got.Consumed()]
			switch {
			case b != ok:
				t.Fatalf("window %d: at %d accesses StepBatch boundary=%v, Step boundary=%v", opts.Window, got.Consumed(), b, ok)
			case b && !bytes.Equal(encodePending(t, got), w):
				t.Fatalf("window %d: snapshot at %d accesses differs from Step's", opts.Window, got.Consumed())
			case b:
				seen++
			}
		}
		if seen != len(want) {
			t.Fatalf("window %d: StepBatch reached %d boundaries, Step %d", opts.Window, seen, len(want))
		}

		run := NewSession(opts)
		if err := run.Run(trace.NewSliceSource(accs)); err != nil {
			t.Fatal(err)
		}
		d, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background(), trace.NewSliceSource(accs)); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{run, d.Session()} {
			if s.Consumed() != ref.Consumed() || !bytes.Equal(encodePending(t, s), encodePending(t, ref)) ||
				!reflect.DeepEqual(s.Events(), ref.Events()) {
				t.Fatalf("window %d: Run ended at %d accesses with a different state than Step (%d)", opts.Window, s.Consumed(), ref.Consumed())
			}
		}
	}
}

// TestSettledStepBatchZeroAllocs pins the settled serving loop, batched and
// per-access, to zero heap allocations within a window.
func TestSettledStepBatchZeroAllocs(t *testing.T) {
	accs := twoPhaseStream(200_000, 0)
	s := NewSession(Options{Window: 10_000})
	i := 0
	for ; s.Tuning() || !s.AtBoundary(); i++ {
		if _, err := s.Step(accs[i].Addr, accs[i].IsWrite()); err != nil {
			t.Fatal(err)
		}
	}
	// Six calls of 1000 accesses each stay inside the next window.
	chunk := accs[i : i+1_000]
	if n := testing.AllocsPerRun(5, func() {
		if _, b, _ := s.StepBatch(chunk); b {
			t.Fatal("chunk crossed a window boundary")
		}
	}); n != 0 {
		t.Errorf("settled StepBatch: %.0f allocs/op, want 0", n)
	}
	a := accs[i]
	if n := testing.AllocsPerRun(100, func() { s.Step(a.Addr, a.IsWrite()) }); n != 0 {
		t.Errorf("settled Step: %.0f allocs/op, want 0", n)
	}
}
