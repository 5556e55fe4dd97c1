package fastsim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"selftune/internal/cache"
	"selftune/internal/fastsim"
	"selftune/internal/trace"
	"selftune/internal/workload"
)

// The live-kernel tier of the differential oracle: a serving session
// reconfigures its kernel in place, snapshots it and restores it, so the
// kernel must match cache.Configurable not only access by access within one
// configuration but across every transition (shrinking ones, 1-way <->
// set-associative, prediction on/off) and across image round-trips in both
// directions.

// livePair is the kernel under test and the reference it must match.
type livePair struct {
	t   *testing.T
	ref *cache.Configurable
	k   *fastsim.Kernel
}

func newLivePair(t *testing.T, cfg cache.Config) *livePair {
	p := &livePair{t: t, ref: cache.MustConfigurable(cfg), k: fastsim.Must(cfg)}
	p.ref.AllowShrink = true
	return p
}

// access performs one access on both and compares the results.
func (p *livePair) access(a trace.Access) {
	p.t.Helper()
	rr := p.ref.Access(a.Addr, a.IsWrite())
	kr := p.k.Access(a.Addr, a.IsWrite())
	if rr != kr {
		p.t.Fatalf("%v access %08x %v: ref %+v kernel %+v", p.ref.Config(), a.Addr, a.Kind, rr, kr)
	}
}

// batch replays accs through the kernel's batched loop and the reference
// one access at a time.
func (p *livePair) batch(accs []trace.Access) {
	for _, a := range accs {
		p.ref.Access(a.Addr, a.IsWrite())
	}
	p.k.ReplayBatch(accs)
}

func (p *livePair) setConfig(cfg cache.Config) {
	p.t.Helper()
	re, ke := p.ref.SetConfig(cfg), p.k.SetConfig(cfg)
	if (re == nil) != (ke == nil) {
		p.t.Fatalf("SetConfig(%v): ref %v kernel %v", cfg, re, ke)
	}
}

// roundTrip restores each side from the other's image, so both directions
// of checkpoint compatibility carry the rest of the run.
func (p *livePair) roundTrip() {
	p.t.Helper()
	ri, err := p.ref.Image()
	if err != nil {
		p.t.Fatal(err)
	}
	ki, err := p.k.Image()
	if err != nil {
		p.t.Fatal(err)
	}
	if p.ref, err = cache.RestoreConfigurable(ki); err != nil {
		p.t.Fatalf("reference restore from a kernel image: %v", err)
	}
	p.ref.AllowShrink = true
	if p.k, err = fastsim.Restore(ri); err != nil {
		p.t.Fatalf("kernel restore from a reference image: %v", err)
	}
}

// check compares every observable: configuration, counters, dirty lines and
// the complete image.
func (p *livePair) check(where string) {
	p.t.Helper()
	if rc, kc := p.ref.Config(), p.k.Config(); rc != kc {
		p.t.Fatalf("%s: config ref %v kernel %v", where, rc, kc)
	}
	if rs, ks := p.ref.Stats(), p.k.Stats(); rs != ks {
		p.t.Fatalf("%s: %v stats\n ref    %+v\n kernel %+v", where, p.ref.Config(), rs, ks)
	}
	if rd, kd := p.ref.DirtyLines(), p.k.DirtyLines(); rd != kd {
		p.t.Fatalf("%s: %v dirty lines ref %d kernel %d", where, p.ref.Config(), rd, kd)
	}
	ri, _ := p.ref.Image()
	ki, _ := p.k.Image()
	if !reflect.DeepEqual(ri, ki) {
		p.t.Fatalf("%s: %v images differ (ref %d frames, kernel %d frames, clock %d vs %d)",
			where, p.ref.Config(), len(ri.Frames), len(ki.Frames), ri.Clock, ki.Clock)
	}
}

// liveAccess decodes one access from three bytes: a word address in a 64 KB
// space (eight times the cache, spanning the bank-select bits 11-12 and
// including block 0) and a kind.
func liveAccess(b0, b1, kind byte) trace.Access {
	return trace.Access{
		Addr: uint32(b0)<<2 | uint32(b1&0x3f)<<10,
		Kind: trace.Kind(kind % 3),
	}
}

// runLiveProgram interprets data as a program of live-cache operations and
// holds the kernel to the reference after every one. Opcode byte op:
//
//	op%16 == 0: SetConfig(AllConfigs()[next%27])
//	op%16 == 1: image round-trip (each side restored from the other's image)
//	op%16 == 2: ResetStats
//	op%16 == 3: a batch of next%32+1 accesses through ReplayBatch
//	otherwise:  one access, per-access results compared; kind op>>4
func runLiveProgram(t *testing.T, data []byte) {
	configs := cache.AllConfigs()
	p := newLivePair(t, cache.MinConfig())
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0; step++ {
		op := next()
		switch op % 16 {
		case 0:
			p.setConfig(configs[int(next())%len(configs)])
		case 1:
			p.roundTrip()
		case 2:
			p.ref.ResetStats()
			p.k.ResetStats()
		case 3:
			n := int(next())%32 + 1
			accs := make([]trace.Access, 0, n)
			for i := 0; i < n && len(data) > 0; i++ {
				accs = append(accs, liveAccess(next(), next(), next()))
			}
			p.batch(accs)
		default:
			p.access(liveAccess(next(), next(), op>>4))
		}
		p.check(fmt.Sprintf("step %d (opcode %d)", step, op%16))
	}
}

// FuzzLiveVsReference drives fuzzer-generated sequences of accesses,
// reconfigurations (shrinking transitions, 1-way <-> set-associative,
// prediction on/off) and image round-trips through the live kernel and the
// reference cache, and fails on any divergence in per-access results,
// counters, dirty lines or images.
func FuzzLiveVsReference(f *testing.F) {
	f.Add([]byte{})
	// Block 0 written, then a grow to 8K_4W_32B and a shrink back to 2K.
	f.Add([]byte{0x24, 0, 0, 0x14, 1, 0, 0, 23, 0x14, 0, 0, 0, 0, 0x14, 0, 0})
	// A conflict pair at the 0x2000 alias spacing in 8K_1W_16B, then
	// 8K_2W_16B_P and a round-trip.
	f.Add([]byte{0, 12, 0x24, 4, 0, 0x14, 4, 8, 0x14, 4, 0, 0, 16, 0x14, 4, 8, 0x24, 4, 0, 1, 0x14, 4, 8})
	// A batch of writes in 8K_4W_64B_P, a round-trip, then 4-way -> 1-way
	// (stranding dirty lines) and a shrink to 2K (settle writebacks).
	f.Add([]byte{0, 26, 3, 5, 16, 0, 2, 16, 8, 2, 16, 16, 2, 16, 24, 2, 32, 1, 2, 32, 9, 2, 1, 0, 12, 0x14, 16, 8, 0, 0, 0x14, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runLiveProgram(t, data)
	})
}

// TestOracleLivePrograms runs seeded random live programs (the fuzz
// target's interpreter, dense in reconfigurations and round-trips).
func TestOracleLivePrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for s := 0; s < seeds; s++ {
		r := rand.New(rand.NewSource(int64(s)))
		data := make([]byte, 3000)
		r.Read(data)
		runLiveProgram(t, data)
	}
}

// TestOracleLiveWorkloads replays workload and random streams a window at a
// time, reconfiguring between windows through random walks over all 27
// configurations with periodic image round-trips: the serving path's shape.
func TestOracleLiveWorkloads(t *testing.T) {
	configs := cache.AllConfigs()
	for name, accs := range oracleTraces(t) {
		r := rand.New(rand.NewSource(int64(len(name))))
		p := newLivePair(t, cache.MinConfig())
		for lo, w := 0, 0; lo < len(accs); w++ {
			hi := min(lo+500+r.Intn(1500), len(accs))
			p.batch(accs[lo:hi])
			lo = hi
			p.check(name)
			p.setConfig(configs[r.Intn(len(configs))])
			if w%5 == 4 {
				p.roundTrip()
			}
			p.check(name)
		}
	}
}

// TestRestoreSharesValidation pins that the kernel restore and
// cache.RestoreConfigurable accept and reject exactly the same images.
func TestRestoreSharesValidation(t *testing.T) {
	prof, _ := workload.ByName("crc")
	accs := prof.Generate(20_000)
	k := fastsim.Must(cache.Config{SizeBytes: 4096, Ways: 2, LineBytes: 32, WayPredict: true})
	k.ReplayBatch(accs)
	good, _ := k.Image()
	cases := []struct {
		name   string
		mutate func(*cache.Image)
	}{
		{"valid", func(*cache.Image) {}},
		{"invalid config", func(i *cache.Image) { i.Cfg.Ways = 3 }},
		{"predictor entry out of range", func(i *cache.Image) { i.Pred[7] = 4 }},
		{"frame in powered-off bank", func(i *cache.Image) { i.Frames[0].Bank = 3 }},
		{"duplicate frame", func(i *cache.Image) { i.Frames = append(i.Frames, i.Frames[0]) }},
		{"block beyond 32-bit address", func(i *cache.Image) { i.Frames[0].Block |= 1 << 28 }},
	}
	for _, tc := range cases {
		img := good
		img.Pred = append([]uint8(nil), good.Pred...)
		img.Frames = append([]cache.FrameImage(nil), good.Frames...)
		tc.mutate(&img)
		_, kerr := fastsim.Restore(img)
		_, rerr := cache.RestoreConfigurable(img)
		if (kerr == nil) != (rerr == nil) || (kerr == nil) != (tc.name == "valid") {
			t.Errorf("%s: kernel restore %v, reference restore %v", tc.name, kerr, rerr)
		}
	}
}
