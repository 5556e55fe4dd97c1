// Package fastsim provides allocation-free replay kernels for the cache
// simulators: a four-bank configurable-cache kernel covering the paper's 27
// configurations and a generic set-associative kernel covering the Figure 2
// sweep geometries. The kernels are drop-in engine.Simulator implementations
// that additionally expose a batched access loop (ReplayBatch), which the
// replay engine uses to eliminate per-access interface dispatch.
//
// The four-bank Kernel is also the live cache of every serving session
// (internal/daemon): it reconfigures in place with the paper's flush-free
// §3.3 semantics (SetConfig), snapshots to and restores from cache.Image,
// and is stepped a window at a time. cache.Configurable remains the
// reference it is held to.
//
// The kernels are bit-identical to the reference simulators by construction
// and by proof: every per-access decision — candidate-bank order, the
// first-invalid-wins victim choice, MRU timestamps, predictor updates — is a
// direct transcription of cache.Configurable and cache.Generic with the
// per-access dispatch (the bank-select switch, method calls, AccessResult
// materialisation) hoisted into tables precomputed per configuration. The
// differential oracle (oracle_test.go) and the FuzzFastSimVsReference and
// FuzzLiveVsReference fuzz targets hold the kernels to identical
// cache.Stats, energies, tuner trajectories, reconfiguration accounting and
// images across all 27 configurations; a kernel change that breaks
// bit-identity fails those tests, so the fast path is only allowed to exist
// while it is indistinguishable from the reference.
package fastsim

import (
	"fmt"

	"selftune/internal/cache"
	"selftune/internal/trace"
)

// rowShift is log2(cache.BankRows): frame index = bank<<rowShift | row.
const rowShift = 7

// frameMask folds every frame index into the array bounds so the compiler
// drops the bounds checks in the hot loops (indices are in range by
// construction: bank < NumBanks, row < BankRows).
const frameMask = cache.NumBanks*cache.BankRows - 1

// noPrediction marks an untrained way-predictor entry (cache.Configurable's
// sentinel).
const noPrediction = 0xFF

// frame is one 16 B physical line slot, identical in meaning to the
// reference cache's frame (block address, MRU timestamp, valid/dirty bits).
type frame struct {
	lastUse uint64
	block   uint32
	valid   bool
	dirty   bool
}

// emptyFrame is an invalid frame. Its sentinel block ^uint32(0) is never a
// real one (a real block is addr>>4 < 1<<28), so the direct-mapped loop
// folds the valid check into the block compare. Block 0 is a real address:
// frames are emptied to emptyFrame, never to frame{}.
var emptyFrame = frame{block: ^uint32(0)}

// Kernel is the fast kernel for the four-bank configurable cache. It serves
// both the engine's cold per-configuration replays and the live cache of a
// serving session: SetConfig reconfigures it in place without a flush
// exactly as cache.Configurable does, and Image/Restore round-trip its
// state through cache.Image. It has no victim buffer (neither the engine's
// models nor the daemon attach one). The zero value is not usable;
// construct with New or Restore.
//
// Every access advances the clock and stamps the touched frames' lastUse,
// single-way configurations included: a later move to a set-associative
// configuration replaces by those stamps, and Image records them.
type Kernel struct {
	// frames is the flat bank-major frame array: frames[bank<<7|row].
	frames [cache.NumBanks * cache.BankRows]frame
	// pred is the MRU way predictor, indexed by logical set.
	pred  [2 * cache.BankRows]uint8
	clock uint64
	stats cache.Stats
	cfg   cache.Config

	// Per-configuration tables, recomputed by every reconfiguration so the
	// access loop runs without the reference simulator's bank-select
	// switch.
	//
	// bankTab lists the candidate banks for each value of the bank-select
	// address bits (addr>>11)&3; nBanks is how many entries are live (the
	// associativity).
	bankTab [4][cache.NumBanks]uint8
	nBanks  int
	// predict is cfg.WayPredict (valid configurations imply Ways > 1).
	predict bool
	// predSelMask is 1 when the logical set index consumes address bit 11
	// (8 KB two-way: way concatenation's bank-select bit), else 0.
	predSelMask uint32
	// sublines is the logical line size in 16 B physical lines.
	sublines uint32
	// activeBanks bounds the DirtyLines scan.
	activeBanks int
}

// New returns a cold kernel in configuration cfg.
func New(cfg cache.Config) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := &Kernel{}
	k.configure(cfg)
	k.resetPredictor()
	for i := range k.frames {
		k.frames[i] = emptyFrame
	}
	return k, nil
}

// Must is New that panics on an invalid configuration, mirroring
// cache.MustConfigurable.
func Must(cfg cache.Config) *Kernel {
	k, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// Restore rebuilds a kernel from an image taken by Image or by
// cache.Configurable.Image, after the same validation
// cache.RestoreConfigurable applies (cache.Image.Validate). The restored
// kernel behaves, access for access, exactly like the cache the image was
// taken from.
func Restore(img cache.Image) (*Kernel, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("fastsim: restore: %w", err)
	}
	k := Must(img.Cfg)
	copy(k.pred[:], img.Pred)
	k.clock = img.Clock
	k.stats = img.Stats
	for _, f := range img.Frames {
		k.frames[f.Bank<<rowShift|f.Row] = frame{valid: true, dirty: f.Dirty, block: f.Block, lastUse: f.LastUse}
	}
	return k, nil
}

// configure installs cfg and recomputes the per-configuration tables.
func (k *Kernel) configure(cfg cache.Config) {
	k.cfg = cfg
	k.nBanks = cfg.Ways
	k.predict = cfg.WayPredict
	k.sublines = uint32(cfg.SublinesPerLine())
	k.activeBanks = cfg.ActiveBanks()
	k.predSelMask = 0
	if cfg.SizeBytes == 8192 && cfg.Ways == 2 {
		k.predSelMask = 1
	}
	// Transcribe cache.Configurable.candidateBanks for each value of the
	// bank-select bits, preserving the probe order (it decides hit-probe
	// and victim tie-breaks).
	for sel := uint32(0); sel < 4; sel++ {
		tab := &k.bankTab[sel]
		switch {
		case cfg.SizeBytes == 8192 && cfg.Ways == 4:
			tab[0], tab[1], tab[2], tab[3] = 0, 1, 2, 3
		case cfg.SizeBytes == 8192 && cfg.Ways == 2:
			b := uint8(sel & 1)
			tab[0], tab[1] = b, 2+b
		case cfg.SizeBytes == 8192 && cfg.Ways == 1:
			tab[0] = uint8(sel & 3)
		case cfg.SizeBytes == 4096 && cfg.Ways == 2:
			tab[0], tab[1] = 0, 1
		case cfg.SizeBytes == 4096 && cfg.Ways == 1:
			tab[0] = uint8(sel & 1)
		default: // 2048, 1-way
			tab[0] = 0
		}
	}
}

func (k *Kernel) resetPredictor() {
	for i := range k.pred {
		k.pred[i] = noPrediction
	}
}

// SetConfig reconfigures the kernel in place with cache.Configurable's
// flush-free §3.3 semantics: contents are preserved, a reconfiguration is
// counted, banks that way shutdown powers off lose their contents (their
// dirty lines are charged as SettleWritebacks), dirty lines stranded in
// frames their block no longer maps to are counted, and the way predictor
// restarts untrained. Unlike the reference there is no AllowShrink guard:
// the kernel's owner (the tuner) decides which transitions to make, and a
// shrink pays exactly what the reference charges with AllowShrink set.
// Allocation-free.
func (k *Kernel) SetConfig(next cache.Config) error {
	if err := next.Validate(); err != nil {
		return err
	}
	if next == k.cfg {
		return nil
	}
	oldBanks := k.activeBanks
	k.stats.Reconfigurations++
	k.configure(next)
	for i := k.activeBanks << rowShift; i < oldBanks<<rowShift; i++ {
		f := &k.frames[i]
		if f.valid && f.dirty {
			k.stats.SettleWritebacks++
		}
		*f = emptyFrame
	}
	for i := 0; i < k.activeBanks<<rowShift; i++ {
		f := &k.frames[i]
		if !f.valid || !f.dirty {
			continue
		}
		// The reference's mapping test, candidateBanks(block<<4).
		banks := &k.bankTab[((f.block<<4)>>11)&3]
		mapped := false
		for w := 0; w < k.nBanks; w++ {
			if int(banks[w]) == i>>rowShift {
				mapped = true
				break
			}
		}
		if !mapped {
			k.stats.StrandedDirty++
		}
	}
	k.resetPredictor()
	return nil
}

// Image captures the kernel's complete state as the value
// cache.Configurable.Image produces for the same state — same frame order
// (bank-major), same predictor table — so checkpoints are byte-identical
// whichever of the two wrote them. The error is always nil; it is there so
// both caches share one snapshot signature.
func (k *Kernel) Image() (cache.Image, error) {
	img := cache.Image{
		Cfg:   k.cfg,
		Clock: k.clock,
		Stats: k.stats,
		Pred:  append([]uint8(nil), k.pred[:]...),
	}
	for i := range k.frames {
		if f := &k.frames[i]; f.valid {
			img.Frames = append(img.Frames, cache.FrameImage{
				Bank: i >> rowShift, Row: i & (cache.BankRows - 1),
				Dirty: f.dirty, Block: f.block, LastUse: f.lastUse,
			})
		}
	}
	return img, nil
}

// Config returns the configuration in force.
func (k *Kernel) Config() cache.Config { return k.cfg }

// Stats returns the counters accumulated since the last ResetStats.
func (k *Kernel) Stats() cache.Stats { return k.stats }

// Misses is Stats().Misses without copying the whole counter set: the
// serving loop reads it around every chunk it replays.
func (k *Kernel) Misses() uint64 { return k.stats.Misses }

// ResetStats zeroes the counters without touching contents.
func (k *Kernel) ResetStats() { k.stats = cache.Stats{} }

// ReplayBatch replays a block of accesses through the kernel. It is the hot
// loop of every sweep and of every live session: allocation-free (pinned by
// test and benchmark) and free of per-access interface dispatch.
// Instruction fetches and loads are reads; only trace.DataWrite stores.
// Single-way configurations (a third of the space) take a specialised loop
// without the way probe, the victim search or the predictor.
func (k *Kernel) ReplayBatch(accs []trace.Access) {
	if k.nBanks == 1 && !k.predict {
		k.replayDM(accs)
		return
	}
	st := &k.stats
	clock := k.clock
	predict := k.predict
	predSelMask := k.predSelMask
	n := k.nBanks
	var hits, writes, predHits, predMisses uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		clock++
		if write {
			writes++
		}
		block := addr >> 4
		r := block & (cache.BankRows - 1)
		banks := &k.bankTab[(addr>>11)&3]
		hitBank := -1
		var hf *frame
		for w := 0; w < n; w++ {
			f := &k.frames[(uint32(banks[w])<<rowShift|r)&frameMask]
			if f.valid && f.block == block {
				hitBank = int(banks[w])
				hf = f
				break
			}
		}
		set := 0
		if predict {
			set = int(r | ((addr>>11)&predSelMask)<<rowShift)
			p := k.pred[set]
			if p == noPrediction {
				p = banks[0]
			}
			if hitBank == int(p) {
				// First probe hit: one way read, one cycle.
				predHits++
			} else {
				// Mispredicted: probe the rest next cycle.
				predMisses++
			}
		}
		if hf != nil {
			hf.lastUse = clock
			if write {
				hf.dirty = true
			}
			hits++
			if predict {
				k.pred[set] = uint8(hitBank)
			}
			continue
		}
		k.miss(block, write, banks, set, clock)
	}
	k.clock = clock
	st.Accesses += uint64(len(accs))
	st.Writes += writes
	st.Hits += hits
	st.PredHits += predHits
	st.PredMisses += predMisses
	st.ExtraCycles += predMisses // each misprediction costs one extra cycle
}

// replayDM is the single-way loop. Sentinel blocks fold the valid check into
// the block compare; counters accumulate in registers and flush once per
// batch. It keeps the clock and the lastUse stamps exactly as the general
// loop does: with one candidate bank no replacement decision reads them
// now, but a later reconfiguration to a set-associative configuration does,
// and so does Image.
func (k *Kernel) replayDM(accs []trace.Access) {
	sublines := k.sublines
	clock := k.clock
	var hits, misses, writes, writebacks, filled uint64
	for i := range accs {
		addr := accs[i].Addr
		write := accs[i].Kind == trace.DataWrite
		clock++
		if write {
			writes++
		}
		block := addr >> 4
		r := block & (cache.BankRows - 1)
		bank := uint32(k.bankTab[(addr>>11)&3][0])
		f := &k.frames[(bank<<rowShift|r)&frameMask]
		if f.block == block {
			f.lastUse = clock
			if write {
				f.dirty = true
			}
			hits++
			continue
		}
		misses++
		lineBase := block &^ (sublines - 1)
		for s := uint32(0); s < sublines; s++ {
			sb := lineBase + s
			ff := &k.frames[(bank<<rowShift|(sb&(cache.BankRows-1)))&frameMask]
			// An existing copy wins (never the accessed subline: its
			// frame just missed); otherwise evict and fill.
			if ff.block != sb {
				if ff.dirty { // invalid frames are never dirty
					writebacks++
				}
				ff.valid = true
				ff.block = sb
				ff.dirty = false
				filled++
			}
			ff.lastUse = clock
		}
		// The accessed subline is MRU.
		f.lastUse = clock + 1
		f.dirty = write
	}
	k.clock = clock
	st := &k.stats
	st.Accesses += uint64(len(accs))
	st.Writes += writes
	st.Hits += hits
	st.Misses += misses
	st.Writebacks += writebacks
	st.SublinesFilled += filled
}

// miss fills the whole logical line, one 16 B subline at a time, exactly as
// the reference cache does: existing copy wins, else the first invalid
// frame, else the LRU frame; the accessed subline becomes MRU (clock+1) and
// trains the predictor.
func (k *Kernel) miss(block uint32, write bool, banks *[cache.NumBanks]uint8, set int, clock uint64) {
	st := &k.stats
	st.Misses++
	lineBase := block &^ (k.sublines - 1)
	n := k.nBanks
	var filled uint64
	for i := uint32(0); i < k.sublines; i++ {
		sb := lineBase + i
		r := sb & (cache.BankRows - 1)
		fillBank := banks[0]
		var victimUse uint64 = ^uint64(0)
		present := false
		for w := 0; w < n; w++ {
			b := banks[w]
			f := &k.frames[uint32(b)<<rowShift|r]
			if f.valid && f.block == sb {
				fillBank, present = b, true
				break
			}
			if !f.valid {
				if victimUse != 0 { // first invalid wins
					fillBank, victimUse = b, 0
				}
				continue
			}
			if f.lastUse < victimUse {
				fillBank, victimUse = b, f.lastUse
			}
		}
		f := &k.frames[uint32(fillBank)<<rowShift|r]
		if !present {
			if f.valid && f.dirty {
				st.Writebacks++
			}
			f.valid = true
			f.dirty = false
			f.block = sb
			filled++
		}
		f.lastUse = clock
		if sb == block {
			f.lastUse = clock + 1 // accessed subline is MRU
			if write {
				f.dirty = true
			}
			if k.predict {
				k.pred[set] = fillBank
			}
		}
	}
	st.SublinesFilled += filled
}

// Access performs one read or write — the cache.Simulator contract. It runs
// the same batched loop as ReplayBatch (a single implementation, so the two
// paths cannot diverge) and reconstructs the reference AccessResult from the
// counter deltas.
func (k *Kernel) Access(addr uint32, write bool) cache.AccessResult {
	before := k.stats
	kind := trace.DataRead
	if write {
		kind = trace.DataWrite
	}
	buf := [1]trace.Access{{Addr: addr, Kind: kind}}
	k.ReplayBatch(buf[:])
	d := k.stats
	res := cache.AccessResult{
		Hit:            d.Hits > before.Hits,
		Writebacks:     int(d.Writebacks - before.Writebacks),
		SublinesFilled: int(d.SublinesFilled - before.SublinesFilled),
		ExtraLatency:   int(d.ExtraCycles - before.ExtraCycles),
		WaysProbed:     k.nBanks,
	}
	if k.predict {
		res.PredFirstProbeHit = d.PredHits > before.PredHits
		if res.PredFirstProbeHit {
			res.WaysProbed = 1
		}
	}
	return res
}

// DirtyLines reports the valid dirty physical lines in active banks — the
// end-of-interval drain's writeback count.
func (k *Kernel) DirtyLines() int {
	n := 0
	for b := 0; b < k.activeBanks; b++ {
		base := b << rowShift
		for r := 0; r < cache.BankRows; r++ {
			f := &k.frames[base+r]
			if f.valid && f.dirty {
				n++
			}
		}
	}
	return n
}

var _ cache.Simulator = (*Kernel)(nil)
