package cache

import "fmt"

// Image is a complete, serialization-friendly snapshot of a Configurable's
// state: configuration, replacement clock, counters, way-predictor table and
// every valid frame. It exists so a long-running tuning process can persist
// the cache across process death (internal/checkpoint) and restore it
// bit-identically: a cache rebuilt from an Image behaves, access for access,
// exactly like the original.
//
// Invalid frames are not recorded — a frame only becomes invalid by being
// zeroed (way shutdown, flush), so absence and the zero frame coincide.
type Image struct {
	// Cfg is the applied configuration.
	Cfg Config
	// Clock is the global LRU timestamp counter.
	Clock uint64
	// Stats are the counters since the last ResetStats.
	Stats Stats
	// Pred is the way-predictor table (0xFF entries mean "no prediction").
	Pred []uint8
	// Frames lists the valid physical line slots.
	Frames []FrameImage
}

// FrameImage is one valid 16 B physical line slot.
type FrameImage struct {
	// Bank and Row locate the frame in the physical array.
	Bank, Row int
	// Dirty marks a modified line.
	Dirty bool
	// Block is the physical block address (addr >> 4).
	Block uint32
	// LastUse is the LRU timestamp.
	LastUse uint64
}

// Image captures the cache's complete state. Caches with an attached victim
// buffer are not snapshottable (the buffer's contents would be lost
// silently), so Image refuses rather than producing a lossy snapshot.
func (c *Configurable) Image() (Image, error) {
	if c.Victim != nil {
		return Image{}, fmt.Errorf("cache: cannot snapshot a cache with an attached victim buffer")
	}
	img := Image{
		Cfg:   c.cfg,
		Clock: c.clock,
		Stats: c.stats,
		Pred:  append([]uint8(nil), c.pred[:]...),
	}
	for b := range c.banks {
		for r := range c.banks[b] {
			f := c.banks[b][r]
			if f.valid {
				img.Frames = append(img.Frames, FrameImage{
					Bank: b, Row: r, Dirty: f.dirty, Block: f.block, LastUse: f.lastUse,
				})
			}
		}
	}
	return img, nil
}

// Validate reports whether the image describes a state the configurable
// cache can reach: a checkpoint that passed its CRC can still carry a
// logically impossible state if it was written by a buggy or hostile
// producer. RestoreConfigurable and every other restore path (the live
// fastsim kernel's) share this one check, so they cannot drift apart. It
// rejects:
//   - an invalid configuration or a predictor table of the wrong length;
//   - a predictor entry that is neither a bank (0-3) nor "no prediction";
//   - a frame outside the bank x row array, or in a row its block cannot
//     map to, or holding a block beyond the 32-bit address space;
//   - a frame in a bank the configuration has powered off (way shutdown
//     always empties those, and a later grow would resurrect the line);
//   - two frames for the same (bank, row) slot.
func (img Image) Validate() error {
	if err := img.Cfg.Validate(); err != nil {
		return err
	}
	if len(img.Pred) != 2*BankRows {
		return fmt.Errorf("predictor table has %d entries, want %d", len(img.Pred), 2*BankRows)
	}
	for set, p := range img.Pred {
		if p >= NumBanks && p != noPrediction {
			return fmt.Errorf("predictor entry %d is %#x, want a bank 0-%d or %#x", set, p, NumBanks-1, noPrediction)
		}
	}
	active := img.Cfg.ActiveBanks()
	var seen [NumBanks][BankRows]bool
	for _, f := range img.Frames {
		if f.Bank < 0 || f.Bank >= NumBanks || f.Row < 0 || f.Row >= BankRows {
			return fmt.Errorf("frame (%d,%d) outside the %dx%d array", f.Bank, f.Row, NumBanks, BankRows)
		}
		if row(f.Block) != f.Row {
			return fmt.Errorf("block %#x cannot reside in row %d", f.Block, f.Row)
		}
		if f.Block >= 1<<(32-4) {
			return fmt.Errorf("block %#x is beyond the 32-bit address space", f.Block)
		}
		if f.Bank >= active {
			return fmt.Errorf("frame (%d,%d) is valid but %v powers bank %d off", f.Bank, f.Row, img.Cfg, f.Bank)
		}
		if seen[f.Bank][f.Row] {
			return fmt.Errorf("frame (%d,%d) appears twice", f.Bank, f.Row)
		}
		seen[f.Bank][f.Row] = true
	}
	return nil
}

// RestoreConfigurable rebuilds a cache from an Image after validating it
// (Image.Validate). The restored cache is behaviourally identical to the
// one the image was captured from.
func RestoreConfigurable(img Image) (*Configurable, error) {
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("cache: restore: %w", err)
	}
	c := MustConfigurable(img.Cfg)
	copy(c.pred[:], img.Pred)
	c.clock = img.Clock
	c.stats = img.Stats
	for _, f := range img.Frames {
		c.banks[f.Bank][f.Row] = frame{valid: true, dirty: f.Dirty, block: f.Block, lastUse: f.LastUse}
	}
	return c, nil
}
