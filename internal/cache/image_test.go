package cache

import (
	"testing"
)

// imageWorkload drives c through a deterministic mixed read/write stream.
func imageWorkload(c *Configurable, n int, seed uint32) {
	x := seed
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		addr := x % (1 << 16)
		c.Access(addr, x&7 == 0)
	}
}

// TestImageRoundTrip pins the restore contract: a cache rebuilt from an
// Image is behaviourally identical — same counters, same contents, and the
// same responses to every subsequent access.
func TestImageRoundTrip(t *testing.T) {
	orig := MustConfigurable(Config{SizeBytes: 8192, Ways: 4, LineBytes: 32, WayPredict: true})
	imageWorkload(orig, 20_000, 12345)

	img, err := orig.Image()
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	restored, err := RestoreConfigurable(img)
	if err != nil {
		t.Fatalf("RestoreConfigurable: %v", err)
	}

	if restored.Config() != orig.Config() {
		t.Fatalf("config %v != %v", restored.Config(), orig.Config())
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats diverged after restore:\n got %+v\nwant %+v", restored.Stats(), orig.Stats())
	}
	if restored.DirtyLines() != orig.DirtyLines() {
		t.Fatalf("dirty lines %d != %d", restored.DirtyLines(), orig.DirtyLines())
	}

	// The decisive check: both caches must respond identically, access for
	// access, to a fresh stream — hits, probe counts, writebacks, the lot.
	x := uint32(987654)
	for i := 0; i < 20_000; i++ {
		x = x*1664525 + 1013904223
		addr := x % (1 << 16)
		write := x&5 == 0
		a, b := orig.Access(addr, write), restored.Access(addr, write)
		if a != b {
			t.Fatalf("access %d (%#x, write=%v): original %+v, restored %+v", i, addr, write, a, b)
		}
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats diverged while replaying:\n got %+v\nwant %+v", restored.Stats(), orig.Stats())
	}
}

// TestImageSurvivesReconfiguration checks the snapshot is faithful across a
// flush-free reconfiguration boundary, where stranded blocks make contents
// subtle.
func TestImageSurvivesReconfiguration(t *testing.T) {
	orig := MustConfigurable(MinConfig())
	imageWorkload(orig, 5_000, 42)
	if err := orig.SetConfig(Config{SizeBytes: 8192, Ways: 2, LineBytes: 16}); err != nil {
		t.Fatal(err)
	}
	imageWorkload(orig, 5_000, 43)

	img, err := orig.Image()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreConfigurable(img)
	if err != nil {
		t.Fatal(err)
	}
	imageWorkload(orig, 5_000, 44)
	imageWorkload(restored, 5_000, 44)
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", restored.Stats(), orig.Stats())
	}
}

func TestImageRefusesVictimBuffer(t *testing.T) {
	c := MustConfigurable(MinConfig())
	c.Victim = NewVictimBuffer(4)
	if _, err := c.Image(); err == nil {
		t.Fatal("Image of a cache with a victim buffer must refuse")
	}
}

// TestRestoreRejectsImpossibleImages pins the validation: images that pass a
// checkpoint CRC can still be logically impossible and must not restore.
func TestRestoreRejectsImpossibleImages(t *testing.T) {
	base := MustConfigurable(MinConfig())
	imageWorkload(base, 1_000, 7)
	good, err := base.Image()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Image)
	}{
		{"invalid config", func(i *Image) { i.Cfg.SizeBytes = 1234 }},
		{"short predictor table", func(i *Image) { i.Pred = i.Pred[:3] }},
		{"bank out of range", func(i *Image) { i.Frames[0].Bank = NumBanks }},
		{"row out of range", func(i *Image) { i.Frames[0].Row = BankRows }},
		{"block/row mismatch", func(i *Image) { i.Frames[0].Block ^= 1 }},
		{"predictor entry out of range", func(i *Image) { i.Pred[9] = NumBanks }},
		{"frame in powered-off bank", func(i *Image) { i.Frames[0].Bank = 1 }},
		{"duplicate frame", func(i *Image) { i.Frames = append(i.Frames, i.Frames[0]) }},
		{"block beyond 32-bit address", func(i *Image) { i.Frames[0].Block |= 1 << 28 }},
	}
	for _, tc := range cases {
		img := good
		img.Pred = append([]uint8(nil), good.Pred...)
		img.Frames = append([]FrameImage(nil), good.Frames...)
		tc.mutate(&img)
		if _, err := RestoreConfigurable(img); err == nil {
			t.Errorf("%s: restore accepted an impossible image", tc.name)
		}
	}
}
