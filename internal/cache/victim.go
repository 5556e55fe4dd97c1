package cache

// VictimBuffer is a small fully-associative buffer holding the last few
// blocks evicted from the main cache (Jouppi's victim cache; the paper's
// authors study exactly this structure in their companion work "Using a
// Victim Buffer in an Application-Specific Memory Hierarchy"). A main-cache
// miss probes the buffer before going off chip; a hit swaps the victim back
// into the cache for one cycle instead of a full memory access. It gives a
// direct-mapped configuration much of a set-associative configuration's
// conflict tolerance at a fraction of the per-access energy.
type VictimBuffer struct {
	entries []frame
	clock   uint64
}

// NewVictimBuffer returns a buffer with n entries (16 B blocks).
func NewVictimBuffer(n int) *VictimBuffer {
	return &VictimBuffer{entries: make([]frame, n)}
}

// take removes block from the buffer if present, returning its dirty bit.
func (v *VictimBuffer) take(block uint32) (dirty, ok bool) {
	for i := range v.entries {
		e := &v.entries[i]
		if e.valid && e.block == block {
			d := e.dirty
			*e = frame{}
			return d, true
		}
	}
	return false, false
}

// insert places an evicted block into the buffer; the displaced LRU entry's
// dirty bit is returned so the caller can charge the writeback (wb is false
// when the displaced slot was empty or clean).
func (v *VictimBuffer) insert(block uint32, dirty bool) (wb bool) {
	v.clock++
	victim := 0
	var lru uint64 = ^uint64(0)
	for i := range v.entries {
		e := &v.entries[i]
		if !e.valid {
			victim, lru = i, 0
			break
		}
		if e.lastUse < lru {
			victim, lru = i, e.lastUse
		}
	}
	e := &v.entries[victim]
	wb = e.valid && e.dirty
	*e = frame{valid: true, dirty: dirty, block: block, lastUse: v.clock}
	return wb
}

// flushDirty counts and clears dirty entries (end-of-interval drain).
func (v *VictimBuffer) flushDirty() int {
	n := 0
	for i := range v.entries {
		if v.entries[i].valid && v.entries[i].dirty {
			n++
		}
		v.entries[i] = frame{}
	}
	return n
}
