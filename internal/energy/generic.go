package energy

import (
	"math/bits"

	"selftune/internal/cache"
)

// genericTagBits returns the stored tag width of a conventional cache.
func genericTagBits(cfg cache.GenericConfig) int {
	return 32 - bits.TrailingZeros(uint(cfg.Sets())) - bits.TrailingZeros(uint(cfg.LineBytes))
}

// GenericHitEnergy returns E_hit for a conventional cache that reads all
// ways concurrently at the line-width granularity (the Figure 2 and
// multilevel L2 model).
func (p *Params) GenericHitEnergy(cfg cache.GenericConfig) float64 {
	return p.Tech.ReadEnergy(cfg.SizeBytes/cfg.Ways, cfg.Ways, cfg.LineBytes, genericTagBits(cfg))
}

// GenericMissLatency returns the stall cycles of one miss for cfg's line.
func (p *Params) GenericMissLatency(cfg cache.GenericConfig) int {
	return p.MemLatencyCycles + cfg.LineBytes/p.BytesPerBurstCycle
}

// GenericEvaluate applies Equation 1 to a conventional cache's counters.
func (p *Params) GenericEvaluate(cfg cache.GenericConfig, st cache.Stats) Breakdown {
	var b Breakdown
	b.CacheDynamic = float64(st.Accesses) * p.GenericHitEnergy(cfg)
	b.OffChipAccess = float64(st.Misses) * p.OffChipEnergy(cfg.LineBytes)
	lat := p.GenericMissLatency(cfg)
	b.Stall = float64(st.Misses) * float64(lat) * p.StallPowerPerCycle
	b.Fill = float64(st.Misses) * p.Tech.WriteEnergy(cfg.SizeBytes/cfg.Ways, cfg.LineBytes, genericTagBits(cfg))
	b.Writeback = float64(st.Writebacks) * (p.GenericHitEnergy(cfg)/float64(cfg.Ways) + p.OffChipEnergy(cfg.LineBytes))
	wbCycles := uint64(cfg.LineBytes / p.BytesPerBurstCycle)
	b.Cycles = st.Accesses + st.Misses*uint64(lat) + st.Writebacks*wbCycles
	b.Static = float64(b.Cycles) * p.Tech.LeakagePower(cfg.SizeBytes, genericTagBits(cfg)) / p.ClockHz
	return b
}
