package main

import (
	"waran/internal/core"
	"waran/internal/sched"
)

// progCounters are the program's own counters for one deployment, read at
// the edges of the timed phase.
type progCounters struct {
	overruns, fallbacks                uint64
	calls, zc, zcDirty, zcRecords      uint64
	interp, closure                    uint64
	poolWaits                          uint64
	cacheHits, cacheMisses, promotions uint64
}

func readCounters(cg *core.CellGroup, pools map[string]*sched.PoolScheduler) progCounters {
	var p progCounters
	for _, w := range cg.WatchdogStats() {
		p.overruns += w.Overruns
	}
	for c := 0; c < cg.NumCells(); c++ {
		for _, s := range cg.Cell(c).Slices.Slices() {
			p.fallbacks += s.Stats().FallbackSlots
		}
	}
	for _, ps := range pools {
		p.addSched(ps.Stats())
		p.poolWaits += ps.Pool().Stats().Waits
	}
	cs := cg.Modules.Stats()
	p.cacheHits, p.cacheMisses, p.promotions = cs.Hits, cs.Misses, cs.TierPromotions
	return p
}

func (p *progCounters) addSched(st sched.SchedStats) {
	p.calls += st.Calls
	p.zc += st.ZCCalls
	p.zcDirty += st.ZCDirtyRecords
	p.zcRecords += st.ZCRecords
	p.interp += st.TierInterpCalls
	p.closure += st.TierClosureCalls
}

// since is the timed phase's share of the counters.
func (p progCounters) since(q progCounters) progCounters {
	return progCounters{
		overruns:    p.overruns - q.overruns,
		fallbacks:   p.fallbacks - q.fallbacks,
		calls:       p.calls - q.calls,
		zc:          p.zc - q.zc,
		zcDirty:     p.zcDirty - q.zcDirty,
		zcRecords:   p.zcRecords - q.zcRecords,
		interp:      p.interp - q.interp,
		closure:     p.closure - q.closure,
		poolWaits:   p.poolWaits - q.poolWaits,
		cacheHits:   p.cacheHits - q.cacheHits,
		cacheMisses: p.cacheMisses - q.cacheMisses,
		promotions:  p.promotions - q.promotions,
	}
}

func (p progCounters) report(m map[string]float64) {
	m["core.deadline_overruns"] = float64(p.overruns)
	m["core.fallback_slots"] = float64(p.fallbacks)
	m["sched.zc_calls"] = float64(p.zc)
	m["sched.codec_calls"] = float64(p.calls - p.zc)
	if p.zcRecords > 0 {
		m["sched.zc_dirty_record_pct"] = 100 * float64(p.zcDirty) / float64(p.zcRecords)
	}
	m["wasm.interp_calls"] = float64(p.interp)
	m["wasm.closure_calls"] = float64(p.closure)
	m["wabi.pool_waits"] = float64(p.poolWaits)
	m["wabi.cache_hits"] = float64(p.cacheHits)
	m["wabi.cache_misses"] = float64(p.cacheMisses)
	m["wabi.tier_promotions"] = float64(p.promotions)
}
