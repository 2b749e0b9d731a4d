package main

import (
	"time"

	"waran/internal/core"
	"waran/internal/ran"
	"waran/internal/sched"
)

// slot-capacity: the gNB alone. Four cells, three pooled wasm schedulers
// (mt, rr, pf) with 16 seeded UEs each, StepAll driven back to back.
const (
	slotCells       = 4
	slotUEsPerSlice = 16
	slotWarmSlots   = 600
	// logSlots preallocates the slot log for any run under a minute, so
	// its growth never doubles a buffer mid-run (pages are only resident
	// once written).
	logSlots = 1 << 17
)

type slotCapacity struct {
	cfg   runCfg
	t     *tracer
	cg    *core.CellGroup
	pools map[string]*sched.PoolScheduler
	ues   [][]*ran.UE
	log   *slotLog
	warm  int // slots stepped before the timed phase
	// fuel is wasm fuel per call over the fixed warm-up, per scheduler.
	fuel  map[string]float64
	start progCounters // counters at the start of the timed phase
}

func setupSlotCapacity(cfg runCfg, t *tracer) (deployment, error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: slotCells})
	if err != nil {
		return nil, err
	}
	slices := slotSlices(slotUEsPerSlice)
	ues, err := populate(cg, slices, cellInputs(cfg.seed, slotCells, slices), false)
	if err != nil {
		return nil, err
	}
	pools, err := installPools(cg, slices)
	if err != nil {
		return nil, err
	}
	if t != nil {
		wrapSlotPath(cg, slices, t)
	}
	s := &slotCapacity{cfg: cfg, t: t, cg: cg, pools: pools, ues: ues, log: newSlotLog(slotCells, logSlots)}
	s.warm = slotWarmSlots
	if cfg.short {
		s.warm = 50
	}
	for i := 0; i < s.warm; i++ {
		s.log.record(ues, cg.StepAll())
	}
	s.fuel = fuelPerCall(pools)
	return s, nil
}

// wrapSlotPath installs the tracing wrappers on every cell's inter-slice
// scheduler and every slice's intra-slice scheduler.
func wrapSlotPath(cg *core.CellGroup, slices []sliceSpec, t *tracer) {
	for c := 0; c < cg.NumCells(); c++ {
		g := cg.Cell(c)
		g.Inter = tracedInter{inner: g.Inter, t: t}
		for _, s := range slices {
			sl, _ := g.Slices.Slice(s.id)
			_ = g.Slices.HotSwap(s.id, newTracedIntra(sl.Scheduler(), s.sched, t)) // the slice was just looked up
		}
	}
}

// fuelPerCall is each pool's mean fuel per call so far: taken right after
// the fixed warm-up, it is an exact function of the seed.
func fuelPerCall(pools map[string]*sched.PoolScheduler) map[string]float64 {
	out := map[string]float64{}
	for name, ps := range pools {
		st := ps.Stats()
		if st.Calls > 0 {
			out[name] = float64(st.TotalFuel) / float64(st.Calls)
		}
	}
	return out
}

func (s *slotCapacity) run(d time.Duration) *timedResult {
	if s.t != nil {
		s.t.reset()
	}
	s.start = readCounters(s.cg, s.pools)
	r := newTimedResult(0.99)
	p := mark()
	for w := 0; w < windowCount(s.cfg, d); w++ {
		until := r.beginWindow()
		var ops int64
		for {
			var ts int64
			if s.t != nil {
				ts = s.t.now()
			}
			st := time.Now()
			res := s.cg.StepAll()
			el := time.Since(st)
			if s.t != nil {
				te := s.t.now()
				s.t.span(&s.t.step, "core.stepall", ts, te)
				s.t.attributeStepAll(ts, te)
			}
			r.samples = append(r.samples, int64(el))
			s.log.record(s.ues, res)
			r.iterations++
			ops += slotCells
			if s.cfg.ops > 0 && ops >= s.cfg.ops {
				break
			}
			if s.cfg.ops <= 0 && st.Add(el).After(until) {
				break
			}
		}
		r.endWindow(ops)
	}
	r.rt = since(p)
	r.iterWall = r.active() / time.Duration(r.iterations)
	return r
}

// gate replays the seed on native schedulers: every cell-slot must match
// the native digest and no slice may have fallen back.
func (s *slotCapacity) gate(r *timedResult) {
	slices := slotSlices(slotUEsPerSlice)
	mismatch, finalOK, err := replayNative(s.cfg.seed, slotCells, slices, s.log, s.ues)
	if err != nil {
		r.fail("native replay: %v", err)
		return
	}
	if !finalOK {
		r.fail("per-UE delivered bits differ from the native replay")
	}
	failed := make(map[[2]int]bool)
	for c := range mismatch {
		for _, slot := range mismatch[c] {
			if slot < s.warm {
				r.fail("cell %d warm-up slot %d differs from native", c, slot)
				continue
			}
			failed[[2]int{c, slot}] = true
		}
		for slot, fb := range s.log.fallback[c] {
			if fb {
				failed[[2]int{c, slot}] = true
				if slot < s.warm {
					r.fail("cell %d warm-up slot %d fell back", c, slot)
				}
			}
		}
	}
	for k := range failed {
		if k[1] >= s.warm {
			r.failed++
		}
	}
	if n := len(failed); n > 0 {
		r.fail("%d cell-slots differ from native or fell back", n)
	}
	var vals []uint64
	for c := range s.log.hashes {
		vals = append(vals, s.log.hashes[c]...)
	}
	r.digest = digestOf(vals...)
}

func (s *slotCapacity) counters(m map[string]float64) {
	readCounters(s.cg, s.pools).since(s.start).report(m)
	for name, f := range s.fuel {
		m["wasm.fuel_per_call."+name] = f
	}
}

func (s *slotCapacity) close() {}
