package main

import (
	"net"
	"sync"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/wabi"
)

// control-loop: two cells, one association each, each cell one slice on
// the native round-robin scheduler with 8 UEs and a target rate far above
// capacity, so the sla xApp answers every indication with one
// ActionSetSliceWeight. Each association loops Step -> Tick -> indication
// -> RIC -> xApp -> control -> Apply and waits for the Apply.
const (
	loopCells     = 2
	loopUEs       = 8
	loopWarmLoops = 3000
	// loopTarget is far above any cell's capacity: the slice is always
	// under its SLA.
	loopTarget = 1e12
	// applyTimeout bounds the wait for one control; a loop that misses it
	// fails, and one that misses loopAbort as well ends the run.
	applyTimeout = time.Second
	loopAbort    = 10 * time.Second
)

func loopSlices() []sliceSpec { return []sliceSpec{{1, "rr", loopTarget, loopUEs}} }

type controlLoop struct {
	cfg      runCfg
	t        *tracer
	cg       *core.CellGroup
	ues      [][]*ran.UE
	r        *ric.RIC
	lis      net.Listener
	stop     chan struct{}
	stopOnce sync.Once
	assocs   []*association
	loops    []*loopState
	// RIC counts at the start of the timed phase.
	startCtl, startInv uint64
}

// loopState is one association's closed loop; only its goroutine touches
// it while the loop runs.
type loopState struct {
	g       *core.GNB
	as      *association
	t       *tracer
	timer   *time.Timer
	slot    uint64
	ticks   int64 // every Tick since construction
	mark    int64 // ticks at the start of the timed phase
	applies int64 // every Apply the loop saw
	failed  int64 // loops without a good control in the timed phase
	warmBad int64 // the same during the warm-up
	badCtl  int64
	samples []int64 // latencies of the current window (timed phase only)
	timed   bool
	err     error
}

func setupControlLoop(cfg runCfg, t *tracer) (deployment, error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: loopCells})
	if err != nil {
		return nil, err
	}
	ues, err := populate(cg, loopSlices(), cellInputs(cfg.seed, loopCells, loopSlices()), true)
	if err != nil {
		return nil, err
	}
	if t != nil {
		wrapSlotPath(cg, loopSlices(), t)
	}
	r, err := ric.New(ric.Config{ReportPeriodMs: 1})
	if err != nil {
		return nil, err
	}
	if _, err := r.AddXAppWAT("sla", plugins.SLAAssureXAppWAT, wabi.Policy{}); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &controlLoop{cfg: cfg, t: t, cg: cg, ues: ues, r: r, lis: lis, stop: make(chan struct{})}
	for c := 0; c < loopCells; c++ {
		as, err := associate(lis, r, cg.Cell(c), uint32(c), t, s.stop)
		if err != nil {
			s.close()
			return nil, err
		}
		s.assocs = append(s.assocs, as)
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		s.loops = append(s.loops, &loopState{g: cg.Cell(c), as: as, t: t, timer: timer})
	}
	warm := loopWarmLoops
	if cfg.short {
		warm = 200
	}
	s.drive(func(l *loopState) bool { return l.ticks >= int64(warm) })
	for _, l := range s.loops {
		if l.err != nil {
			s.close()
			return nil, l.err
		}
		l.warmBad, l.failed = l.failed, 0
	}
	return s, nil
}

// drive runs every association's loop concurrently until done says stop.
func (s *controlLoop) drive(done func(l *loopState) bool) {
	var wg sync.WaitGroup
	for _, l := range s.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done(l) && l.err == nil {
				l.iterate()
			}
		}()
	}
	wg.Wait()
}

// iterate is one closed loop: a slot, then an indication, then the wait
// for the control it causes.
func (l *loopState) iterate() {
	if l.t != nil {
		ts := l.t.now()
		l.g.Step()
		l.t.span(&l.t.step, "core.step", ts, l.t.now())
	} else {
		l.g.Step()
	}
	start := time.Now()
	var tt int64
	if l.t != nil {
		tt = l.t.now()
	}
	err := l.as.agent.Tick(l.slot)
	if l.t != nil {
		l.t.span(&l.t.tick, "ric.agent_tick", tt, l.t.now())
	}
	l.slot++
	l.ticks++
	if err != nil {
		l.err = err
		return
	}
	ev, ok := l.as.ctl.waitApply(l.timer, applyTimeout)
	if !ok {
		l.failed++
		if ev, ok = l.as.ctl.waitApply(l.timer, loopAbort); !ok {
			l.err = errAborted
			return
		}
	}
	l.applies++
	if l.timed {
		l.samples = append(l.samples, int64(ev.at.Sub(start)))
	}
	if ev.err != nil || ev.action != e2.ActionSetSliceWeight || ev.sliceID != 1 || ev.value != 2.0 {
		l.badCtl++
		l.failed++
	}
}

func (s *controlLoop) run(d time.Duration) *timedResult {
	if s.t != nil {
		s.t.reset()
	}
	_, s.startCtl, s.startInv = s.ricCounts()
	// The loop's p99 is set by cross-CPU wake-ups and spread ~20% between
	// runs of the same code, too wide to gate on; p90 is the tail here.
	r := newTimedResult(0.90)
	for _, l := range s.loops {
		l.mark = l.ticks
		l.timed = true
	}
	p := mark()
	perAssoc := s.cfg.ops / int64(len(s.loops))
	for w := 0; w < windowCount(s.cfg, d); w++ {
		until := r.beginWindow()
		var before int64
		for _, l := range s.loops {
			before += l.ticks
		}
		s.drive(func(l *loopState) bool {
			if s.cfg.ops > 0 {
				return l.ticks-l.mark >= perAssoc
			}
			return time.Now().After(until)
		})
		var after int64
		for _, l := range s.loops {
			after += l.ticks
			r.samples = append(r.samples, l.samples...)
			l.samples = l.samples[:0]
		}
		r.endWindow(after - before)
		if s.failedLoop() {
			break
		}
	}
	r.rt = since(p)
	for i, l := range s.loops {
		r.failed += l.failed
		if l.err != nil {
			r.fail("association %d: %v", i, l.err)
		}
	}
	r.iterations = r.ops
	if r.ops > 0 {
		r.iterWall = time.Duration(int64(r.active()) * int64(len(s.loops)) / r.ops)
	}
	return r
}

func (s *controlLoop) failedLoop() bool {
	for _, l := range s.loops {
		if l.err != nil {
			return true
		}
	}
	return false
}

// gate checks that every applied control was weight 2.0 on the starved
// slice and that the benchmark, the agents and the RIC agree on how many
// loops ran and how many controls were applied.
func (s *controlLoop) gate(r *timedResult) {
	var ticks, applies int64
	for i, l := range s.loops {
		ticks += l.ticks
		applies += l.applies
		if l.warmBad > 0 {
			r.fail("association %d: %d warm-up loops failed", i, l.warmBad)
		}
		if l.badCtl > 0 {
			r.fail("association %d: %d controls were not weight 2.0 on slice 1 or were refused", i, l.badCtl)
		}
		if n := l.as.ctl.overflow.Load(); n > 0 {
			r.fail("association %d: %d unexpected applies", i, n)
		}
		// The agent counts an apply just after it returns; give the last
		// one a moment.
		var ind, ok, bad uint64
		for wait := 0; wait < 100; wait++ {
			ind, ok, bad = l.as.agent.Counters()
			if int64(ok)+int64(bad) >= l.applies {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if int64(ind) != l.ticks || int64(ok) != l.applies || bad != 0 {
			r.fail("association %d: agent counted %d indications, %d controls ok, %d refused; benchmark %d loops, %d applies",
				i, ind, ok, bad, l.ticks, l.applies)
		}
	}
	ind, ctl := s.r.Counters()
	if int64(ind) != ticks || int64(ctl) != applies {
		r.fail("RIC counted %d indications and %d controls; benchmark %d loops and %d applies", ind, ctl, ticks, applies)
	}
	var vals []uint64
	for c := range s.ues {
		vals = append(vals, hashCell(s.ues[c]), uint64(s.loops[c].ticks))
	}
	r.digest = digestOf(vals...)
}

// ricCounts reads the RIC's indication, control and xApp invocation counts.
func (s *controlLoop) ricCounts() (ind, ctl, inv uint64) {
	ind, ctl = s.r.Counters()
	for _, x := range s.r.XApps() {
		inv += x.Stats().Invocations
	}
	return ind, ctl, inv
}

func (s *controlLoop) counters(m map[string]float64) {
	_, ctl, inv := s.ricCounts()
	m["ric.controls"] = float64(ctl - s.startCtl)
	m["ric.xapp_invocations"] = float64(inv - s.startInv)
}

func (s *controlLoop) close() { closeAll(&s.stopOnce, s.stop, s.lis, s.assocs) }
