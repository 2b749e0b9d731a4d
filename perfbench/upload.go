package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/obs/trace"
	"waran/internal/plugins"
	"waran/internal/ran"
	"waran/internal/ric"
	"waran/internal/sched"
	"waran/internal/wat"
)

// plugin-upload: one cell running the slot-capacity cell, and a RIC that
// pushes scheduler bytecode over E2 with ActionUploadScheduler. Every upload
// is pf with a seeded custom section, so each is a distinct module and a
// miss in the gNB's content-addressed module cache. A few slots run on each
// new plugin before the next upload.
const (
	uploadSlice       = 3 // the pf slice of slotSlices
	uploadFollowSlots = 2
	uploadWarmSlots   = 300
	uploadWarmUploads = 300
	// uploadPurgeEvery bounds the gNB's module cache, which keeps every
	// distinct module it has compiled (see README.md).
	uploadPurgeEvery = 16
	// builtinModules is the cache misses the three pooled built-ins cost.
	builtinModules = 3
)

type pluginUpload struct {
	cfg      runCfg
	t        *tracer
	cg       *core.CellGroup
	g        *core.GNB
	pools    map[string]*sched.PoolScheduler
	ues      [][]*ran.UE
	log      *slotLog
	r        *ric.RIC
	lis      net.Listener
	stop     chan struct{}
	stopOnce sync.Once
	as       *association
	timer    *time.Timer

	rng     *rand.Rand
	base    []byte // pf bytecode the custom sections are appended to
	slot    uint64
	reqID   uint32
	uploads int64
	// owner maps each logged slot to the upload it ran after (-1: none).
	owner       []int64
	failedUp    map[int64]bool
	warmUploads int64
	timed       bool // the timed phase has started
	fuel        map[string]float64
	start       progCounters
	uploaded    progCounters // sched counters of uploaded plugins, timed phase
}

func setupPluginUpload(cfg runCfg, t *tracer) (deployment, error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: 1})
	if err != nil {
		return nil, err
	}
	slices := slotSlices(slotUEsPerSlice)
	ues, err := populate(cg, slices, cellInputs(cfg.seed, 1, slices), false)
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
	src, _ := plugins.SchedulerWAT("pf")
	base, err := wat.CompileToBinary(src)
	if err != nil {
		return nil, err
	}
	r, err := ric.New(ric.Config{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &pluginUpload{
		cfg: cfg, t: t, cg: cg, g: cg.Cell(0), pools: pools, ues: ues,
		log: newSlotLog(1, logSlots), owner: make([]int64, 0, logSlots), r: r, lis: lis, stop: make(chan struct{}),
		rng: rand.New(rand.NewSource(cfg.seed)), base: base, failedUp: map[int64]bool{},
		timer: time.NewTimer(time.Hour),
	}
	s.timer.Stop()
	s.as, err = associate(lis, r, s.g, 0, t, s.stop)
	if err != nil {
		lis.Close()
		return nil, err
	}
	warmSlots, warmUploads := uploadWarmSlots, uploadWarmUploads
	if cfg.short {
		warmSlots, warmUploads = 50, 20
	}
	for i := 0; i < warmSlots; i++ {
		if err := s.step(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.fuel = fuelPerCall(pools)
	for i := 0; i < warmUploads; i++ {
		if _, err := s.upload(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.warmUploads = s.uploads
	return s, nil
}

// step runs one slot and the agent's Tick, as cmd/gnb's slot loop does.
func (s *pluginUpload) step() error {
	var ts int64
	if s.t != nil {
		ts = s.t.now()
	}
	res := s.cg.StepAll()
	if s.t != nil {
		s.t.span(&s.t.step, "core.stepall", ts, s.t.now())
	}
	s.log.record(s.ues, res)
	s.owner = append(s.owner, s.uploads-1)
	if s.t != nil {
		ts = s.t.now()
	}
	err := s.as.agent.Tick(s.slot)
	if s.t != nil {
		s.t.span(&s.t.tick, "ric.agent_tick", ts, s.t.now())
	}
	s.slot++
	return err
}

// blob returns the next upload: pf bytecode plus a custom section holding
// the upload number and a seeded payload.
func (s *pluginUpload) blob() []byte {
	payload := make([]byte, 8+32+s.rng.Intn(480))
	binary.LittleEndian.PutUint64(payload, uint64(s.uploads))
	s.rng.Read(payload[8:])
	name := "perfbench"
	body := binary.AppendUvarint(nil, uint64(len(name)))
	body = append(body, name...)
	body = append(body, payload...)
	out := append([]byte(nil), s.base...)
	out = append(out, 0) // custom section id
	out = binary.AppendUvarint(out, uint64(len(body)))
	return append(out, body...)
}

// upload pushes one plugin and runs the follow-up slots on it. It returns
// the SendControl -> Apply latency; a refused or lost upload is recorded in
// failedUp, and only a stalled association is an error.
func (s *pluginUpload) upload() (time.Duration, error) {
	n := s.uploads
	name := fmt.Sprintf("pf-up-%d", n)
	bin := s.blob()
	s.reqID++
	start := time.Now()
	err := s.r.SendControl(s.as.ricConn, s.reqID, &e2.ControlRequest{
		Action: e2.ActionUploadScheduler, SliceID: uploadSlice, Text: name, Blob: bin,
	}, trace.Context{})
	if err != nil {
		return 0, fmt.Errorf("upload %d: %w", n, err)
	}
	ev, ok := s.as.ctl.waitApply(s.timer, applyTimeout)
	if !ok {
		s.failedUp[n] = true
		if ev, ok = s.as.ctl.waitApply(s.timer, loopAbort); !ok {
			return 0, fmt.Errorf("upload %d: %w", n, errAborted)
		}
	}
	lat := ev.at.Sub(start)
	s.uploads++
	sl, _ := s.g.Slices.Slice(uploadSlice)
	if ev.err != nil || ev.action != e2.ActionUploadScheduler || sl.SchedulerName() != "plugin:"+name {
		s.failedUp[n] = true
	}
	if s.t != nil {
		_ = s.g.Slices.HotSwap(uploadSlice, newTracedIntra(sl.Scheduler(), "pf", s.t)) // the slice exists
	}
	for i := 0; i < uploadFollowSlots; i++ {
		if err := s.step(); err != nil {
			return 0, err
		}
	}
	if st, ok := unwrap(sl.Scheduler()).(interface{ Stats() sched.SchedStats }); ok && s.timed {
		s.uploaded.addSched(st.Stats())
	}
	if s.uploads%uploadPurgeEvery == 0 {
		s.cg.Modules.Purge()
	}
	return lat, nil
}

func unwrap(is sched.IntraSlice) sched.IntraSlice {
	if w, ok := is.(tracedIntra); ok {
		return w.inner
	}
	return is
}

func (s *pluginUpload) run(d time.Duration) *timedResult {
	if s.t != nil {
		s.t.reset()
	}
	s.start = readCounters(s.cg, s.pools)
	s.timed = true
	// ~1000 uploads per window: p90 keeps ~100 samples beyond the tail.
	r := newTimedResult(0.90)
	p := mark()
	for w := 0; w < windowCount(s.cfg, d); w++ {
		until := r.beginWindow()
		var ops int64
		for {
			lat, err := s.upload()
			if err != nil {
				r.fail("%v", err)
				break
			}
			r.samples = append(r.samples, int64(lat))
			r.iterations++
			ops++
			if s.cfg.ops > 0 && ops >= s.cfg.ops {
				break
			}
			if s.cfg.ops <= 0 && time.Now().After(until) {
				break
			}
		}
		r.endWindow(ops)
		if len(r.errs) > 0 {
			break
		}
	}
	r.rt = since(p)
	if r.iterations > 0 {
		r.iterWall = r.active() / time.Duration(r.iterations)
	}
	return r
}

// gate: every upload ACKed, one cache miss per upload, and every slot —
// those after each swap included — equal to the native replay.
func (s *pluginUpload) gate(r *timedResult) {
	mismatch, finalOK, err := replayNative(s.cfg.seed, 1, slotSlices(slotUEsPerSlice), s.log, s.ues)
	if err != nil {
		r.fail("native replay: %v", err)
		return
	}
	if !finalOK {
		r.fail("per-UE delivered bits differ from the native replay")
	}
	bad := func(slot int, why string) {
		if up := s.owner[slot]; up >= 0 {
			s.failedUp[up] = true
		} else {
			r.fail("slot %d before the first upload %s", slot, why)
		}
	}
	for _, slot := range mismatch[0] {
		bad(slot, "differs from native")
	}
	for slot, fb := range s.log.fallback[0] {
		if fb {
			bad(slot, "fell back")
		}
	}
	for up := range s.failedUp {
		if up < s.warmUploads {
			r.fail("warm-up upload %d failed", up)
		} else {
			r.failed++
		}
	}
	if len(s.failedUp) > 0 {
		r.fail("%d uploads refused, lost, not serving, or not matching native pf", len(s.failedUp))
	}
	var ok, refused uint64
	for wait := 0; wait < 100; wait++ {
		_, ok, refused = s.as.agent.Counters()
		if int64(ok+refused) >= s.uploads {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if int64(ok) != s.uploads || refused != 0 {
		r.fail("agent acked %d uploads and refused %d; benchmark sent %d", ok, refused, s.uploads)
	}
	cs := s.cg.Modules.Stats()
	if int64(cs.Misses) != s.uploads+builtinModules || cs.Hits != 0 {
		r.fail("module cache: %d misses and %d hits for %d uploads", cs.Misses, cs.Hits, s.uploads)
	}
	r.digest = digestOf(append(s.log.hashes[0], uint64(s.uploads))...)
}

func (s *pluginUpload) counters(m map[string]float64) {
	c := readCounters(s.cg, s.pools).since(s.start)
	c.calls += s.uploaded.calls
	c.zc += s.uploaded.zc
	c.zcDirty += s.uploaded.zcDirty
	c.zcRecords += s.uploaded.zcRecords
	c.interp += s.uploaded.interp
	c.closure += s.uploaded.closure
	c.report(m)
	for name, f := range s.fuel {
		m["wasm.fuel_per_call."+name] = f
	}
}

func (s *pluginUpload) close() {
	closeAll(&s.stopOnce, s.stop, s.lis, []*association{s.as})
}
