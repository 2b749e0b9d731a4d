package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"waran/internal/core"
	"waran/internal/e2"
	"waran/internal/sched"
)

// This file is the traced run's instrumentation. Every wrapper sits on a
// public boundary of one layer and forwards to the real implementation;
// untraced runs build the same deployment without them (a nil *tracer).
// Spans are aggregated online and the most recent spanRingSize of them are
// kept in memory and written out when the run ends.

// frameKind classifies E2 frames for the e2.* metrics.
type frameKind int

const (
	kindIndication frameKind = iota
	kindControl
	kindUpload
	kindAck
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"indication", "control", "upload", "ack", "other"}

// Span names per frame kind, built once so recording a span allocates
// nothing beyond the span itself.
var encodeNames, decodeNames, writeNames [numKinds]string

func init() {
	for k, n := range kindNames {
		encodeNames[k], decodeNames[k], writeNames[k] = "e2.encode."+n, "e2.decode."+n, "e2.write."+n
	}
}

func kindOf(m *e2.Message) frameKind {
	switch m.Type {
	case e2.TypeIndication:
		return kindIndication
	case e2.TypeControlRequest:
		if m.Control != nil && m.Control.Action == e2.ActionUploadScheduler {
			return kindUpload
		}
		return kindControl
	case e2.TypeControlAck:
		return kindAck
	}
	return kindOther
}

// stat accumulates a count and a total duration (or byte count).
type stat struct{ n, sum atomic.Int64 }

func (s *stat) add(v int64) { s.n.Add(1); s.sum.Add(v) }

// meanUs is the mean per recorded call in microseconds (0 when empty).
func (s *stat) meanUs() float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.sum.Load()) / float64(n) / 1e3
}

// exactFrames is how many leading frames of each kind feed e2.frame_bytes:
// a fixed prefix of a seeded sequence, so the mean is an exact count.
const exactFrames = 256

// spanRingSize bounds the raw spans kept for the write-out.
const spanRingSize = 1 << 12

// spanRec is one raw span as written out.
type spanRec struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// slotSpan is an inter- or intra-slice call inside one StepAll, kept for
// the wall-share attribution of the parallel slot path.
type slotSpan struct {
	layer      string // "inter" or a scheduler name
	start, end int64
}

// tracer holds every per-layer accumulator of one traced deployment.
type tracer struct {
	epoch time.Time

	step  stat // core.GNB.Step (control-loop) or CellGroup.StepAll
	inter stat
	intra map[string]*stat // fixed at construction: rr, pf, mt

	encode, decode [numKinds]stat
	write          [numKinds]stat
	frameBytes     [numKinds]stat
	reads          atomic.Int64

	tick, snapshot, apply, applyUpload, dispatch stat

	// Wall-share attribution of StepAll (slot-capacity): spans of the
	// current StepAll, and per-layer shares summed by the goroutine calling StepAll.
	sweep     bool
	slotMu    sync.Mutex
	slotSpans []slotSpan
	shareNs   map[string]int64 // "core", "inter", "rr", "pf", "mt"

	ringMu sync.Mutex
	ring   []spanRec
	ringN  int
}

func newTracer(sweep bool) *tracer {
	t := &tracer{
		epoch:   time.Now(),
		intra:   map[string]*stat{"rr": {}, "pf": {}, "mt": {}},
		sweep:   sweep,
		shareNs: map[string]int64{},
		ring:    make([]spanRec, spanRingSize),
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset zeroes the aggregates at the start of the timed phase. The frame
// byte counts keep their fixed warm-up prefix.
func (t *tracer) reset() {
	zero := func(ss ...*stat) {
		for _, s := range ss {
			s.n.Store(0)
			s.sum.Store(0)
		}
	}
	zero(&t.step, &t.inter, t.intra["rr"], t.intra["pf"], t.intra["mt"],
		&t.tick, &t.snapshot, &t.apply, &t.applyUpload, &t.dispatch)
	for k := range t.encode {
		zero(&t.encode[k], &t.decode[k], &t.write[k])
	}
	t.reads.Store(0)
	t.slotMu.Lock()
	t.slotSpans = t.slotSpans[:0]
	t.slotMu.Unlock()
	clear(t.shareNs)
}

// span records one finished span into the aggregate and the ring.
func (t *tracer) span(s *stat, name string, start, end int64) {
	s.add(end - start)
	t.ringMu.Lock()
	t.ring[t.ringN%spanRingSize] = spanRec{Name: name, StartNs: start, DurNs: end - start}
	t.ringN++
	t.ringMu.Unlock()
}

// slotSpanDone keeps an inter/intra span for the StepAll attribution.
func (t *tracer) slotSpanDone(layer string, start, end int64) {
	if !t.sweep {
		return
	}
	t.slotMu.Lock()
	t.slotSpans = append(t.slotSpans, slotSpan{layer, start, end})
	t.slotMu.Unlock()
}

// attributeStepAll splits one StepAll's wall interval among the spans that
// ran inside it: each instant is shared equally by the spans active then,
// and instants no span covers are the core's own time. The shares of one
// StepAll sum exactly to its wall time, however many cells ran in parallel.
func (t *tracer) attributeStepAll(start, end int64) {
	t.slotMu.Lock()
	spans := t.slotSpans
	t.slotSpans = t.slotSpans[:0]
	t.slotMu.Unlock()
	type edge struct {
		at   int64
		span int
		open bool
	}
	edges := make([]edge, 0, 2*len(spans)+2)
	for i, s := range spans {
		edges = append(edges, edge{s.start, i, true}, edge{s.end, i, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	active := map[int]bool{}
	cur := start
	flush := func(to int64) {
		if to <= cur {
			return
		}
		dt := to - cur
		if len(active) == 0 {
			t.shareNs["core"] += dt
		} else {
			share := dt / int64(len(active))
			rem := dt - share*int64(len(active))
			first := true
			for i := range active {
				t.shareNs[spans[i].layer] += share
				if first {
					t.shareNs[spans[i].layer] += rem
					first = false
				}
			}
		}
		cur = to
	}
	for _, e := range edges {
		at := min(max(e.at, start), end)
		flush(at)
		if e.open {
			active[e.span] = true
		} else {
			delete(active, e.span)
		}
	}
	flush(end)
}

// writeSpans writes the retained spans as JSON to path.
func (t *tracer) writeSpans(path string) error {
	t.ringMu.Lock()
	n := min(t.ringN, spanRingSize)
	out := make([]spanRec, 0, n)
	for i := t.ringN - n; i < t.ringN; i++ {
		out = append(out, t.ring[i%spanRingSize])
	}
	t.ringMu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedInter wraps a cell's inter-slice scheduler (GNB.Inter).
type tracedInter struct {
	inner sched.InterSlice
	t     *tracer
}

func (w tracedInter) Name() string { return w.inner.Name() }

func (w tracedInter) Divide(slot uint64, budget uint32, demands []sched.SliceDemand) map[uint32]uint32 {
	start := w.t.now()
	out := w.inner.Divide(slot, budget, demands)
	end := w.t.now()
	w.t.span(&w.t.inter, "sched.inter", start, end)
	w.t.slotSpanDone("inter", start, end)
	return out
}

// tracedIntra wraps a slice's intra-slice scheduler, installed with
// Slices.HotSwap.
type tracedIntra struct {
	inner sched.IntraSlice
	layer string // rr, pf or mt
	name  string // the span name
	t     *tracer
}

func newTracedIntra(inner sched.IntraSlice, layer string, t *tracer) tracedIntra {
	return tracedIntra{inner: inner, layer: layer, name: "sched.intra." + layer, t: t}
}

func (w tracedIntra) Name() string { return w.inner.Name() }

func (w tracedIntra) Schedule(req *sched.Request) (*sched.Response, error) {
	start := w.t.now()
	resp, err := w.inner.Schedule(req)
	end := w.t.now()
	w.t.span(w.t.intra[w.layer], w.name, start, end)
	w.t.slotSpanDone(w.layer, start, end)
	return resp, err
}

// wireSide is the state one association end's codec and socket wrappers
// share: the kind of the frame being sent (set by the encoder, read by the
// Write that follows under e2.Conn's send lock) and, on the RIC end, when
// the last indication finished decoding.
type wireSide struct {
	ric       bool
	sendKind  atomic.Int64
	indDecEnd atomic.Int64
}

// tracedCodec wraps the E2 codec at one end of an association.
type tracedCodec struct {
	inner e2.Codec
	t     *tracer
	side  *wireSide
}

func (c tracedCodec) Name() string { return c.inner.Name() }

func (c tracedCodec) beginEncode(m *e2.Message) (frameKind, int64) {
	k := kindOf(m)
	start := c.t.now()
	if c.side.ric && k == kindControl {
		// RIC decode end -> control encode start: the xApp dispatch.
		if dec := c.side.indDecEnd.Swap(0); dec > 0 {
			c.t.span(&c.t.dispatch, "ric.dispatch", dec, start)
		}
	}
	c.side.sendKind.Store(int64(k))
	return k, start
}

func (c tracedCodec) endEncode(k frameKind, start int64, n int) {
	c.t.span(&c.t.encode[k], encodeNames[k], start, c.t.now())
	if c.t.frameBytes[k].n.Load() < exactFrames {
		c.t.frameBytes[k].add(int64(n))
	}
}

func (c tracedCodec) Encode(m *e2.Message) ([]byte, error) {
	k, start := c.beginEncode(m)
	b, err := c.inner.Encode(m)
	c.endEncode(k, start, len(b))
	return b, err
}

// AppendEncode keeps e2.Conn on the allocation-free path the inner codec
// offers.
func (c tracedCodec) AppendEncode(dst []byte, m *e2.Message) ([]byte, error) {
	ae, ok := c.inner.(e2.AppendEncoder)
	if !ok {
		b, err := c.Encode(m)
		return append(dst, b...), err
	}
	k, start := c.beginEncode(m)
	out, err := ae.AppendEncode(dst, m)
	c.endEncode(k, start, len(out)-len(dst))
	return out, err
}

func (c tracedCodec) Decode(b []byte) (*e2.Message, error) {
	start := c.t.now()
	m, err := c.inner.Decode(b)
	end := c.t.now()
	if err != nil {
		return m, err
	}
	k := kindOf(m)
	c.t.span(&c.t.decode[k], decodeNames[k], start, end)
	if c.side.ric && k == kindIndication {
		c.side.indDecEnd.Store(end)
	}
	return m, err
}

// tracedConn wraps the association's socket: write time per frame kind and
// read/write syscall counts.
type tracedConn struct {
	net.Conn
	t    *tracer
	side *wireSide
}

func (c tracedConn) Write(b []byte) (int, error) {
	k := frameKind(c.side.sendKind.Load())
	start := c.t.now()
	n, err := c.Conn.Write(b)
	c.t.span(&c.t.write[k], writeNames[k], start, c.t.now())
	return n, err
}

func (c tracedConn) Read(b []byte) (int, error) {
	c.t.reads.Add(1)
	return c.Conn.Read(b)
}

// newE2Conn builds one end of an association, with the codec and socket
// wrappers when t is non-nil.
func newE2Conn(nc net.Conn, codec e2.Codec, t *tracer, ric bool) *e2.Conn {
	if t == nil {
		return e2.NewConn(nc, codec)
	}
	side := &wireSide{ric: ric}
	return e2.NewConn(tracedConn{nc, t, side}, tracedCodec{codec, t, side})
}

// applyEvent is what the gNB control surface reports to the closed loop when an
// Apply returns.
type applyEvent struct {
	at      time.Time
	err     error
	action  e2.ControlAction
	sliceID uint32
	value   float64
	text    string
}

// ranControl is the gNB control surface the E2 agent drives (it implements
// ric.RANControl). It is part of every run, traced or not: it tells the
// closed loop when a control's Apply has returned. With a tracer it
// also times Snapshot and Apply.
type ranControl struct {
	g       *core.GNB
	t       *tracer
	applied chan applyEvent
	// overflow counts applies nobody was waiting for.
	overflow atomic.Int64
}

func newRANControl(g *core.GNB, t *tracer) *ranControl {
	return &ranControl{g: g, t: t, applied: make(chan applyEvent, 1)}
}

func (r *ranControl) Snapshot(cell uint32) *e2.Indication {
	if r.t == nil {
		return r.g.Snapshot(cell)
	}
	start := r.t.now()
	ind := r.g.Snapshot(cell)
	r.t.span(&r.t.snapshot, "gnb.snapshot", start, r.t.now())
	return ind
}

func (r *ranControl) Apply(c *e2.ControlRequest) error {
	var start int64
	if r.t != nil {
		start = r.t.now()
	}
	err := r.g.Apply(c)
	ev := applyEvent{at: time.Now(), err: err, action: c.Action, sliceID: c.SliceID, value: c.Value, text: c.Text}
	if r.t != nil {
		if c.Action == e2.ActionUploadScheduler {
			r.t.span(&r.t.applyUpload, "gnb.apply.upload", start, r.t.now())
		} else {
			r.t.span(&r.t.apply, "gnb.apply", start, r.t.now())
		}
	}
	select {
	case r.applied <- ev:
	default:
		r.overflow.Add(1)
	}
	return err
}

// waitApply blocks until the next Apply returns or the timeout passes.
func (r *ranControl) waitApply(timer *time.Timer, timeout time.Duration) (applyEvent, bool) {
	timer.Reset(timeout)
	select {
	case ev := <-r.applied:
		if !timer.Stop() {
			<-timer.C
		}
		return ev, true
	case <-timer.C:
		return applyEvent{}, false
	}
}
