// Command perfbench is WA-RAN's benchmark. It hosts the gNB (core),
// the near-RT RIC (ric) and their E2 associations over loopback TCP in one
// process, builds them through public APIs exactly as cmd/gnb and cmd/ric
// do, runs one closed-loop workload for a fixed time, checks the program's
// outputs, and prints one JSON result line. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload slot-capacity --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runCfg is what a workload needs to know about the run.
type runCfg struct {
	seed int64
	// ops, when positive, ends the timed phase after that many operations
	// instead of after the duration (tests use it to compare digests).
	ops int64
	// short shrinks the warm-ups (tests).
	short bool
}

// deployment is one workload's system under test, built and warmed.
type deployment interface {
	// run drives the closed loop for d (or cfg.ops operations).
	run(d time.Duration) *timedResult
	// gate checks the outputs of everything run so far and fills failed,
	// errs and digest.
	gate(r *timedResult)
	// counters adds the program's own per-layer counters to m.
	counters(m map[string]float64)
	close()
}

// timedResult is one timed phase.
type timedResult struct {
	ops    int64
	failed int64
	// samples holds the current window's per-op latencies (ns).
	samples []int64
	tailQ   float64
	// The phase runs as whole windows, each after a reference sample.
	ref      *refMeter
	wins     []windowStat
	winStart time.Time
	rt       runtimeDelta
	// iterations is the number of loop iterations (StepAll calls,
	// association loops or upload cycles); the per-layer rows are per
	// iteration.
	iterations int64
	// iterWall is the wall time one iteration takes on average, summed
	// over the concurrent loops (associations) that share the wall.
	iterWall time.Duration
	digest   uint64
	errs     []string
}

// windowStat is one measurement window of a timed phase.
type windowStat struct {
	ops    int64
	active time.Duration // the window's wall time, reference sample excluded
	factor float64       // reference rate over refNominal before the window
	// p50 and tail are the window's latency quantiles as measured (us).
	p50, tail float64
}

func newTimedResult(tailQ float64) *timedResult {
	return &timedResult{tailQ: tailQ, ref: newRefMeter()}
}

// windowCount is how many windows a phase of length d runs; an op-limited
// phase (tests) runs one window until its ops are done.
func windowCount(cfg runCfg, d time.Duration) int {
	if cfg.ops > 0 {
		return 1
	}
	return max(1, int(d/rateWindow))
}

// beginWindow samples the reference kernel and opens a window; it returns
// when the window should end.
func (r *timedResult) beginWindow() time.Time {
	r.wins = append(r.wins, windowStat{factor: r.ref.factor()})
	r.samples = r.samples[:0]
	r.winStart = time.Now()
	return r.winStart.Add(rateWindow)
}

// endWindow closes the window, which completed ops operations with the
// latencies in r.samples.
func (r *timedResult) endWindow(ops int64) {
	w := &r.wins[len(r.wins)-1]
	w.ops, w.active = ops, time.Since(r.winStart)
	w.p50, w.tail = quantileUs(r.samples, 0.50), quantileUs(r.samples, r.tailQ)
	r.ops += ops
}

// factor is the phase's median reference factor: one sample per window,
// so a regime of neighbour load that lasts seconds is tracked while the
// noise of single 10 ms samples is not.
func (r *timedResult) factor() float64 {
	if len(r.wins) == 0 {
		return 1
	}
	fs := make([]float64, len(r.wins))
	for i, w := range r.wins {
		fs[i] = w.factor
	}
	return median(fs)
}

// active is the phase's wall time without the reference samples.
func (r *timedResult) active() time.Duration {
	var d time.Duration
	for _, w := range r.wins {
		d += w.active
	}
	return d
}

func (r *timedResult) fail(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// workload builds a deployment; t is nil for untraced runs.
type workload struct {
	name  string
	setup func(cfg runCfg, t *tracer) (deployment, error)
	// sweep selects the wall-share attribution for parallel cells.
	sweep bool
}

var workloads = []workload{
	{name: "slot-capacity", setup: setupSlotCapacity, sweep: true},
	{name: "control-loop", setup: setupControlLoop},
	{name: "plugin-upload", setup: setupPluginUpload},
}

// setupRepeats is how many times an untraced run builds the deployment; the
// last one is measured and setup_s is the median of all of them.
const setupRepeats = 3

// layerMetrics are the per-layer metric names of BENCHMARK.json, in order.
var layerMetrics = []struct{ name, unit string }{
	{"row.wall_us", "us"},
	{"row.core_us", "us"},
	{"row.sched_inter_us", "us"},
	{"row.sched_intra_us", "us"},
	{"row.gnb_us", "us"},
	{"row.e2_us", "us"},
	{"row.ric_us", "us"},
	{"row.unattributed_us", "us"},
	{"trace.overhead_pct", "%"},
	{"core.stepall_us", "us"},
	{"core.self_us", "us"},
	{"core.deadline_overruns", "count"},
	{"core.fallback_slots", "count"},
	{"sched.inter_us", "us"},
	{"sched.intra_us.rr", "us"},
	{"sched.intra_us.pf", "us"},
	{"sched.intra_us.mt", "us"},
	{"sched.zc_calls", "count"},
	{"sched.codec_calls", "count"},
	{"sched.zc_dirty_record_pct", "%"},
	{"wasm.fuel_per_call.rr", "instr"},
	{"wasm.fuel_per_call.pf", "instr"},
	{"wasm.fuel_per_call.mt", "instr"},
	{"wasm.interp_calls", "count"},
	{"wasm.closure_calls", "count"},
	{"wabi.tier_promotions", "count"},
	{"wabi.pool_waits", "count"},
	{"wabi.cache_misses", "count"},
	{"wabi.cache_hits", "count"},
	{"e2.encode_us.indication", "us"},
	{"e2.encode_us.control", "us"},
	{"e2.encode_us.upload", "us"},
	{"e2.decode_us.indication", "us"},
	{"e2.decode_us.control", "us"},
	{"e2.decode_us.upload", "us"},
	{"e2.frame_bytes.indication", "bytes"},
	{"e2.frame_bytes.control", "bytes"},
	{"e2.frame_bytes.upload", "bytes"},
	{"e2.write_us", "us"},
	{"e2.syscalls_per_op", "count"},
	{"ric.agent_tick_us", "us"},
	{"ric.dispatch_us", "us"},
	{"ric.xapp_invocations", "count"},
	{"ric.controls", "count"},
	{"gnb.snapshot_us", "us"},
	{"gnb.apply_us", "us"},
	{"gnb.apply_us.upload", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_util", "ratio"},
}

func main() {
	name := flag.String("workload", "", "slot-capacity, control-loop or plugin-upload")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "timed phase length")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	cfg := runCfg{seed: *seed}
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(*w, cfg, d)
	} else {
		res, err = untracedRun(*w, cfg, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	conditions := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "e2_codec": "binary",
	}
	for k, v := range res.conditions {
		conditions[k] = v
	}
	line, _ := json.Marshal(map[string]any{"conditions": conditions})
	fmt.Println(string(line))
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	out := map[string]any{
		"correct":   len(res.errs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}
	line, _ = json.Marshal(out)
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	attempted, failed int64
	metrics           map[string]metric
	conditions        map[string]any
	errs              []string
}

// measure builds the deployment repeats times, runs the timed phase on the
// last one, gates it and tears it down. Each build is timed as measured
// (rawSetups) and scaled to the reference speed (setups) by reference
// samples taken just before and after it.
func measure(w workload, cfg runCfg, d time.Duration, t *tracer, repeats int) (r *timedResult, setups, rawSetups []float64, counters map[string]float64, err error) {
	ref := newRefMeter()
	var dep deployment
	for i := 0; i < repeats; i++ {
		before := ref.factor()
		start := time.Now()
		dep, err = w.setup(cfg, t)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*(before+ref.factor())/2)
		if i < repeats-1 {
			dep.close()
		}
	}
	defer dep.close()
	r = dep.run(d)
	dep.gate(r)
	counters = map[string]float64{}
	dep.counters(counters)
	return r, setups, rawSetups, counters, nil
}

// rateWindow is the length of one measurement window.
const rateWindow = time.Second

// e2e computes the end-to-end metrics of one timed phase at the reference
// machine speed: the measured throughput divided by the phase's reference
// factor, the measured latencies multiplied by it.
func e2e(r *timedResult) (opsPerS, p50, tail float64) {
	f := r.factor()
	ops, p50, tail := rawE2E(r)
	return ops / f, p50 * f, tail * f
}

// rawE2E is the phase's metrics as measured: the median over windows of
// each window's ops per second, p50 and tail latency, so a minority of
// windows disturbed by other load cannot move them.
func rawE2E(r *timedResult) (opsPerS, p50, tail float64) {
	var rates, p50s, tails []float64
	for _, w := range r.wins {
		rates = append(rates, float64(w.ops)/w.active.Seconds())
		p50s = append(p50s, w.p50)
		tails = append(tails, w.tail)
	}
	return median(rates), median(p50s), median(tails)
}

func untracedRun(w workload, cfg runCfg, d time.Duration) (*result, error) {
	r, setups, rawSetups, counters, err := measure(w, cfg, d, nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	ops, p50, tail := e2e(r)
	rawOps, rawP50, rawTail := rawE2E(r)
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs; at reference speed %.1f ops/s, p50 %.1f us, p%.0f %.1f us, setup %.3f s; as measured %.1f ops/s, p50 %.1f us, p%.0f %.1f us, setup %.3f s; reference factor median %.3f\n",
		w.name, r.ops, r.rt.wall.Seconds(), ops, p50, r.tailQ*100, tail, median(setups),
		rawOps, rawP50, r.tailQ*100, rawTail, median(rawSetups), r.factor())
	cond := conditionsOf(counters)
	cond["measured"] = map[string]float64{
		"ops_per_s": rawOps, "op_p50_us": rawP50, "op_tail_us": rawTail, "setup_s": median(rawSetups),
		"reference_factor": r.factor(),
	}
	return &result{
		attempted: r.ops,
		failed:    r.failed,
		errs:      r.errs,
		metrics: map[string]metric{
			"ops_per_s":   {finite(ops), "1/s"},
			"op_p50_us":   {finite(p50), "us"},
			"op_tail_us":  {finite(tail), "us"},
			"setup_s":     {finite(median(setups)), "s"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
		conditions: cond,
	}, nil
}

// tracedRun measures the untraced deployment, then the same construction
// with the tracing wrappers, each for half of d, and reports the per-layer
// metrics: rows from the traced phase, runtime and program counters from
// the untraced one.
func tracedRun(w workload, cfg runCfg, d time.Duration) (*result, error) {
	d /= 2
	base, _, _, counters, err := measure(w, cfg, d, nil, 1)
	if err != nil {
		return nil, err
	}
	t := newTracer(w.sweep)
	tr, _, _, _, err := measure(w, cfg, d, t, 1)
	if err != nil {
		return nil, err
	}
	m := layers(t, tr)
	for k, v := range counters {
		m[k] = v
	}
	baseOps, baseP50, _ := e2e(base)
	trOps, trP50, _ := e2e(tr)
	m["trace.overhead_pct"] = (baseOps/trOps - 1) * 100
	m["runtime.allocs_per_op"] = float64(base.rt.allocs) / float64(base.ops)
	m["runtime.bytes_per_op"] = float64(base.rt.bytes) / float64(base.ops)
	m["runtime.gc_cycles"] = float64(base.rt.gcCycles)
	m["runtime.cpu_util"] = base.rt.cpuUtil

	fmt.Fprintf(os.Stderr, "%s untraced: %.1f ops/s, p50 %.1f us; traced: %.1f ops/s, p50 %.1f us; tracing overhead %.2f%%\n",
		w.name, baseOps, baseP50, trOps, trP50, m["trace.overhead_pct"])
	printBreakdown(w.name, m)
	if err := t.writeSpans(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}

	out := &result{
		attempted:  base.ops + tr.ops,
		failed:     base.failed + tr.failed,
		errs:       append(base.errs, tr.errs...),
		metrics:    map[string]metric{},
		conditions: conditionsOf(counters),
	}
	for _, lm := range layerMetrics {
		out.metrics[lm.name] = metric{finite(m[lm.name]), lm.unit}
	}
	return out, nil
}

// finite maps the NaN or infinity of an empty phase to 0, which JSON can
// carry; such a run has already failed its checks.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// conditionsOf picks the run conditions out of the program counters: which
// wasm tier and which plugin ABI served the run.
func conditionsOf(c map[string]float64) map[string]any {
	return map[string]any{
		"wasm_interp_calls":  c["wasm.interp_calls"],
		"wasm_closure_calls": c["wasm.closure_calls"],
		"abi_zc_calls":       c["sched.zc_calls"],
		"abi_codec_calls":    c["sched.codec_calls"],
	}
}

// rowNames are the per-iteration rows that partition the wall time.
var rowNames = []string{"row.core_us", "row.sched_inter_us", "row.sched_intra_us", "row.gnb_us", "row.e2_us", "row.ric_us", "row.unattributed_us"}

func printBreakdown(name string, m map[string]float64) {
	fmt.Fprintf(os.Stderr, "%s per-iteration breakdown (us):\n", name)
	sum := 0.0
	for _, k := range rowNames {
		fmt.Fprintf(os.Stderr, "  %-22s %10.2f\n", k, m[k])
		sum += m[k]
	}
	fmt.Fprintf(os.Stderr, "  %-22s %10.2f (rows sum to %.2f)\n", "row.wall_us", m["row.wall_us"], sum)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-28s %14.3f\n", k, m[k])
	}
}

// layers turns the traced phase's spans into the per-layer metrics. Each
// row is time per iteration; the rows plus row.unattributed_us equal
// row.wall_us.
func layers(t *tracer, r *timedResult) map[string]float64 {
	it := r.iterations
	m := map[string]float64{
		"core.stepall_us":     t.step.meanUs(),
		"sched.inter_us":      t.inter.meanUs(),
		"sched.intra_us.rr":   t.intra["rr"].meanUs(),
		"sched.intra_us.pf":   t.intra["pf"].meanUs(),
		"sched.intra_us.mt":   t.intra["mt"].meanUs(),
		"ric.agent_tick_us":   t.tick.meanUs(),
		"ric.dispatch_us":     t.dispatch.meanUs(),
		"gnb.snapshot_us":     t.snapshot.meanUs(),
		"gnb.apply_us":        t.apply.meanUs(),
		"gnb.apply_us.upload": t.applyUpload.meanUs(),
		"row.wall_us":         float64(r.iterWall.Nanoseconds()) / 1e3,
	}
	var writeN, writeNs int64
	for k := frameKind(0); k < numKinds; k++ {
		name := kindNames[k]
		if k <= kindUpload {
			m["e2.encode_us."+name] = t.encode[k].meanUs()
			m["e2.decode_us."+name] = t.decode[k].meanUs()
			if n := t.frameBytes[k].n.Load(); n > 0 {
				m["e2.frame_bytes."+name] = float64(t.frameBytes[k].sum.Load()) / float64(n)
			}
		}
		writeN += t.write[k].n.Load()
		writeNs += t.write[k].sum.Load()
	}
	if writeN > 0 {
		m["e2.write_us"] = float64(writeNs) / float64(writeN) / 1e3
	}
	if r.ops > 0 {
		m["e2.syscalls_per_op"] = float64(writeN+t.reads.Load()) / float64(r.ops)
	}

	intraNs := t.intra["rr"].sum.Load() + t.intra["pf"].sum.Load() + t.intra["mt"].sum.Load()
	per := func(ns int64) float64 { return float64(ns) / float64(it) / 1e3 }
	if t.sweep {
		// Parallel cells: rows are wall shares of each StepAll.
		m["row.core_us"] = per(t.shareNs["core"])
		m["row.sched_inter_us"] = per(t.shareNs["inter"])
		m["row.sched_intra_us"] = per(t.shareNs["rr"] + t.shareNs["pf"] + t.shareNs["mt"])
		m["core.self_us"] = float64(t.shareNs["core"]) / float64(t.step.n.Load()) / 1e3
	} else {
		// One cell per loop: spans nest without overlap, so self time is
		// the parent minus its children.
		self := t.step.sum.Load() - t.inter.sum.Load() - intraNs
		m["row.core_us"] = per(self)
		m["row.sched_inter_us"] = per(t.inter.sum.Load())
		m["row.sched_intra_us"] = per(intraNs)
		if n := t.step.n.Load(); n > 0 {
			m["core.self_us"] = float64(self) / float64(n) / 1e3
		}
	}
	// The E2 path of an iteration: frames on the causal chain only (acks
	// travel after the apply and are off the path).
	e2Ns := t.decode[kindControl].sum.Load() + t.decode[kindUpload].sum.Load()
	for _, k := range []frameKind{kindIndication, kindControl, kindUpload} {
		e2Ns += t.encode[k].sum.Load() + t.write[k].sum.Load()
	}
	if t.dispatch.n.Load() > 0 {
		// The RIC decodes indications on the path only when an xApp
		// answers them.
		e2Ns += t.decode[kindIndication].sum.Load()
	}
	agentIndNs := t.encode[kindIndication].sum.Load() + t.write[kindIndication].sum.Load()
	m["row.e2_us"] = per(e2Ns)
	m["row.gnb_us"] = per(t.snapshot.sum.Load() + t.apply.sum.Load() + t.applyUpload.sum.Load())
	m["row.ric_us"] = per(t.tick.sum.Load() - t.snapshot.sum.Load() - agentIndNs + t.dispatch.sum.Load())
	rows := 0.0
	for _, k := range rowNames[:len(rowNames)-1] {
		rows += m[k]
	}
	m["row.unattributed_us"] = m["row.wall_us"] - rows
	return m
}

// digestOf folds values into a correctness digest.
func digestOf(vals ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

var errAborted = errors.New("closed loop stalled")
