package main

import (
	"math"
	"testing"
	"time"
)

// shortRun builds one workload in short mode and runs a fixed number of
// ops, traced when t is non-nil.
func shortRun(t *testing.T, w workload, seed int64, tr *tracer) (*timedResult, map[string]float64) {
	t.Helper()
	cfg := runCfg{seed: seed, ops: 400, short: true}
	r, _, _, counters, err := measure(w, cfg, time.Minute, tr, 1)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return r, counters
}

func TestShortWorkloadsPassGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, _ := shortRun(t, w, 7, nil)
			if len(r.errs) > 0 || r.failed != 0 {
				t.Fatalf("gate failed: %d failed ops, %v", r.failed, r.errs)
			}
			if r.ops < 400 {
				t.Fatalf("ran %d ops, want at least 400", r.ops)
			}
		})
	}
}

// The tracing wrappers only observe: a traced run of the same seed and op
// count produces the same correctness digest as an untraced one.
func TestTracedWrappersArePassThrough(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, _ := shortRun(t, w, 11, nil)
			traced, _ := shortRun(t, w, 11, newTracer(w.sweep))
			if len(traced.errs) > 0 || traced.failed != 0 {
				t.Fatalf("traced gate failed: %v", traced.errs)
			}
			if plain.digest != traced.digest {
				t.Fatalf("digest %x untraced, %x traced", plain.digest, traced.digest)
			}
		})
	}
}

// The per-layer rows partition each iteration's wall time: the rows plus
// the unattributed row add up to row.wall_us, and every measured row is
// non-negative.
func TestRowsSumToWall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer(w.sweep)
			r, _ := shortRun(t, w, 3, tr)
			m := layers(tr, r)
			sum := 0.0
			for _, k := range rowNames {
				v, ok := m[k]
				if !ok {
					t.Fatalf("row %s missing", k)
				}
				if k != "row.unattributed_us" && v < 0 {
					t.Errorf("%s = %v, want >= 0", k, v)
				}
				sum += v
			}
			if wall := m["row.wall_us"]; wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
				t.Fatalf("rows sum to %v, wall is %v", sum, wall)
			}
			if m["row.core_us"] <= 0 {
				t.Errorf("row.core_us = %v, want > 0", m["row.core_us"])
			}
		})
	}
}

// exactCounts runs a workload traced and returns the counts later changes
// may cite exactly: wasm fuel per call and E2 frame bytes.
func exactCounts(t *testing.T, w workload, seed int64) map[string]float64 {
	tr := newTracer(w.sweep)
	r, counters := shortRun(t, w, seed, tr)
	m := layers(tr, r)
	out := map[string]float64{}
	for _, k := range []string{"wasm.fuel_per_call.rr", "wasm.fuel_per_call.pf", "wasm.fuel_per_call.mt"} {
		out[k] = counters[k]
	}
	for _, k := range []string{"e2.frame_bytes.indication", "e2.frame_bytes.control", "e2.frame_bytes.upload"} {
		out[k] = m[k]
	}
	return out
}

// Fuel per call and frame bytes repeat exactly for a seed, and the
// input-dependent ones change with it. Indication and control frames of
// the binary codec have a fixed layout for a fixed UE count, so only their
// repetition is checked.
func TestExactCountsRepeatPerSeed(t *testing.T) {
	cases := []struct {
		w      string
		varies []string
	}{
		{"slot-capacity", []string{"wasm.fuel_per_call.rr", "wasm.fuel_per_call.pf", "wasm.fuel_per_call.mt"}},
		{"control-loop", nil},
		{"plugin-upload", []string{"wasm.fuel_per_call.pf", "e2.frame_bytes.upload"}},
	}
	for _, c := range cases {
		var w workload
		for _, x := range workloads {
			if x.name == c.w {
				w = x
			}
		}
		t.Run(c.w, func(t *testing.T) {
			a, b, other := exactCounts(t, w, 5), exactCounts(t, w, 5), exactCounts(t, w, 6)
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v for the same seed", k, v, b[k])
				}
			}
			for _, k := range c.varies {
				if a[k] == 0 {
					t.Errorf("%s is 0", k)
				}
				if a[k] == other[k] {
					t.Errorf("%s = %v for seeds 5 and 6", k, a[k])
				}
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	samples := make([]int64, 0, 1000)
	for v := int64(1000); v >= 1; v-- {
		samples = append(samples, v*1000) // 1 us .. 1 ms, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}} {
		if got := quantileUs(samples, c.q); got != c.want {
			t.Errorf("q%.2f = %v us, want %v us", c.q, got, c.want)
		}
	}
}

// Scaling to the reference speed divides throughput and multiplies times by
// the median of the windows' reference factors.
func TestReferenceScaling(t *testing.T) {
	r := newTimedResult(0.99)
	for i, f := range []float64{0.5, 2, 0.5} {
		r.wins = append(r.wins, windowStat{ops: int64(100 * (i + 1)), active: time.Second, factor: f, p50: 1, tail: 2})
	}
	rawOps, rawP50, _ := rawE2E(r)
	ops, p50, _ := e2e(r)
	if math.Abs(ops-rawOps/0.5) > 1e-9 || math.Abs(p50-rawP50*0.5) > 1e-9 {
		t.Fatalf("scaled %v ops/s, %v us; measured %v ops/s, %v us; factor 0.5", ops, p50, rawOps, rawP50)
	}
	if f := newRefMeter().factor(); f <= 0 || math.IsInf(f, 0) {
		t.Fatalf("reference factor %v", f)
	}
}
