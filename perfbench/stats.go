package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantileUs is the q-quantile (nearest rank) of ns samples, in
// microseconds. It sorts samples in place.
func quantileUs(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	return float64(samples[min(max(rank, 1), len(samples))-1]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// phase captures the process counters at one edge of a timed phase.
type phase struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	gc     uint32
}

func mark() phase {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure only skews cpu_util
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return phase{wall: time.Now(), cpu: cpu, allocs: ms.Mallocs, bytes: ms.TotalAlloc, gc: ms.NumGC}
}

// runtimeDelta is the Go runtime's share of one timed phase.
type runtimeDelta struct {
	wall          time.Duration
	cpuUtil       float64
	allocs, bytes uint64
	gcCycles      uint32
}

func since(p phase) runtimeDelta {
	q := mark()
	wall := q.wall.Sub(p.wall)
	return runtimeDelta{
		wall:     wall,
		cpuUtil:  float64(q.cpu-p.cpu) / float64(wall),
		allocs:   q.allocs - p.allocs,
		bytes:    q.bytes - p.bytes,
		gcCycles: q.gc - p.gc,
	}
}
