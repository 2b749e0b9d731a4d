package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark's time metrics are reported at a reference machine speed.
// A small VM shares its cores with other tenants, and their load changes the
// speed of everything that runs here by up to 2x within minutes (see
// README.md). Before each measurement window the benchmark runs a fixed
// reference kernel — code of its own, independent of the program — on every
// CPU. The median rate of these samples over refNominal is the run's factor;
// measured throughput is divided by it and measured times multiplied. A
// change to the program moves the scaled numbers exactly as it moves the
// measured ones; a change in the neighbours' load moves both the kernel and
// the program, and mostly cancels.

// refNominal is the reference kernel's rate (units per second, all CPUs)
// that the scaled metrics are expressed at: a round figure below the rates
// seen on a 2-vCPU VM, where run factors ranged from 1.1 to 1.4.
const refNominal = 4000.0

// refUnits is the number of kernel units one sample runs on each CPU
// (about 10 ms at refNominal).
const refUnits = 20

// refKernel is one CPU's reference work: memory writes, a hash over them,
// a stack-machine interpreter loop, random probes into a table and a sort.
// It allocates nothing, so the program's heap and GC do not feed into it.
type refKernel struct {
	buf   []byte
	table []uint32
	ints  []int
	src   []int
	prog  []refOp
	stack []int64
}

type refOp struct {
	code byte
	arg  int64
}

const (
	opPush byte = iota
	opAdd
	opMul
	opXor
	opShr
	opDup
	opDrop
	opDecJnz // decrement the counter in arg slot and jump back
)

func newRefKernel() *refKernel {
	k := &refKernel{
		buf:   make([]byte, 64<<10),
		table: make([]uint32, 16<<10),
		ints:  make([]int, 2048),
		src:   make([]int, 2048),
		stack: make([]int64, 0, 64),
	}
	x := uint32(2463534242)
	for i := range k.src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.src[i] = int(x % 100_000)
	}
	// A loop body of arithmetic over a small stack, run 200 times.
	k.prog = []refOp{
		{opPush, 7}, {opPush, 3}, {opMul, 0}, {opDup, 0}, {opPush, 11},
		{opXor, 0}, {opAdd, 0}, {opPush, 2}, {opShr, 0}, {opDrop, 0},
		{opDecJnz, 0},
	}
	return k
}

// unit runs one unit of reference work and returns a value that depends on
// all of it.
func (k *refKernel) unit(seed int) uint64 {
	var h uint64 = 1469598103934665603
	v := byte(seed)
	for i := range k.buf {
		v = v*31 + 7
		k.buf[i] = v
	}
	for _, b := range k.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	counter := int64(200)
	k.stack = k.stack[:0]
	for pc := 0; pc < len(k.prog); pc++ {
		op := k.prog[pc]
		switch op.code {
		case opPush:
			k.stack = append(k.stack, op.arg+int64(seed))
		case opAdd, opMul, opXor, opShr:
			n := len(k.stack)
			a, b := k.stack[n-2], k.stack[n-1]
			k.stack = k.stack[:n-1]
			switch op.code {
			case opAdd:
				k.stack[n-2] = a + b
			case opMul:
				k.stack[n-2] = a * b
			case opXor:
				k.stack[n-2] = a ^ b
			case opShr:
				k.stack[n-2] = a >> (uint64(b) & 31)
			}
		case opDup:
			k.stack = append(k.stack, k.stack[len(k.stack)-1])
		case opDrop:
			h += uint64(k.stack[len(k.stack)-1])
			k.stack = k.stack[:len(k.stack)-1]
		case opDecJnz:
			counter--
			if counter > 0 {
				pc = -1
			}
		}
	}
	idx := uint32(h)
	for i := 0; i < 4096; i++ {
		idx = idx*1664525 + 1013904223
		j := idx >> 18 // 14 bits: the table's size
		k.table[j] += idx
		h += uint64(k.table[(j*7)&(16<<10-1)])
	}
	copy(k.ints, k.src)
	k.ints[seed%len(k.ints)] = int(h % 100_000)
	sort.Ints(k.ints)
	return h + uint64(k.ints[len(k.ints)/2])
}

// refMeter samples the machine's current speed with one kernel per CPU.
type refMeter struct {
	kernels []*refKernel
	sink    []uint64
	next    int
}

func newRefMeter() *refMeter {
	n := runtime.GOMAXPROCS(0)
	m := &refMeter{sink: make([]uint64, n)}
	for i := 0; i < n; i++ {
		m.kernels = append(m.kernels, newRefKernel())
	}
	return m
}

// factor runs one sample and returns its rate over refNominal: above 1 when
// the machine is currently faster than nominal. Each CPU's kernel is timed
// on its own and the rates add, so one slow CPU lowers the rate by its
// share only.
func (m *refMeter) factor() float64 {
	var wg sync.WaitGroup
	rates := make([]float64, len(m.kernels))
	for i, k := range m.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var s uint64
			for u := 0; u < refUnits; u++ {
				s += k.unit(m.next + u)
			}
			rates[i] = refUnits / time.Since(start).Seconds()
			m.sink[i] = s
		}()
	}
	wg.Wait()
	m.next++
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total / refNominal
}
