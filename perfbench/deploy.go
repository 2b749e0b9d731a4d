package main

import (
	"fmt"
	"math/rand"

	"waran/internal/core"
	"waran/internal/ran"
	"waran/internal/sched"
	"waran/internal/wabi"
)

// sliceSpec is one slice of a benchmark cell: the built-in scheduler that
// serves it, its contracted rate, and how many UEs subscribe to it.
type sliceSpec struct {
	id     uint32
	sched  string
	target float64
	ues    int
}

// slotSlices is the three-MVNO cell of slot-capacity and plugin-upload:
// one slice per built-in scheduler, as cmd/gnb's default slice list.
func slotSlices(uesPerSlice int) []sliceSpec {
	return []sliceSpec{
		{1, "mt", 3e6, uesPerSlice},
		{2, "rr", 12e6, uesPerSlice},
		{3, "pf", 15e6, uesPerSlice},
	}
}

// ueSpec is the seeded description of one UE.
type ueSpec struct {
	id, slice   uint32
	mcs         int
	chanSeed    int64
	pktPerSec   float64
	trafficSeed int64
}

// cellInputs draws every cell's UEs from the seed. The same seed always
// yields the same UEs, so a replay builds an identical population.
func cellInputs(seed int64, cells int, slices []sliceSpec) [][]ueSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]ueSpec, cells)
	for c := range out {
		for _, s := range slices {
			for k := 0; k < s.ues; k++ {
				out[c] = append(out[c], ueSpec{
					id:          s.id*1000 + uint32(k) + 1,
					slice:       s.id,
					mcs:         5 + rng.Intn(24),
					chanSeed:    rng.Int63(),
					pktPerSec:   150 + 100*rng.Float64(),
					trafficSeed: rng.Int63(),
				})
			}
		}
	}
	return out
}

// populate registers the slices on every cell — on sched.RoundRobin until
// installPools replaces it, or on the native policy when native is set — and
// attaches the seeded UEs. It returns each cell's UEs in attach order.
func populate(cg *core.CellGroup, slices []sliceSpec, inputs [][]ueSpec, native bool) ([][]*ran.UE, error) {
	ues := make([][]*ran.UE, cg.NumCells())
	for c := 0; c < cg.NumCells(); c++ {
		g := cg.Cell(c)
		for _, s := range slices {
			var is sched.IntraSlice = sched.RoundRobin{}
			if native {
				var ok bool
				if is, ok = sched.ByName(s.sched); !ok {
					return nil, fmt.Errorf("no native scheduler %q", s.sched)
				}
			}
			if _, err := g.Slices.AddSlice(s.id, fmt.Sprintf("slice-%d(%s)", s.id, s.sched), s.target, is, nil); err != nil {
				return nil, err
			}
		}
		for _, u := range inputs[c] {
			ue := ran.NewUE(u.id, u.slice, u.mcs)
			ue.CQI = cqiFor(u.mcs)
			ue.Channel = ran.NewRandomWalkChannel(1, ran.MaxCQI, 0.02, u.chanSeed)
			ue.Traffic = ran.NewPoisson(u.pktPerSec, 0, u.trafficSeed)
			if err := g.AttachUE(ue); err != nil {
				return nil, err
			}
			ues[c] = append(ues[c], ue)
		}
	}
	return ues, nil
}

// cqiFor picks the CQI whose MCS is closest to mcs from below, so the
// random walk starts where the seeded MCS put the UE.
func cqiFor(mcs int) int {
	best := 1
	for cqi := 1; cqi <= ran.MaxCQI; cqi++ {
		if ran.CQIToMCS(cqi) <= mcs {
			best = cqi
		}
	}
	return best
}

// installPools puts the pooled wasm scheduler on every slice, as cmd/gnb
// does: one compiled module per scheduler, one instance per cell at most.
func installPools(cg *core.CellGroup, slices []sliceSpec) (map[string]*sched.PoolScheduler, error) {
	pools := map[string]*sched.PoolScheduler{}
	for _, s := range slices {
		ps, err := cg.InstallPooledScheduler(s.id, s.sched, wabi.Policy{}, cg.NumCells())
		if err != nil {
			return nil, err
		}
		pools[s.sched] = ps
	}
	return pools, nil
}

// hashCell folds one cell's cumulative per-UE delivered bits into a digest:
// two runs of a cell agree on a slot exactly when every UE has been served
// the same bits up to and including that slot.
func hashCell(ues []*ran.UE) uint64 {
	h := uint64(1469598103934665603)
	for _, u := range ues {
		h ^= uint64(u.DeliveredBits) + uint64(u.ID)<<40
		h *= 1099511628211
	}
	return h
}

// slotLog records, per group slot, each cell's digest and whether any slice
// fell back to its native scheduler.
type slotLog struct {
	hashes   [][]uint64 // [cell][slot]
	fallback [][]bool
}

func newSlotLog(cells, capSlots int) *slotLog {
	l := &slotLog{hashes: make([][]uint64, cells), fallback: make([][]bool, cells)}
	for c := range l.hashes {
		l.hashes[c] = make([]uint64, 0, capSlots)
		l.fallback[c] = make([]bool, 0, capSlots)
	}
	return l
}

func (l *slotLog) record(ues [][]*ran.UE, res []core.SlotResult) {
	for c := range ues {
		l.hashes[c] = append(l.hashes[c], hashCell(ues[c]))
		fb := false
		for _, ss := range res[c].PerSlice {
			fb = fb || ss.UsedFallback
		}
		l.fallback[c] = append(l.fallback[c], fb)
	}
}

func (l *slotLog) slots() int { return len(l.hashes[0]) }

// replayNative rebuilds the deployment with sched.ByName's native policies
// and steps it as many slots as the log holds. It returns, per cell, the
// slots whose digest differs from the log and whether the final per-UE
// delivered bits match the given UEs.
func replayNative(seed int64, cells int, slices []sliceSpec, log *slotLog, ues [][]*ran.UE) (mismatch [][]int, finalOK bool, err error) {
	cg, err := core.NewCellGroup(ran.CellConfig{}, core.CellGroupConfig{Cells: cells})
	if err != nil {
		return nil, false, err
	}
	nues, err := populate(cg, slices, cellInputs(seed, cells, slices), true)
	if err != nil {
		return nil, false, err
	}
	mismatch = make([][]int, cells)
	for s := 0; s < log.slots(); s++ {
		cg.StepAll()
		for c := 0; c < cells; c++ {
			if hashCell(nues[c]) != log.hashes[c][s] {
				mismatch[c] = append(mismatch[c], s)
			}
		}
	}
	finalOK = true
	for c := range ues {
		for i, u := range ues[c] {
			if nues[c][i].DeliveredBits != u.DeliveredBits {
				finalOK = false
			}
		}
	}
	return mismatch, finalOK, nil
}
