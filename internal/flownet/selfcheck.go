package flownet

import (
	"fmt"
	"math"
)

// SetSelfCheck makes the Net verify its own invariants as it runs and
// report each violation through fail; nil (the default) disables the
// checks. After every merge-replay rewind, every link's (rem, wcnt) must
// equal, bit for bit, a from-capacity replay of the retained log prefix;
// after every rewind and every solve, the deadline heap must be ordered
// and its position index consistent. A check costs a replay of the whole
// prefix, so this is a testing aid: the randomized oracle tests and the
// simulator's engine-agreement fuzzing switch it on.
func (n *Net) SetSelfCheck(fail func(error)) { n.selfCheck = fail }

// checkRewind replays levels [0, cutLow) from the raw capacities — the
// same per-level weight accumulation and single multiply-subtract per
// distinct link as flushLevel — and compares the result with the rewound
// working state.
func (n *Net) checkRewind(cutLow int) {
	rem := append([]float64(nil), n.caps...)
	wcnt := append([]int32(nil), n.linkWeight...)
	wsum := make([]int32, len(n.caps))
	var touched []int32
	for _, lv := range n.levels[:cutLow] {
		for _, f := range n.fixes[lv.fixStart : lv.fixStart+lv.nfix] {
			for _, l := range n.entryLinks(&f) {
				if wsum[l] == 0 {
					touched = append(touched, l)
				}
				wsum[l] += f.weight
			}
		}
		for _, l := range touched {
			rem[l] -= float64(wsum[l]) * lv.value
			if rem[l] < 0 {
				rem[l] = 0
			}
			wcnt[l] -= wsum[l]
			wsum[l] = 0
		}
		touched = touched[:0]
	}
	for l := range rem {
		if math.Float64bits(rem[l]) != math.Float64bits(n.rem[l]) || wcnt[l] != n.wcnt[l] {
			n.selfCheck(fmt.Errorf("flownet: rewind to level %d left link %d at (rem %v, wcnt %d), replay gives (%v, %d)",
				cutLow, l, n.rem[l], n.wcnt[l], rem[l], wcnt[l]))
			return
		}
	}
	n.checkDeadlines()
}

// checkDeadlines verifies the deadline heap's order and that dlPos maps
// exactly the entities in the heap to their slots.
func (n *Net) checkDeadlines() {
	for i, k := range n.dlHeap {
		if n.dlPos[k.eid] != int32(i) {
			n.selfCheck(fmt.Errorf("flownet: deadline slot %d holds entity %d, whose dlPos is %d", i, k.eid, n.dlPos[k.eid]))
			return
		}
		if p := (i - 1) / 2; i > 0 && dlLess(k, n.dlHeap[p]) {
			n.selfCheck(fmt.Errorf("flownet: deadline slot %d (%v) orders before its parent %d (%v)", i, k, p, n.dlHeap[p]))
			return
		}
	}
	indexed := 0
	for _, p := range n.dlPos {
		if p >= 0 {
			indexed++
		}
	}
	if indexed != len(n.dlHeap) {
		n.selfCheck(fmt.Errorf("flownet: %d entities indexed, deadline heap holds %d", indexed, len(n.dlHeap)))
	}
}
