package flownet

import (
	"math"
	"sort"
)

// level is one progressive-filling event of the bottleneck log: either a
// saturated link (link >= 0) fixing the next nfix entities of the fix log
// at the fair share value, or a rate-cap freeze (link == -1) fixing one
// entity at its cap. Values are nondecreasing along the log — the merge
// replay and the fill both emit events in firing order — which is what
// lets Solve binary-search the log for the share-condition cut.
type level struct {
	link     int32
	nfix     int32
	fixStart int32 // index of the level's first entry in Net.fixes
	undo     int32 // index of the level's first record in Net.undo
	value    float64
}

// undoRec is one undo-log record: the state of one link just before a
// level drained it, written by flushLevel once per distinct link of the
// level. used is the weight already fixed on the link (linkWeight − wcnt
// at the time), kept instead of wcnt so a rewind can rebase the unfixed
// count on the current link weight: flows that joined or left the link's
// still-unfixed entities since the record was written move linkWeight,
// not the fixed weight. w is the level's weight on the link, so a clean
// recommit drains the link without re-accumulating the level's entries.
type undoRec struct {
	link int32
	w    int32
	used int32
	rem  float64
}

// fixEntry records one entity frozen by a level, with enough of the
// entity inlined (route, weight at fix time) that recommitting the entry
// streams through the fix log without touching the entity structs. gen
// detects entity-slot reuse across solves, which invalidates the entry;
// nlinks == longRoute routes the rare longer-than-inline route through
// the entity itself.
type fixEntry struct {
	ent    int32
	gen    uint32
	weight int32
	nlinks int8
	links  [maxAggRoute]int32
}

const longRoute = int8(-1)

// entryLinks returns the fix entry's route, falling back to the entity
// for routes too long to inline (only valid while the entry is).
func (n *Net) entryLinks(f *fixEntry) []int32 {
	if f.nlinks >= 0 {
		return f.links[:f.nlinks]
	}
	return n.ents[f.ent].links
}

// capKey is one pending-cap heap entry: a queued entity whose cap binds,
// keyed by (cap, entity id) — the candidate order progressive filling
// consumes rate-cap events in. Entities refixed by link events before
// their cap fires are skipped lazily (their fixedEp stamp marks them
// stale).
type capKey struct {
	cap float64
	eid int32
}

// DefaultScratchThreshold is the default adaptive cutoff below which Solve
// re-solves from scratch without any bottleneck-log bookkeeping: for tiny
// populations (the irregular jump=2 scenario classes keep a handful of
// concurrent flows) progressive filling is cheaper than the merge replay's
// fixed costs — the log rewind and the level, fix and undo logging — and
// the scratch path additionally touches only the live links instead of
// copying full capacity vectors. SetScratchThreshold overrides it per
// network; every solve path computes the same max-min rates up to
// floating-point association (see SetScratchThreshold).
const DefaultScratchThreshold = 16

const noLevel = math.MaxInt32

// Solve repairs the max-min rate allocation after population changes.
//
// Entities fixed in the still-valid part of the bottleneck level log keep
// their rates untouched; Solve merge-replays the log against the changed
// population (mergeReplay), re-running progressive filling only for the
// entities that actually diverged. See the package documentation for the
// validity rules and the full-solve fallback conditions.
func (n *Net) Solve() {
	if !n.dirty {
		return
	}
	n.dirty = false
	nl := len(n.caps)
	n.rem = resizeF(n.rem, nl)
	n.wcnt = resizeI32(n.wcnt, nl)
	n.share = resizeF(n.share, nl)
	if cap(n.wsum) < nl {
		n.wsum = make([]int32, nl)
	}
	n.wsum = n.wsum[:nl]
	n.epoch++
	n.unfixedList = n.unfixedList[:0]
	n.capHeap = n.capHeap[:0]

	// Fold the weight drift of the changed links into the live unfixed
	// counts. After a logged solve wcnt = linkWeight − the weight the log
	// fixed on the link; flows that started or ended since moved
	// linkWeight only. The rewind below relies on it for links the log
	// suffix does not touch; the full and scratch paths overwrite wcnt.
	for _, l := range n.chLinks {
		if d := n.linkWeight[l] - n.lastLinkWeight[l]; d != 0 {
			n.wcnt[l] += d
			n.lastLinkWeight[l] = n.linkWeight[l]
		}
	}

	// Small populations re-solve from scratch without any log bookkeeping:
	// no levels, no fix entries, no undo records, and only the live links'
	// working state restored. The log is declared untrusted, so the next
	// above-threshold solve rebuilds it with one full pass.
	if n.solvable <= n.scratchThreshold() {
		n.scratchSolves++
		n.logOK = false
		n.levels = n.levels[:0]
		n.fixes = n.fixes[:0]
		n.undo = n.undo[:0]
		for _, l := range n.liveLinks {
			n.rem[l] = n.caps[l]
			n.wcnt[l] = n.linkWeight[l]
		}
		for _, eid := range n.active {
			if e := &n.ents[eid]; !e.exempt {
				n.queuePending(eid, e)
			}
		}
		n.unfixed = len(n.unfixedList)
		n.nolog = true
		n.fill()
		n.nolog = false
		n.finishSolve()
		return
	}

	// A burst that changes most of the population (a large redistribution
	// fan-out arriving at once) makes log repair pure overhead: nearly
	// every level would be skipped or reinserted. Solve from scratch and
	// let progressive filling rebuild the log in one pass.
	full := !n.logOK || 2*len(n.chEnts) >= n.solvable
	n.logOK = true // the walk or the fill may drop it again
	if full {
		// Full solve: no trusted log. Start from the raw capacities.
		n.fullSolves++
		n.levels = n.levels[:0]
		n.fixes = n.fixes[:0]
		n.undo = n.undo[:0]
		copy(n.rem, n.caps)
		copy(n.wcnt, n.linkWeight)
		for _, eid := range n.active {
			if e := &n.ents[eid]; !e.exempt {
				n.queuePending(eid, e)
			}
		}
	} else {
		n.incrSolves++
		// Queue the changed entities before the merge walk: events fired
		// during the walk must see them as pending population.
		for _, eid := range n.chEnts {
			e := &n.ents[eid]
			if e.weight > 0 && !e.exempt {
				n.queuePending(eid, e)
			}
		}
		n.mergeReplay()
	}

	// Whatever the walk could not handle goes to progressive filling:
	// entities queued but not fired yet.
	n.unfixed = 0
	for _, eid := range n.unfixedList {
		if n.fixedEp[eid] != n.epoch {
			n.unfixed++
		}
	}
	n.fill()
	n.finishSolve()
}

// finishSolve clears the change tracking every solve path shares.
func (n *Net) finishSolve() {
	for _, l := range n.chLinks {
		n.linkChanged[l] = false
	}
	n.chLinks = n.chLinks[:0]
	for _, eid := range n.chEnts {
		n.ents[eid].changed = false
	}
	n.chEnts = n.chEnts[:0]
	n.pendingCut = noLevel
	if n.selfCheck != nil {
		n.checkDeadlines()
	}
}

// FullSolves, IncrementalSolves and ScratchSolves report how often Solve
// re-solved from scratch with logging, repaired the level log, or took the
// small-population scratch path (diagnostics and tests).
func (n *Net) FullSolves() int        { return n.fullSolves }
func (n *Net) IncrementalSolves() int { return n.incrSolves }
func (n *Net) ScratchSolves() int     { return n.scratchSolves }

// LogRewinds counts merge-replay solves, each of which rewinds the link
// state to its cut level through the undo log; OrphanedLevels counts old
// levels dropped because their recorded bottleneck share went stale
// during the merge walk.
func (n *Net) LogRewinds() int     { return n.rewinds }
func (n *Net) OrphanedLevels() int { return n.orphanLevels }

// queuePending moves a live non-exempt entity into the pending set: it
// must be (re)fixed this solve, by a merge-walk event or by the fill.
// Entities whose cap binds also enter the pending-cap heap.
func (n *Net) queuePending(eid int32, e *entity) {
	if n.solveEp[eid] == n.epoch {
		return
	}
	n.solveEp[eid] = n.epoch
	n.unfixedList = append(n.unfixedList, eid)
	if e.capBinds {
		n.capHeap = append(n.capHeap, capKey{cap: e.cap, eid: eid})
		n.capSiftUp(len(n.capHeap) - 1)
	}
}

// peekCap returns the earliest pending rate-cap event, lazily discarding
// entities already refixed by link events.
func (n *Net) peekCap() (int32, float64) {
	for len(n.capHeap) > 0 {
		top := n.capHeap[0]
		if n.fixedEp[top.eid] != n.epoch {
			return top.eid, top.cap
		}
		last := len(n.capHeap) - 1
		n.capHeap[0] = n.capHeap[last]
		n.capHeap = n.capHeap[:last]
		if last > 0 {
			n.capSiftDown(0)
		}
	}
	return -1, math.Inf(1)
}

func (n *Net) capLess(a, b capKey) bool {
	if a.cap != b.cap {
		return a.cap < b.cap
	}
	return a.eid < b.eid
}

func (n *Net) capSiftUp(i int) {
	h := n.capHeap
	for i > 0 {
		p := (i - 1) / 2
		if !n.capLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (n *Net) capSiftDown(i int) {
	h := n.capHeap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && n.capLess(h[r], h[c]) {
			c = r
		}
		if !n.capLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeReplay rebuilds the level log against the changed population by
// merging two event streams in value order: the old log's levels and the
// pending events of the dirty population (changed links, changed
// entities, and everything orphaned along the way). It works in three
// zones:
//
//  1. Unchecked (below cutLow): provably untouched by any change — below
//     every changed entity's own fix (pendingCut), below every changed
//     link's bottleneck level, and valued strictly below the level-0
//     fair share of every changed link and the binding cap of every
//     changed entity (shares only grow as filling progresses, so the
//     level-0 share is a lower bound on the pending event). Its state is
//     rewound through the undo log: walking the suffix's records
//     backwards leaves every link it drained at its state before the
//     first suffix level that touched it; every other link already holds
//     its cut state, give or take the folded weight drift.
//
//  2. Merge walk: the old suffix is moved aside and replayed level by
//     level. While an old level fires before every pending dirty event,
//     it is either recommitted — the recorded per-link drain when every
//     entry survives, batched link deltas otherwise; entities keep their
//     rates — or, when its bottleneck link went dirty (its
//     recorded share is stale), skipped: its entities join the pending
//     set and their links the dirty set. When a dirty event fires first,
//     a new level is inserted in place — the dirty link's fair share
//     freezing every still-unhandled entity crossing it, or a pending
//     entity's rate cap — and the links it drains become dirty in turn.
//     Dirty links live in a lazy min-heap keyed by (fair share, link
//     id); shares only grow during the replay (every committed level
//     runs at or below the pending minimum), so stale keys are valid
//     lower bounds.
//
//  3. Whatever remains pending after the old log is exhausted is left to
//     progressive filling, which appends to the rebuilt log.
func (n *Net) mergeReplay() {
	capPending := math.Inf(1)
	for _, eid := range n.chEnts {
		e := &n.ents[eid]
		if e.weight == 0 || !e.capBinds {
			continue
		}
		if e.cap < capPending {
			capPending = e.cap
		}
	}
	cutHard := len(n.levels)
	if int(n.pendingCut) < cutHard {
		cutHard = int(n.pendingCut)
	}
	minPend0 := capPending
	for _, l := range n.chLinks {
		if w := n.linkWeight[l]; w > 0 {
			if sh := n.caps[l] / float64(w); sh < minPend0 {
				minPend0 = sh
			}
		}
		// A changed link that saturated in the log bounds the unchecked
		// zone at its own bottleneck level: the recorded share is stale
		// there.
		if bn := int(n.bnLevel[l]); bn < cutHard && n.levels[bn].link == l {
			cutHard = bn
		}
	}
	cutLow := sort.Search(len(n.levels), func(i int) bool {
		return !(n.levels[i].value < minPend0)
	})
	if cutLow > cutHard {
		cutLow = cutHard
	}

	// Rewind to the cut and move the old suffix aside; the walk rebuilds
	// the log in place.
	n.rewinds++
	cutFix, cutUndo := len(n.fixes), len(n.undo)
	if cutLow < len(n.levels) {
		cutFix = int(n.levels[cutLow].fixStart)
		cutUndo = int(n.levels[cutLow].undo)
	}
	for i := len(n.undo) - 1; i >= cutUndo; i-- {
		r := &n.undo[i]
		n.rem[r.link] = r.rem
		n.wcnt[r.link] = n.linkWeight[r.link] - r.used
	}
	if n.selfCheck != nil {
		n.checkRewind(cutLow)
	}
	n.oldLevels = append(n.oldLevels[:0], n.levels[cutLow:]...)
	n.oldFixes = append(n.oldFixes[:0], n.fixes[cutFix:]...)
	n.oldUndo = append(n.oldUndo[:0], n.undo[cutUndo:]...)
	for i := range n.oldLevels {
		n.oldLevels[i].fixStart -= int32(cutFix)
		n.oldLevels[i].undo -= int32(cutUndo)
	}
	n.levels = n.levels[:cutLow]
	n.fixes = n.fixes[:cutFix]
	n.undo = n.undo[:cutUndo]
	cutLow32 := int32(cutLow)

	// Dirty-link heap over the changed links with live weight.
	n.lnHeap = n.lnHeap[:0]
	for _, l := range n.chLinks {
		if n.wcnt[l] > 0 {
			n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
		}
	}
	for i := len(n.lnHeap)/2 - 1; i >= 0; i-- {
		n.lnSiftDown(i)
	}

	for oi := 0; oi < len(n.oldLevels); {
		// Earliest pending link event of the dirty population.
		dShare := math.Inf(1)
		dLink := int32(-1)
		for len(n.lnHeap) > 0 {
			top := n.lnHeap[0]
			if n.wcnt[top.link] == 0 {
				last := len(n.lnHeap) - 1
				n.lnHeap[0] = n.lnHeap[last]
				n.lnHeap = n.lnHeap[:last]
				if last > 0 {
					n.lnSiftDown(0)
				}
				continue
			}
			if cur := n.rem[top.link] / float64(n.wcnt[top.link]); cur != top.share {
				n.lnHeap[0].share = cur
				n.lnSiftDown(0)
				continue
			}
			if !math.IsInf(top.share, 1) {
				dShare, dLink = top.share, top.link
			}
			break
		}
		// Earliest pending rate-cap event.
		capEnt, capVal := n.peekCap()
		minPend := dShare
		if capVal < minPend {
			minPend = capVal
		}
		lv := &n.oldLevels[oi]
		if lv.value < minPend {
			if lv.link >= 0 && n.linkChanged[lv.link] {
				n.skipOldLevel(lv)
			} else {
				undoEnd := len(n.oldUndo)
				if oi+1 < len(n.oldLevels) {
					undoEnd = int(n.oldLevels[oi+1].undo)
				}
				n.commitOldLevel(lv, n.oldUndo[lv.undo:undoEnd])
			}
			oi++
			continue
		}
		// A dirty event fires first: insert it as a new level.
		if capEnt >= 0 && capVal < dShare {
			fixStart, undoStart := n.logMark()
			n.fixMeta(capEnt, capVal)
			n.dirtyFlush(capVal)
			n.levels = append(n.levels, level{link: -1, nfix: 1, fixStart: fixStart, undo: undoStart, value: capVal})
			continue
		}
		share := dShare
		if share < 0 {
			share = 0
		}
		fixStart, undoStart := n.logMark()
		nfix := int32(0)
		for _, ref := range n.linkEnts[dLink] {
			// Eligible: not yet handled this walk and not fixed in the
			// untouched prefix — prefix entities keep their rates, and
			// their consumption already left wcnt, so fixing them again
			// would corrupt both.
			if n.fixedLevel[ref.ent] >= cutLow32 &&
				n.walkEp[ref.ent] != n.epoch && n.fixedEp[ref.ent] != n.epoch {
				n.fixMeta(ref.ent, share)
				nfix++
			}
		}
		if nfix == 0 {
			// Defensive: live weight with no eligible entity would loop
			// forever. Drop the entry and force a full solve next time.
			last := len(n.lnHeap) - 1
			n.lnHeap[0] = n.lnHeap[last]
			n.lnHeap = n.lnHeap[:last]
			if last > 0 {
				n.lnSiftDown(0)
			}
			n.logOK = false
			continue
		}
		n.dirtyFlush(share)
		n.bnLevel[dLink] = int32(len(n.levels))
		n.levels = append(n.levels, level{link: dLink, nfix: nfix, fixStart: fixStart, undo: undoStart, value: share})
	}
}

// logMark returns where the next level's fix entries and undo records
// start.
func (n *Net) logMark() (fixStart, undoStart int32) {
	return int32(len(n.fixes)), int32(len(n.undo))
}

// skipOldLevel drops a level whose recorded bottleneck share went stale:
// its surviving entities join the pending set (their rate must be
// re-derived) and their links the dirty set.
func (n *Net) skipOldLevel(lv *level) {
	n.orphanLevels++
	end := int(lv.fixStart) + int(lv.nfix)
	for fi := int(lv.fixStart); fi < end; fi++ {
		f := &n.oldFixes[fi]
		if n.genByID[f.ent] != f.gen || n.fixedEp[f.ent] == n.epoch {
			continue
		}
		n.queuePending(f.ent, &n.ents[f.ent])
		for _, l := range n.entryLinks(f) {
			if !n.linkChanged[l] {
				n.linkChanged[l] = true
				n.chLinks = append(n.chLinks, l)
				if n.wcnt[l] > 0 {
					n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
					n.lnSiftUp(len(n.lnHeap) - 1)
				}
			}
		}
	}
}

// commitOldLevel re-appends a level whose bottleneck is still clean;
// recs are its undo records from the old log. Entries that diverged
// (completed flows, slot reuse, pending or already refixed entities — all
// of which also dirtied their links) are dropped; the survivors keep
// their rates, and only their link consumption is flushed. Clean links
// receive exactly the delta of the old trajectory, so their fair-share
// evolution stays bit-identical. When every entry survives, the level's
// per-link weights are the ones its records hold, and the level drains
// its links straight from them: the same single multiply-subtract per
// distinct link that flushLevel performs, hence the same bits.
func (n *Net) commitOldLevel(lv *level, recs []undoRec) {
	start, end := int(lv.fixStart), int(lv.fixStart)+int(lv.nfix)
	intact := lv.nfix > 0
	for fi := start; intact && fi < end; fi++ {
		intact = n.survives(&n.oldFixes[fi])
	}
	fixStart, undoStart := n.logMark()
	idx := int32(len(n.levels))
	nfix := int32(0)
	if intact {
		for _, f := range n.oldFixes[start:end] {
			n.walkEp[f.ent] = n.epoch
			n.fixedLevel[f.ent] = idx
		}
		n.fixes = append(n.fixes, n.oldFixes[start:end]...)
		nfix = lv.nfix
		for _, r := range recs {
			n.drain(r.link, r.w, lv.value, false)
		}
	} else {
		for fi := start; fi < end; fi++ {
			f := &n.oldFixes[fi]
			if !n.survives(f) {
				continue
			}
			n.walkEp[f.ent] = n.epoch
			n.fixedLevel[f.ent] = idx
			n.fixes = append(n.fixes, *f)
			for _, l := range n.entryLinks(f) {
				if n.wsum[l] == 0 {
					n.touchedLn = append(n.touchedLn, l)
				}
				n.wsum[l] += f.weight
			}
			nfix++
		}
		if nfix == 0 {
			return
		}
		n.flushLevel(lv.value, false)
	}
	if lv.link >= 0 {
		n.bnLevel[lv.link] = idx
	}
	n.levels = append(n.levels, level{link: lv.link, nfix: nfix, fixStart: fixStart, undo: undoStart, value: lv.value})
}

// survives reports whether an old fix entry still holds. Divergent
// entries drop out: dead or reused slots (gen), entities refixed by an
// inserted event (fixedEp), and pending entities (solveEp — changed or
// orphaned; all of these also dirtied their links, so clean links still
// see the old trajectory's delta).
func (n *Net) survives(f *fixEntry) bool {
	return n.genByID[f.ent] == f.gen &&
		n.fixedEp[f.ent] != n.epoch && n.solveEp[f.ent] != n.epoch
}

// dirtyFlush marks every link touched by an inserted level dirty (its
// trajectory now diverges from the old log) before flushing the level's
// consumption. Newly dirty links enter the heap keyed with their
// pre-flush share — a valid lower bound, since shares only grow.
func (n *Net) dirtyFlush(r float64) {
	for _, l := range n.touchedLn {
		if !n.linkChanged[l] {
			n.linkChanged[l] = true
			n.chLinks = append(n.chLinks, l)
			if n.wcnt[l] > 0 {
				n.lnHeap = append(n.lnHeap, lnKey{share: n.rem[l] / float64(n.wcnt[l]), link: l})
				n.lnSiftUp(len(n.lnHeap) - 1)
			}
		}
	}
	n.flushLevel(r, false)
}

// flushLevel applies one level's accumulated per-link weight at rate r:
// every distinct link gets a single multiply-subtract and weight-count
// decrement regardless of how many entities the level fixed (on the
// hierarchical presets a saturating node link drains its cabinet uplink
// once, not once per receiver). With updateShares set the cached fair
// shares of the touched links are refreshed for the fill's link heap.
func (n *Net) flushLevel(r float64, updateShares bool) {
	for _, l := range n.touchedLn {
		w := n.wsum[l]
		n.wsum[l] = 0
		n.drain(l, w, r, updateShares)
	}
	n.touchedLn = n.touchedLn[:0]
}

// drain removes weight w fixed at rate r from link l, first logging the
// link's prior state as an undo record unless in nolog mode.
func (n *Net) drain(l, w int32, r float64, updateShares bool) {
	if !n.nolog {
		n.undo = append(n.undo, undoRec{link: l, w: w, used: n.linkWeight[l] - n.wcnt[l], rem: n.rem[l]})
	}
	n.rem[l] -= float64(w) * r
	if n.rem[l] < 0 {
		n.rem[l] = 0
	}
	if n.wcnt[l] -= w; n.wcnt[l] > 0 && updateShares {
		n.share[l] = n.rem[l] / float64(n.wcnt[l])
	}
}

// fixMeta freezes one entity of the level being built: rate, epoch stamps
// and the fix-log entry, with the link consumption deferred to flushLevel.
// In nolog (small-population) mode the fix log is skipped and the entity is
// marked as absent from it.
func (n *Net) fixMeta(eid int32, rate float64) {
	e := &n.ents[eid]
	e.rate = rate
	n.rates[e.pos] = rate
	n.fixedEp[eid] = n.epoch
	n.bumpDeadline(eid, e)
	if n.nolog {
		n.fixedLevel[eid] = noLevel
	} else {
		n.fixedLevel[eid] = int32(len(n.levels))
		f := fixEntry{ent: eid, gen: e.gen, weight: e.weight}
		if len(e.links) <= maxAggRoute {
			f.nlinks = int8(copy(f.links[:], e.links))
		} else {
			f.nlinks = longRoute
		}
		n.fixes = append(n.fixes, f)
	}
	for _, l := range e.links {
		if n.wsum[l] == 0 {
			n.touchedLn = append(n.touchedLn, l)
		}
		n.wsum[l] += e.weight
	}
	n.unfixed--
}

// applyFix freezes an entity's rate and removes its consumption from the
// working state; only the defensive no-progress path uses it (the level
// fills go through fixMeta + flushLevel).
func (n *Net) applyFix(eid int32, rate float64) {
	e := &n.ents[eid]
	e.rate = rate
	n.rates[e.pos] = rate
	n.bumpDeadline(eid, e)
	n.fixedEp[eid] = n.epoch
	w := float64(e.weight)
	for _, l := range e.links {
		n.rem[l] -= w * rate
		if n.rem[l] < 0 {
			n.rem[l] = 0
		}
		n.wcnt[l] -= e.weight
	}
	n.unfixed--
}

// fill runs weighted progressive filling over the unfixed population,
// appending the levels it discovers to the log. It mirrors the reference solver in
// internal/sim: repeatedly take the smallest pending event — the minimum
// fair share remaining/weight over active links, or the smallest unfixed
// rate cap when lower — freeze the constrained entities, remove their
// consumption (batched per level through flushLevel), repeat. Stragglers
// that no event can fix (infinite-capacity links yield +Inf shares that
// never win the strict minimum test) are frozen at their caps and then
// deterministically at 0, invalidating the log.
func (n *Net) fill() {
	if n.unfixed == 0 {
		return
	}
	// The bottleneck candidate comes from a lazy min-heap of the active
	// links keyed by (cached fair share, link id). Fair shares only grow
	// while filling progresses (every fix runs at or below the current
	// minimum), so a stale heap key is a valid lower bound: the top is
	// re-keyed in place when its cached share moved, and discarded when
	// its link saturated. Ties break on the link id, reproducing the
	// reference solver's ascending-id scan exactly.
	n.lnHeap = n.lnHeap[:0]
	for _, l := range n.liveLinks {
		if n.wcnt[l] > 0 {
			sh := n.rem[l] / float64(n.wcnt[l])
			n.share[l] = sh
			n.lnHeap = append(n.lnHeap, lnKey{share: sh, link: l})
		}
	}
	for i := len(n.lnHeap)/2 - 1; i >= 0; i-- {
		n.lnSiftDown(i)
	}
	solveEp, fixedEp, epoch := n.solveEp, n.fixedEp, n.epoch
	wcnt, shares := n.wcnt, n.share

	for n.unfixed > 0 {
		// Candidate 1: smallest fair share among active links.
		share := math.Inf(1)
		bottleneck := int32(-1)
		for len(n.lnHeap) > 0 {
			top := n.lnHeap[0]
			if wcnt[top.link] == 0 {
				last := len(n.lnHeap) - 1
				n.lnHeap[0] = n.lnHeap[last]
				n.lnHeap = n.lnHeap[:last]
				if last > 0 {
					n.lnSiftDown(0)
				}
				continue
			}
			if cur := shares[top.link]; cur != top.share {
				n.lnHeap[0].share = cur
				n.lnSiftDown(0)
				continue
			}
			// Links with infinite capacity never win the reference
			// solver's strict minimum test; leaving bottleneck unset
			// routes control to the defensive path below.
			if !math.IsInf(top.share, 1) {
				share, bottleneck = top.share, top.link
			}
			break
		}
		// Candidate 2: smallest cap among pending capped entities.
		capEnt, capVal := n.peekCap()
		if capEnt >= 0 && !(capVal < share) {
			capEnt = -1
		}
		switch {
		case capEnt >= 0:
			fixStart, undoStart := n.logMark()
			n.fixMeta(capEnt, capVal)
			n.flushLevel(capVal, true)
			if !n.nolog {
				n.levels = append(n.levels, level{link: -1, nfix: 1, fixStart: fixStart, undo: undoStart, value: capVal})
			}
		case bottleneck >= 0:
			if share < 0 {
				share = 0
			}
			fixStart, undoStart := n.logMark()
			nfix := int32(0)
			for _, ref := range n.linkEnts[bottleneck] {
				if solveEp[ref.ent] == epoch && fixedEp[ref.ent] != epoch {
					n.fixMeta(ref.ent, share)
					nfix++
				}
			}
			n.flushLevel(share, true)
			if !n.nolog {
				n.bnLevel[bottleneck] = int32(len(n.levels))
				n.levels = append(n.levels, level{link: bottleneck, nfix: nfix, fixStart: fixStart, undo: undoStart, value: share})
			}
		default:
			// Defensive no-progress path (mirrors the reference solver):
			// freeze the remaining capped entities at their caps, anything
			// left at 0, and drop the log — these events are not ordered
			// levels a later replay could trust.
			for {
				eid, c := n.peekCap()
				if eid < 0 {
					break
				}
				n.applyFix(eid, c)
			}
			if n.unfixed > 0 {
				for _, eid := range n.unfixedList {
					if fixedEp[eid] != epoch {
						n.applyFix(eid, 0)
					}
				}
			}
			n.logOK = false
			return
		}
	}
}

// lnKey is one link-heap entry: the link's fair share at key time (a
// lower bound on its current share) with the link id as tie-break.
type lnKey struct {
	share float64
	link  int32
}

func (n *Net) lnLess(a, b lnKey) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	return a.link < b.link
}

func (n *Net) lnSiftDown(i int) {
	h := n.lnHeap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && n.lnLess(h[r], h[c]) {
			c = r
		}
		if !n.lnLess(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (n *Net) lnSiftUp(i int) {
	h := n.lnHeap
	for i > 0 {
		p := (i - 1) / 2
		if !n.lnLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func resizeF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
