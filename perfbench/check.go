package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/rats"
)

// checker validates one schedule answer. It keeps its scratch between
// calls, so each client goroutine owns one.
type checker struct {
	taskAt []int      // task ID → index into placements, -1 if none
	seen   []int      // processor → last placement index that used it
	byProc [][]span1d // processor → booked intervals
}

type span1d struct{ start, finish float64 }

// check verifies: a finite positive makespan; exactly one placement per
// real task; processor ids in [0, procs) with no duplicate inside a
// placement; every task starting no earlier than each real predecessor
// finishes; and no processor booked by two overlapping tasks.
func (c *checker) check(g *dag.Graph, procs int, makespan float64, pls []rats.Placement) error {
	if math.IsNaN(makespan) || math.IsInf(makespan, 0) || makespan <= 0 {
		return fmt.Errorf("makespan %v is not finite and positive", makespan)
	}
	if len(pls) != g.RealTaskCount() {
		return fmt.Errorf("%d placements for %d real tasks", len(pls), g.RealTaskCount())
	}
	c.taskAt = resize(c.taskAt, g.N(), -1)
	c.seen = resize(c.seen, procs, -1)
	if len(c.byProc) < procs {
		c.byProc = make([][]span1d, procs)
	}
	for p := 0; p < procs; p++ {
		c.byProc[p] = c.byProc[p][:0]
	}
	for i, pl := range pls {
		if pl.Task < 0 || pl.Task >= g.N() || g.Tasks[pl.Task].Virtual {
			return fmt.Errorf("placement %d names task %d, not a real task", i, pl.Task)
		}
		if c.taskAt[pl.Task] >= 0 {
			return fmt.Errorf("task %d placed twice", pl.Task)
		}
		c.taskAt[pl.Task] = i
		if len(pl.Procs) == 0 || !(pl.Finish >= pl.Start) || pl.Start < 0 {
			return fmt.Errorf("task %d: %d processors over [%v, %v]", pl.Task, len(pl.Procs), pl.Start, pl.Finish)
		}
		for _, p := range pl.Procs {
			if p < 0 || p >= procs {
				return fmt.Errorf("task %d: processor %d outside [0, %d)", pl.Task, p, procs)
			}
			if c.seen[p] == i {
				return fmt.Errorf("task %d: processor %d listed twice", pl.Task, p)
			}
			c.seen[p] = i
			c.byProc[p] = append(c.byProc[p], span1d{pl.Start, pl.Finish})
		}
	}
	eps := 1e-9 * makespan
	for _, e := range g.Edges {
		from, to := c.taskAt[e.From], c.taskAt[e.To]
		if from < 0 || to < 0 {
			continue // virtual connector
		}
		if pls[to].Start < pls[from].Finish-eps {
			return fmt.Errorf("task %d starts at %v before predecessor %d finishes at %v",
				e.To, pls[to].Start, e.From, pls[from].Finish)
		}
	}
	for p := 0; p < procs; p++ {
		iv := c.byProc[p]
		sort.Slice(iv, func(a, b int) bool { return iv[a].start < iv[b].start })
		for k := 1; k < len(iv); k++ {
			if iv[k].start < iv[k-1].finish-eps {
				return fmt.Errorf("processor %d booked by overlapping tasks [%v, %v] and [%v, %v]",
					p, iv[k-1].start, iv[k-1].finish, iv[k].start, iv[k].finish)
			}
		}
	}
	return nil
}

// resize returns s with length n, every element set to fill.
func resize(s []int, n, fill int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}
