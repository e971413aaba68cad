package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// answer is a job's deterministic library answer, recorded by the
// reference pass before any timing.
type answer struct {
	ok       bool
	makespan float64
	estimate float64
	work     float64
	wire     []byte // the rats.result/v1 document (serve-small only)
}

// referencePass schedules every job once through the library path
// (Scheduler.ScheduleIn on the pooled context), checks each answer and
// records it. It doubles as the warm-up of the library side and yields
// the workload's schedule-quality figures.
func referencePass(w *workload, keepWire bool) ([]answer, int) {
	ans := make([]answer, len(w.jobs))
	var chk checker
	failed := 0
	for _, j := range w.jobs {
		res, err := j.cfg.sched.ScheduleIn(j.cfg.rctx, j.dag)
		if err == nil {
			err = chk.check(j.g, j.cfg.cluster.Procs(), res.Makespan, res.Placements)
		}
		var wire []byte
		if err == nil && keepWire {
			wire, err = json.Marshal(res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s job %d (%s): %v\n", w.name, j.id, j.dag.Name, err)
			failed++
			continue
		}
		ans[j.id] = answer{ok: true, makespan: res.Makespan, estimate: res.Estimate, work: res.TotalWork, wire: wire}
	}
	return ans, failed
}

// qualityGeo returns the geometric means of the replayed makespan and of
// the total work over the jobs answered correctly.
func qualityGeo(ans []answer) (makespan, work float64) {
	var ms, wk []float64
	for _, a := range ans {
		if a.ok {
			ms = append(ms, a.makespan)
			wk = append(wk, a.work)
		}
	}
	return geomean(ms), geomean(wk)
}

// planLoop drives Scheduler.ScheduleIn from one goroutine over the job set
// in a seeded order (a fresh permutation per pass) for dur. Every answer
// is checked and must equal the reference answer exactly.
func planLoop(w *workload, ans []answer, dur time.Duration, seed int64) loopResult {
	rng := rand.New(rand.NewSource(seed))
	order, next := rng.Perm(len(w.jobs)), 0
	var chk checker
	return closedLoop(1, dur, func(int) (int, time.Duration, bool) {
		if next == len(order) {
			order, next = rng.Perm(len(w.jobs)), 0
		}
		j := w.jobs[order[next]]
		next++
		t0 := time.Now()
		res, err := j.cfg.sched.ScheduleIn(j.cfg.rctx, j.dag)
		lat := time.Since(t0)
		a := ans[j.id]
		return j.id, lat, err == nil && a.ok && res.Makespan == a.makespan && res.TotalWork == a.work &&
			chk.check(j.g, j.cfg.cluster.Procs(), res.Makespan, res.Placements) == nil
	})
}
