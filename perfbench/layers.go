package main

import (
	"fmt"
	"os"
)

// pipelineLayers are the three stages of the scheduling pipeline.
var pipelineLayers = []string{"alloc", "map", "sim"}

// layerMetrics fills the per-layer metrics of a traced run. Times come
// from the spans (and, on serve-small, from the service's per-request
// record); counts come from the counting pass and repeat exactly.
func layerMetrics(rep *report, w *workload, tr *tracer, c countResult, recs [][]served) {
	self := tr.selfTimes()

	// Layer times and shares of the end-to-end request: the pipeline span
	// on plan-*, the client round trip on serve-small, where the service
	// reports its own alloc/map/sim split per request.
	layerMs := map[string][]float64{}
	var e2e float64
	if recs == nil {
		for _, l := range pipelineLayers {
			layerMs[l] = self[l]
		}
		e2e = sum(tr.durations("pipeline"))
	}
	var queue, overhead, batch []float64
	shed, answered := 0, 0
	for _, rs := range recs {
		for _, r := range rs {
			answered++
			if r.env.Status == 429 {
				shed++
			}
			if !r.ok {
				continue
			}
			e := r.env
			layerMs["alloc"] = append(layerMs["alloc"], e.AllocMs)
			layerMs["map"] = append(layerMs["map"], e.MapMs)
			layerMs["sim"] = append(layerMs["sim"], e.SimMs)
			queue = append(queue, e.QueueWaitMs)
			overhead = append(overhead, ms(r.lat)-e.AllocMs-e.MapMs-e.SimMs)
			batch = append(batch, float64(e.BatchSize))
			e2e += ms(r.lat)
		}
	}
	rep.set("serve.queue_wait_ms_p50", "ms", percentile(queue, 0.5))
	rep.set("serve.overhead_ms_p50", "ms", percentile(overhead, 0.5))
	rep.set("serve.batch_size_mean", "count", mean(batch))
	shedShare := 0.0
	if answered > 0 {
		shedShare = float64(shed) / float64(answered)
	}
	rep.set("serve.shed_share", "share", shedShare)

	shares := map[string]float64{}
	for _, l := range pipelineLayers {
		shares[l] = sum(layerMs[l]) / e2e
		rep.set(l+".ms_p50", "ms", percentile(layerMs[l], 0.5))
		rep.set(l+".share", "share", shares[l])
	}
	of := "pipeline time"
	if recs != nil {
		of = "client round trip"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: shares of %s: alloc %.3f, map %.3f, sim %.3f (together %.3f)\n",
		w.name, of, shares["alloc"], shares["map"], shares["sim"], shares["alloc"]+shares["map"]+shares["sim"])

	rep.set("rats.assemble_ms_p50", "ms", percentile(self["schedule_in"], 0.5))
	rep.set("decode.ms_p50", "ms", percentile(self["decode"], 0.5))
	rep.set("encode.ms_p50", "ms", percentile(self["encode"], 0.5))
	for _, l := range []string{"alloc", "map", "sim", "decode", "encode"} {
		a := c.allocs[l]
		if a == nil || a.calls == 0 {
			continue
		}
		rep.set(l+".allocs_per_call", "count", float64(a.mallocs)/float64(a.calls))
		if l == "decode" || l == "encode" {
			rep.set(l+".kb_per_call", "KiB", float64(a.bytes)/1024/float64(a.calls))
		}
	}

	n := float64(len(w.jobs))
	per := func(name string, v uint64) { rep.set(name, "count", float64(v)/n) }
	pct := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	k := c.cnt
	per("alloc.grants_per_sched", k.AllocGrants)
	per("alloc.cone_tasks_per_sched", k.ConeTasks)
	per("alloc.heap_sifts_per_sched", k.HeapSifts)
	per("map.cand_evals_per_sched", k.CandEvals)
	rep.set("map.memo_hit_pct", "%", k.MemoHitPct())
	rep.set("map.dedup_skip_pct", "%", k.DedupSkipPct())
	rep.set("map.align_greedy_pct", "%", pct(k.AlignGreedy, k.AlignExact+k.AlignGreedy))
	rep.set("map.est_gap_pct", "%", 100*(geomean(c.makespan)/geomean(c.estimate)-1))
	per("sim.flows_per_sched", uint64(c.flows))
	per("sim.solves_incremental_per_sched", k.SolvesIncremental)
	per("sim.solves_full_per_sched", k.SolvesFull)
	rep.set("sim.scratch_solve_pct", "%", k.ScratchSolvePct())
	per("sim.orphan_levels_per_sched", k.OrphanLevels)
	per("sim.ck_restores_per_sched", k.CkRestores)
	per("sim.flow_batches_per_sched", k.FlowBatches)
}
