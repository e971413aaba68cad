package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/simdag"
	"repro/rats"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one request share Req; Parent indexes the enclosing span (-1
// for a request's root).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(req, parent int, name string, start, end int64) {
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent, Start: start, End: end})
}

// selfTimes returns, per layer name, the self time of each of its spans:
// the span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(time.Duration(s.End-s.Start-child[i])))
	}
	return out
}

// durations returns the wall duration of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageOut is what one stage-by-stage run of the pipeline produced.
type stageOut struct {
	sched *core.Schedule
	sim   *simdag.Result
	cnt   obs.Counters
}

// stages runs job j through the pipeline layer by layer, with the calls
// rats.Scheduler.ScheduleIn makes internally, each wrapped by around:
// alloc (moldable.NewCosts + alloc.Compute), map (core.MapContext.Map)
// and sim (simdag.ExecuteOpts).
func stages(j *job, around func(layer string, call func())) (stageOut, error) {
	c, g := j.cfg, j.g
	var out stageOut
	var costs *moldable.Costs
	var allocation []int
	around("alloc", func() {
		costs = moldable.NewCosts(g, c.pc.PlanSpeedGFlops())
		ao := c.allocOpts
		ao.Obs = &out.cnt
		allocation = alloc.Compute(g, costs, c.pc, ao)
	})
	around("map", func() { out.sched = c.mc.Map(g, costs, allocation, c.mapOpts) })
	var err error
	around("sim", func() { out.sim, err = simdag.ExecuteOpts(g, costs, c.pc, out.sched, c.simOpts) })
	if err != nil {
		return out, fmt.Errorf("%s: %w", j.dag.Name, err)
	}
	out.cnt.Add(&out.sched.Counters)
	out.cnt.Add(&out.sim.Counters)
	return out, nil
}

// facade runs the library path, then the encode and decode layers, each
// wrapped by around.
func facade(j *job, around func(layer string, call func())) (*rats.Result, error) {
	var res *rats.Result
	var err error
	around("schedule_in", func() { res, err = j.cfg.sched.ScheduleIn(j.cfg.rctx, j.dag) })
	if err != nil {
		return nil, err
	}
	around("encode", func() { _, err = res.MarshalJSON() })
	if err != nil {
		return nil, err
	}
	around("decode", func() { err = rats.NewDAG().UnmarshalJSON(j.dagJSON) })
	return res, err
}

// tracedPass drives every job (at least once, then again until dur has
// passed) stage by stage and through the facade, recording one span per
// layer call under a per-request root.
func tracedPass(w *workload, dur time.Duration) (*tracer, error) {
	tr := newTracer()
	start := time.Now()
	for req := 0; req < len(w.jobs) || time.Since(start) < dur; req++ {
		j := w.jobs[req%len(w.jobs)]
		root := tr.begin(req, -1, "request")
		pipe := tr.begin(req, root, "pipeline")
		if _, err := stages(j, func(layer string, call func()) {
			s := tr.begin(req, pipe, layer)
			call()
			tr.end(s)
		}); err != nil {
			return nil, err
		}
		tr.end(pipe)
		var si int
		res, err := facade(j, func(layer string, call func()) {
			s := tr.begin(req, root, layer)
			call()
			tr.end(s)
			if layer == "schedule_in" {
				si = s
			}
		})
		if err != nil {
			return nil, err
		}
		// Result.Phases, measured inside ScheduleIn, become the facade
		// span's children, so its self time is the facade's own share:
		// the result assembly around the three phases.
		at := tr.spans[si].Start
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"facade.alloc", res.Phases.Alloc}, {"facade.map", res.Phases.Map}, {"facade.sim", res.Phases.Sim}} {
			tr.add(req, si, ph.name, at, at+int64(ph.d))
			at += int64(ph.d)
		}
		tr.end(root)
	}
	return tr, nil
}

// layerAllocs is the heap traffic of one layer's calls.
type layerAllocs struct {
	calls          int
	mallocs, bytes uint64
}

// countResult is the deterministic output of a counting pass.
type countResult struct {
	cnt      obs.Counters
	flows    int
	makespan []float64
	work     []float64
	estimate []float64
	allocs   map[string]*layerAllocs
}

// countPass runs every job once stage by stage and through the facade,
// measuring each layer's heap allocations and summing the engine
// counters. It fails if the stage-by-stage pipeline does not reproduce
// ScheduleIn's makespan bit for bit, or their counters differ.
func countPass(w *workload) (countResult, error) {
	cr := countResult{allocs: map[string]*layerAllocs{}}
	var m0, m1 runtime.MemStats
	around := func(layer string, call func()) {
		la := cr.allocs[layer]
		if la == nil {
			la = &layerAllocs{}
			cr.allocs[layer] = la
		}
		runtime.ReadMemStats(&m0)
		call()
		runtime.ReadMemStats(&m1)
		la.calls++
		la.mallocs += m1.Mallocs - m0.Mallocs
		la.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	for _, j := range w.jobs {
		st, err := stages(j, around)
		if err != nil {
			return cr, err
		}
		res, err := facade(j, around)
		if err != nil {
			return cr, err
		}
		if math.Float64bits(st.sim.Makespan) != math.Float64bits(res.Makespan) {
			return cr, fmt.Errorf("%s: stage-by-stage makespan %v differs from ScheduleIn's %v",
				j.dag.Name, st.sim.Makespan, res.Makespan)
		}
		if st.cnt != res.Counters {
			return cr, fmt.Errorf("%s: stage-by-stage counters differ from ScheduleIn's", j.dag.Name)
		}
		cr.cnt.Add(&st.cnt)
		cr.flows += st.sim.FlowCount
		cr.makespan = append(cr.makespan, st.sim.Makespan)
		cr.work = append(cr.work, st.sched.TotalWork)
		cr.estimate = append(cr.estimate, st.sched.EstMakespan())
	}
	return cr, nil
}

// sameCounts reports whether two counting passes agree exactly.
func sameCounts(a, b countResult) bool {
	if a.cnt != b.cnt || a.flows != b.flows || len(a.makespan) != len(b.makespan) {
		return false
	}
	for i := range a.makespan {
		if a.makespan[i] != b.makespan[i] || a.work[i] != b.work[i] || a.estimate[i] != b.estimate[i] {
			return false
		}
	}
	return true
}
