// Command perfbench is the repository's benchmark. It generates a seeded
// workload, measures the scheduler on it for a fixed time and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload plan-replay --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it runs the separate traced measurement and reports the
// per-layer metrics. --steady N re-runs every workload N times in each of
// two rounds and prints each end-to-end metric's spread and the drift of
// its median between the rounds against its bound; --selftest checks
// that the deterministic figures repeat exactly and that a held-out seed
// runs clean. README.md records why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 7

// serveWarmup is the untimed closed-loop period before a serve-small
// measurement, so connections and the server's context pool are warm. Its
// clients draw from seed+warmupSeedOffset, a sequence apart from the
// measured one.
const (
	serveWarmup      = time.Second
	warmupSeedOffset = 1 << 32
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-small, plan-replay or plan-alloc")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	steady := flag.Int("steady", 0, "run every workload (or only --workload) this many times in each of two rounds, seeds seed, seed+1, ..., and report spreads and drifts")
	selftest := flag.Bool("selftest", false, "check that deterministic figures repeat and a held-out seed runs clean")
	flag.Parse()

	switch {
	case *steady > 0:
		secs := 0 // BENCHMARK.json's run_seconds unless --seconds is given
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seconds" {
				secs = *seconds
			}
		})
		os.Exit(steadiness(*steady, *seed, secs, *name))
	case *selftest:
		os.Exit(selfTest(*seed))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = tracedRun(*name, *seed, dur)
	} else {
		rep, err = untracedRun(*name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env is a set-up workload: its inputs and, for serve-small, the server.
type env struct {
	w   *workload
	srv *server
}

func (e *env) close() error {
	if e.srv != nil {
		return e.srv.close()
	}
	return nil
}

// setUp generates the workload's inputs, builds its schedulers and pooled
// contexts and, for serve-small, starts the server and its clients. It
// does so setupReps times, each from a collected heap, keeps the last and
// returns the median time.
func setUp(name string, seed int64) (*env, float64, error) {
	var times []float64
	var e *env
	for r := 0; r < setupReps; r++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		w, err := buildWorkload(name, seed)
		if err != nil {
			return nil, 0, err
		}
		e = &env{w: w}
		if name == "serve-small" {
			if e.srv, err = startServer(); err != nil {
				return nil, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// measure runs the workload's untraced closed loop for dur and returns it
// with the duplicate share (serve-small only).
func measure(e *env, ans []answer, dur time.Duration, seed int64, record bool) (loopResult, [][]served, float64) {
	if e.srv == nil {
		return planLoop(e.w, ans, dur, seed), nil, 0
	}
	return serveLoop(e.srv, e.w, ans, dur, seed, record)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(name string, seed int64, dur time.Duration) (rep *report, err error) {
	e, setupS, err := setUp(name, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ans, failed := referencePass(e.w, e.srv != nil)
	if e.srv != nil {
		measure(e, ans, serveWarmup, seed+warmupSeedOffset, false)
	}
	res, _, dup := measure(e, ans, dur, seed, false)
	if e.srv != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, duplicate share %.3f\n", name, res.attempted, dup)
	}
	_, rss := rusage()
	mk, wk := qualityGeo(ans)
	rep = &report{Attempted: len(ans) + res.attempted, Failed: failed + res.failed, Metrics: map[string]metric{}}
	rep.Correct = rep.Failed == 0
	// Throughput is the median over chunks of one job set's worth of
	// requests (on plan-*, exactly one pass over the set). Latency is over
	// every request on serve-small; on plan-* it is over the job set, each
	// job counted once at the median of its repeats, so the figure does not
	// depend on which jobs a burst of machine contention happened to hit.
	rep.set("sched_per_s", "1/s", res.chunkedRate(len(e.w.jobs)))
	lat := res.latencies()
	if e.srv == nil {
		lat = res.jobMedians()
	}
	rep.set("latency_p50_ms", "ms", percentile(lat, 0.50))
	rep.set("latency_p90_ms", "ms", percentile(lat, 0.90))
	rep.set("cpu_ms_per_sched", "ms", res.cpuMsPerSched())
	rep.set("ok_share", "share", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
	rep.set("setup_s", "s", setupS)
	rep.set("rss_peak_mb", "MiB", rss)
	rep.set("makespan_geo_s", "s", mk)
	rep.set("work_geo_cpu_s", "cpu_s", wk)
	return rep, nil
}

// tracedRun measures the per-layer metrics: an untraced half-run for the
// reference rate and the diagnostics, a traced half-run, a traced pass
// over every job, and two counting passes that must agree exactly.
func tracedRun(name string, seed int64, dur time.Duration) (rep *report, err error) {
	e, _, err := setUp(name, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	isServe := e.srv != nil
	steal := newStealMeter()
	machine0 := machineMs()
	ans, failed := referencePass(e.w, isServe)
	if isServe {
		measure(e, ans, serveWarmup, seed+warmupSeedOffset, false)
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	untraced, _, _ := measure(e, ans, dur/2, seed, false)
	runtime.ReadMemStats(&gc1)
	attempted, failed := len(ans)+untraced.attempted, failed+untraced.failed

	var traced loopResult
	var recs [][]served
	passDur := dur / 2
	if isServe {
		traced, recs, _ = measure(e, ans, dur/2, seed+1, true)
		attempted, failed = attempted+traced.attempted, failed+traced.failed
		passDur = 0 // one pass over the bodies times decode, encode and the facade
	}
	tr, err := tracedPass(e.w, passDur)
	if err != nil {
		return nil, err
	}
	c1, err := countPass(e.w)
	if err != nil {
		return nil, err
	}
	c2, err := countPass(e.w)
	if err != nil {
		return nil, err
	}
	repeat := sameCounts(c1, c2)
	if !repeat {
		fmt.Fprintf(os.Stderr, "perfbench: %s: two counting passes disagree\n", name)
	}
	for i, a := range ans {
		if a.ok && math.Float64bits(a.makespan) != math.Float64bits(c1.makespan[i]) {
			repeat = false
			fmt.Fprintf(os.Stderr, "perfbench: %s job %d: traced makespan differs from the reference pass\n", name, i)
		}
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	rep = &report{Attempted: attempted + len(e.w.jobs), Failed: failed, Metrics: map[string]metric{}}
	rep.Correct = failed == 0 && repeat
	layerMetrics(rep, e.w, tr, c2, recs)

	// Diagnostics of the untraced half, to explain a noisy run.
	lat := untraced.latencies()
	rep.set("diag.latency_p99_ms", "ms", percentile(lat, 0.99))
	rep.set("diag.latency_p99_samples", "count", float64(len(lat)))
	rep.set("diag.steal_pct", "%", steal.pct())
	rep.set("diag.machine_ms", "ms", (machine0+machineMs())/2)
	rep.set("diag.gc_cycles", "count", float64(gc1.NumGC-gc0.NumGC))
	rep.set("diag.gc_pause_ms", "ms", ms(time.Duration(gc1.PauseTotalNs-gc0.PauseTotalNs)))
	// Tracing overhead compares one operation traced and untraced: on
	// serve-small the closed loop's rate with and without keeping every
	// response's record, on plan-* ScheduleIn's time inside the traced pass
	// (the schedule_in span) against the same job's in the untraced loop,
	// as the median over jobs of the ratio of the two per-job medians.
	if isServe {
		n := len(e.w.jobs)
		rep.set("diag.trace_overhead_pct", "%", 100*(untraced.chunkedRate(n)/traced.chunkedRate(n)-1))
	} else {
		rep.set("diag.trace_overhead_pct", "%", 100*(traceRatio(tr, untraced, len(e.w.jobs))-1))
	}
	return rep, nil
}

// traceRatio returns, over the jobs run both ways, the median of each
// job's median schedule_in span in the traced pass over its median
// ScheduleIn latency in the untraced loop r.
func traceRatio(tr *tracer, r loopResult, jobs int) float64 {
	traced := map[int][]float64{}
	for _, s := range tr.spans {
		if s.Name == "schedule_in" {
			traced[s.Req%jobs] = append(traced[s.Req%jobs], ms(time.Duration(s.End-s.Start)))
		}
	}
	untraced := r.byJob()
	var ratios []float64
	for job, t := range traced {
		if u := untraced[job]; len(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	return median(ratios)
}
