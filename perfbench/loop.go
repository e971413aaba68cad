package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// completion is one finished request of a closed loop.
type completion struct {
	at  time.Duration // completion time, since the loop started
	lat time.Duration
	ok  bool
	job int // the job the request carried
}

// loopResult is what a closed loop measured.
type loopResult struct {
	attempted, failed int
	inRun             []completion  // completions inside the run, in completion order
	cpu               time.Duration // process CPU spent inside the run
}

// closedLoop runs clients goroutines, each calling step back to back for
// dur: a client sends its next request only once the previous one has
// been answered. step returns the job it sent, the request's latency and
// whether the answer passed the checks. Requests still in flight at the
// end are waited for and counted as attempted, but only completions
// inside dur are timed.
func closedLoop(clients int, dur time.Duration, step func(client int) (job int, lat time.Duration, ok bool)) loopResult {
	var stop atomic.Bool
	done := make([][]completion, clients)
	var wg sync.WaitGroup
	cpu0, _ := rusage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				job, lat, ok := step(c)
				done[c] = append(done[c], completion{at: time.Since(start), lat: lat, ok: ok, job: job})
			}
		}(c)
	}
	time.Sleep(dur)
	cpu1, _ := rusage()
	stop.Store(true)
	wg.Wait()

	r := loopResult{cpu: cpu1 - cpu0}
	for _, cs := range done {
		for _, c := range cs {
			r.attempted++
			if !c.ok {
				r.failed++
			}
			if c.at <= dur {
				r.inRun = append(r.inRun, c)
			}
		}
	}
	sort.Slice(r.inRun, func(i, j int) bool { return r.inRun[i].at < r.inRun[j].at })
	return r
}

// rate returns completions per second over cs, measured from the
// completion before cs (at from) to the last of cs, so no request is cut
// in half by the interval's edges.
func rate(cs []completion, from time.Duration) float64 {
	if len(cs) == 0 || cs[len(cs)-1].at <= from {
		return 0
	}
	return float64(len(cs)) / (cs[len(cs)-1].at - from).Seconds()
}

// chunkedRate is the median throughput over consecutive chunks of size
// completions. Taking the median over chunks keeps one chunk hit by a
// burst of contention from the machine's other tenants from moving the
// figure.
func (r loopResult) chunkedRate(size int) float64 {
	var rates []float64
	from := time.Duration(0)
	for i := 0; i+size <= len(r.inRun); i += size {
		chunk := r.inRun[i : i+size]
		rates = append(rates, rate(chunk, from))
		from = chunk[len(chunk)-1].at
	}
	if len(rates) == 0 {
		return rate(r.inRun, 0)
	}
	return median(rates)
}

// latencies returns the latency of every completion inside the run, ms.
func (r loopResult) latencies() []float64 {
	out := make([]float64, len(r.inRun))
	for i, c := range r.inRun {
		out[i] = ms(c.lat)
	}
	return out
}

// byJob returns the latencies of each job's requests in the run, ms.
func (r loopResult) byJob() map[int][]float64 {
	out := map[int][]float64{}
	for _, c := range r.inRun {
		out[c.job] = append(out[c.job], ms(c.lat))
	}
	return out
}

// jobMedians returns, per job, the median latency of its requests in the
// run, ms.
func (r loopResult) jobMedians() []float64 {
	byJob := r.byJob()
	out := make([]float64, 0, len(byJob))
	for _, v := range byJob {
		out = append(out, median(v))
	}
	return out
}

// cpuMsPerSched is process CPU per completed schedule over the run.
func (r loopResult) cpuMsPerSched() float64 {
	if len(r.inRun) == 0 {
		return 0
	}
	return ms(r.cpu) / float64(len(r.inRun))
}
