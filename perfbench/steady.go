package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is a seed kept out of the runs that tuned this benchmark, so
// a claim can be rechecked on inputs nobody looked at while making it.
const heldOutSeed = 7919

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRounds is how many rounds the steadiness mode runs, one after the
// other, so that a drift of the machine between them shows as a moved
// median.
const steadyRounds = 2

// steadiness runs every workload of BENCHMARK.json runs times in fresh
// processes, seeds seed, seed+1, ..., in each of steadyRounds rounds run one
// after the other. Per round it prints each end-to-end metric's median,
// quartiles (as Python's statistics.quantiles gives them) and spread — the
// quartile distance over the median — against its bound, plus the CPU
// steal of every run and the machine speed before it (machineMs). It then
// compares the rounds' medians: the drift is the change of the last
// round's median from the first's, as a share of the first, signed so that
// positive is worse. A non-empty only restricts it to that workload. It
// returns 1 if a run failed, if any spread (setup_s's too) reaches its
// bound, or if any drift, in either direction, exceeds it.
func steadiness(runs int, seed int64, seconds int, only string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: steadiness mode runs from the repository root:", err)
		return 1
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	// values[round][workload][metric] are the runs' figures.
	values := make([]map[string]map[string][]float64, steadyRounds)
	for round := range values {
		values[round] = map[string]map[string][]float64{}
		for _, wl := range spec.Workloads {
			if only != "" && wl.Name != only {
				continue
			}
			vs := map[string][]float64{}
			values[round][wl.Name] = vs
			for i := 0; i < runs; i++ {
				s := seed + int64(i)
				machine := machineMs()
				steal := newStealMeter()
				t0 := time.Now()
				out, err := exec.Command(self, "--workload", wl.Name, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0").Output()
				var rep report
				if err == nil {
					lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
					err = json.Unmarshal(lines[len(lines)-1], &rep)
				}
				if err != nil || !rep.Correct {
					fmt.Printf("round %d %-12s seed %-4d FAILED (err %v, correct %v)\n", round+1, wl.Name, s, err, rep.Correct)
					status = 1
					continue
				}
				fmt.Printf("round %d %-12s seed %-4d %5.1fs steal %5.2f%% machine %5.1fms", round+1, wl.Name, s,
					time.Since(t0).Seconds(), steal.pct(), machine)
				for _, m := range spec.EndToEnd {
					v := rep.Metrics[m.Name].Value
					vs[m.Name] = append(vs[m.Name], v)
					fmt.Printf("  %s=%.4g", m.Name, v)
				}
				fmt.Println()
			}
		}
	}

	fmt.Printf("\n%-12s %-18s %7s", "workload", "metric", "bound")
	for round := range values {
		fmt.Printf(" %12s %8s", fmt.Sprintf("median %d", round+1), fmt.Sprintf("spread %d", round+1))
	}
	fmt.Printf(" %8s  %s\n", "drift", "verdict")
	for _, wl := range spec.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		for _, m := range spec.EndToEnd {
			fmt.Printf("%-12s %-18s %7.3f", wl.Name, m.Name, m.Bound)
			var verdicts []string
			worst := 0.0
			var medians []float64
			for _, round := range values {
				v := round[wl.Name][m.Name]
				if len(v) < 2 {
					fmt.Printf(" %12s %8s", "-", "-")
					medians = append(medians, math.NaN())
					continue
				}
				q := quartiles(v)
				spread := 0.0
				if q[1] != 0 {
					spread = (q[2] - q[0]) / q[1]
				}
				worst = max(worst, spread)
				medians = append(medians, q[1])
				fmt.Printf(" %12.6g %8.4f", q[1], spread)
			}
			switch {
			case worst >= m.Bound:
				verdicts, status = append(verdicts, "SPREAD TOO WIDE"), 1
			case worst >= m.Bound/3:
				verdicts = append(verdicts, "spread over a third")
			}
			first, last := medians[0], medians[len(medians)-1]
			drift := math.NaN()
			if first != 0 && !math.IsNaN(first) && !math.IsNaN(last) {
				drift = (last - first) / first
				if m.Better == "higher" {
					drift = (first - last) / first
				}
			}
			switch {
			case math.IsNaN(drift):
				verdicts, status = append(verdicts, "NO MEDIAN"), 1
			case math.Abs(drift) > m.Bound:
				verdicts, status = append(verdicts, "MEDIANS DRIFT"), 1
			case math.Abs(drift) > m.Bound/3:
				verdicts = append(verdicts, "drift over a third")
			}
			if len(verdicts) == 0 {
				verdicts = append(verdicts, "ok")
			}
			fmt.Printf(" %+8.4f  %s\n", drift, strings.Join(verdicts, ", "))
		}
	}
	return status
}

// figures are a workload's deterministic outputs for one seed.
type figures struct {
	counts         countResult
	makespan, work float64
}

func deterministicFigures(name string, seed int64) (figures, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return figures{}, err
	}
	ans, failed := referencePass(w, false)
	if failed > 0 {
		return figures{}, fmt.Errorf("%d jobs failed their checks", failed)
	}
	c, err := countPass(w)
	if err != nil {
		return figures{}, err
	}
	mk, wk := qualityGeo(ans)
	return figures{counts: c, makespan: mk, work: wk}, nil
}

// selfTest checks, per workload, that two independent traced passes on
// seed give exactly equal engine counters, makespan_geo_s and
// work_geo_cpu_s, and that the held-out seed runs clean through both the
// untraced and the traced measurement.
func selfTest(seed int64) int {
	status := 0
	report := func(name, what string, err error) {
		verdict := "ok"
		if err != nil {
			verdict, status = "FAIL: "+err.Error(), 1
		}
		fmt.Printf("%-12s %-44s %s\n", name, what, verdict)
	}
	for _, name := range workloadNames {
		a, err := deterministicFigures(name, seed)
		if err == nil {
			var b figures
			b, err = deterministicFigures(name, seed)
			if err == nil && (!sameCounts(a.counts, b.counts) || a.makespan != b.makespan || a.work != b.work) {
				err = fmt.Errorf("two passes disagree")
			}
		}
		report(name, fmt.Sprintf("seed %d: counters and quality repeat exactly", seed), err)

		const short = 4 * time.Second
		rep, err := untracedRun(name, heldOutSeed, short)
		if err == nil && (!rep.Correct || rep.Metrics["ok_share"].Value != 1) {
			err = fmt.Errorf("correct %v, ok_share %v", rep.Correct, rep.Metrics["ok_share"].Value)
		}
		report(name, fmt.Sprintf("held-out seed %d: untraced run clean", heldOutSeed), err)
		rep, err = tracedRun(name, heldOutSeed, short)
		if err == nil && !rep.Correct {
			err = fmt.Errorf("traced run not correct")
		}
		report(name, fmt.Sprintf("held-out seed %d: traced run clean", heldOutSeed), err)
	}
	return status
}
