package simdag

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/gen"
	"repro/internal/moldable"
	"repro/internal/platform"
)

// replayDigest hashes the exact float bits of every replayed start,
// finish and edge-finish time, so two replays share a digest iff they
// are bit-identical.
func replayDigest(r *Result) string {
	h := fnv.New64a()
	var b [8]byte
	wr := func(xs []float64) {
		for _, x := range xs {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0})
	}
	wr(r.Start)
	wr(r.Finish)
	wr(r.EdgeFinish)
	return fmt.Sprintf("%016x", h.Sum64())
}

// replayGoldenCases are the pinned replay scenarios: wide FFT fan-outs on
// big512 (mostly incremental solves), dense random layered graphs on the
// homogeneous and heterogeneous big512 presets (full, incremental and
// scratch solves), and Strassen on grelon-het (small populations, mostly
// scratch solves). want holds one digest per entry of goldenThresholds.
var replayGoldenCases = []struct {
	name    string
	cluster string
	graph   func() *dag.Graph
	method  alloc.Method
	want    [3]string
}{
	{"fft32/big512/cpa", "big512", func() *dag.Graph { return gen.FFT(32, 3) }, alloc.CPA,
		[3]string{"5813993528bd72aa", "5813993528bd72aa", "5813993528bd72aa"}},
	{"fft32/big512/hcpa", "big512", func() *dag.Graph { return gen.FFT(32, 3) }, alloc.HCPA,
		[3]string{"eb86e11135c4e955", "1d991811dc68863e", "1d991811dc68863e"}},
	{"random100/big512", "big512", randomGolden, alloc.HCPA,
		[3]string{"656e0bbce6ea2631", "656e0bbce6ea2631", "a6d8e59981e84e7b"}},
	{"random100/big512-het", "big512-het", randomGolden, alloc.HCPA,
		[3]string{"f678eb5727514ff9", "397166f7452831ef", "134d76b65793bf28"}},
	{"strassen/grelon-het", "grelon-het", func() *dag.Graph { return gen.Strassen(17) }, alloc.HCPA,
		[3]string{"99217d8444104743", "99217d8444104743", "99217d8444104743"}},
}

// goldenThresholds sweeps ScratchThreshold: the default cutoff, the fast
// profile's, and one so high that every solve is a scratch solve.
var goldenThresholds = [3]int{0, 64, 1 << 30}

func randomGolden() *dag.Graph {
	return gen.Random(gen.RandomParams{N: 100, Width: 0.5, Regularity: 0.5, Density: 0.35, Layered: true, Seed: 29})
}

// TestReplayGolden pins the replay's output bits — every Start, Finish and
// EdgeFinish time — on scenarios that exercise the flownet solver's
// scratch, full and incremental solve paths, at each threshold of the
// ScratchThreshold sweep. The digests were recorded before the solver
// moved from stride checkpoints to an undo log.
//
// The sweep is pinned per threshold because the solve regimes agree only
// up to floating-point association: an incremental repair subtracts a
// link's consumption level by level in the old log's grouping, a scratch
// solve in its own, and the two can round differently in the last bit.
// Three of the five scenarios differ across thresholds; the test bounds
// that drift at 1e-12 of the makespan on every replayed time.
func TestReplayGolden(t *testing.T) {
	var solves [3]uint64 // scratch, full, incremental at the default threshold
	for _, c := range replayGoldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cl, err := platform.ByName(c.cluster)
			if err != nil {
				t.Fatal(err)
			}
			g := c.graph()
			costs := moldable.NewCosts(g, cl.PlanSpeedGFlops())
			ao := alloc.DefaultOptions()
			ao.Method = c.method
			a := alloc.Compute(g, costs, cl, ao)
			s := core.Map(g, costs, cl, a, core.DefaultFast(core.StrategyTimeCost))
			var base *Result
			for i, th := range goldenThresholds {
				r, err := ExecuteOpts(g, costs, cl, s, Options{ScratchThreshold: th})
				if err != nil {
					t.Fatal(err)
				}
				if got := replayDigest(r); got != c.want[i] {
					t.Errorf("threshold %d: replay digest = %s, want %s (replayed times changed)", th, got, c.want[i])
				}
				if i == 0 {
					base = r
					solves[0] += r.Counters.SolvesScratch
					solves[1] += r.Counters.SolvesFull
					solves[2] += r.Counters.SolvesIncremental
					continue
				}
				tol := 1e-12 * base.Makespan
				for _, pair := range [][2][]float64{{r.Start, base.Start}, {r.Finish, base.Finish}, {r.EdgeFinish, base.EdgeFinish}} {
					for k := range pair[0] {
						if d := math.Abs(pair[0][k] - pair[1][k]); d > tol {
							t.Fatalf("threshold %d: time %d differs by %g from the default threshold's", th, k, d)
						}
					}
				}
			}
		})
	}
	if solves[0] == 0 || solves[1] == 0 || solves[2] == 0 {
		t.Errorf("golden scenarios must hit every solve path: scratch %d, full %d, incremental %d",
			solves[0], solves[1], solves[2])
	}
}
