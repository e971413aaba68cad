package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/simdag"
	"repro/rats"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"serve-small", "plan-replay", "plan-alloc"}

// config is one scheduler configuration — cluster, strategy, allocator,
// fast profile — in both forms the benchmark drives: the public
// rats.Scheduler, and the internal per-layer options the traced pass
// calls stage by stage. Both must yield bit-identical schedules; the
// traced pass checks that on every job.
type config struct {
	cluster   *rats.Cluster
	pc        *platform.Cluster
	strategy  rats.Strategy
	allocator rats.Allocator
	sched     *rats.Scheduler
	rctx      *rats.Context    // pooled library context, one per cluster
	mc        *core.MapContext // stage-by-stage mapping context, one per cluster

	allocOpts alloc.Options
	mapOpts   core.Options
	simOpts   simdag.Options
}

// job is one input DAG under one configuration.
type job struct {
	id      int
	cfg     *config
	dag     *rats.DAG  // built; what ScheduleIn schedules
	g       *dag.Graph // decoded copy: output checks and the traced pass
	dagJSON []byte     // the DAG's wire form, as ratsd decodes it
	body    []byte     // full ratsd request (serve-small only)
}

// workload is the generated input set of one run.
type workload struct {
	name string
	jobs []*job
}

// clusterSet hands out one rats.Cluster, platform.Cluster, library
// context and stage-by-stage mapping context per cluster name, so all
// configurations on a cluster share scratch the way ratsd's context pool
// does.
type clusterSet map[string]*config

func (cs clusterSet) base(name string) (*config, error) {
	if c, ok := cs[name]; ok {
		return c, nil
	}
	cl, err := rats.ClusterByName(name)
	if err != nil {
		return nil, err
	}
	pc, err := platform.ByName(name)
	if err != nil {
		return nil, err
	}
	rctx, err := rats.NewContext(cl)
	if err != nil {
		return nil, err
	}
	c := &config{cluster: cl, pc: pc, rctx: rctx, mc: core.NewMapContext(pc)}
	cs[name] = c
	return c, nil
}

// coreStrategy and allocMethod translate the public enums into the
// internal ones, as rats.New does.
var (
	coreStrategy = map[rats.Strategy]core.Strategy{
		rats.Baseline: core.StrategyNone, rats.Delta: core.StrategyDelta, rats.TimeCost: core.StrategyTimeCost,
	}
	allocMethod = map[rats.Allocator]alloc.Method{rats.HCPA: alloc.HCPA, rats.CPA: alloc.CPA, rats.MCPA: alloc.MCPA}
)

// newConfig builds the configuration for (cluster, strategy, allocator)
// under the fast profile, mirroring what rats.New sets for ProfileFast.
func (cs clusterSet) newConfig(cluster string, st rats.Strategy, al rats.Allocator) (*config, error) {
	base, err := cs.base(cluster)
	if err != nil {
		return nil, err
	}
	c := *base
	c.strategy, c.allocator = st, al
	c.sched = rats.New(rats.WithCluster(c.cluster), rats.WithStrategy(st), rats.WithAllocator(al))
	c.allocOpts = alloc.DefaultOptions()
	c.allocOpts.Method = allocMethod[al]
	c.mapOpts = core.DefaultFast(coreStrategy[st])
	c.simOpts = simdag.Options{ScratchThreshold: core.FastScratchThreshold}
	return &c, nil
}

// newJob builds d, keeps its wire form and decodes a private graph copy
// from it, exactly as a service would receive it.
func newJob(id int, c *config, d *rats.DAG, withBody bool) (*job, error) {
	if err := d.Build(); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", d.Name, err)
	}
	var wire struct {
		Graph *dag.Graph `json:"graph"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", d.Name, err)
	}
	wire.Graph.Normalize()
	if err := wire.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	j := &job{id: id, cfg: c, dag: d, g: wire.Graph, dagJSON: raw}
	if withBody {
		j.body, err = json.Marshal(serve.ScheduleRequest{
			Cluster:   c.cluster.Name(),
			Strategy:  c.strategy.String(),
			Allocator: c.allocator.String(),
			DAG:       raw,
		})
		if err != nil {
			return nil, err
		}
	}
	return j, nil
}

// shapes is the fixed daggen shape grid the random DAGs are stratified
// over (width × regularity, at density 0.35), so that a seed changes which
// graphs are drawn but not the mix of shapes. Density is held at one
// moderate value because it sets the replay cost: at 0.8 a single DAG
// ranges 50–300 ms, which no affordable set size averages out.
var shapes = func() (out []rats.RandomSpec) {
	for _, w := range []float64{0.2, 0.5, 0.8} {
		for _, r := range []float64{0.2, 0.8} {
			out = append(out, rats.RandomSpec{Width: w, Regularity: r, Density: 0.35})
		}
	}
	return out
}()

// buildWorkload generates the named workload's inputs from seed. The
// program under test sees only these generated inputs.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	cs := clusterSet{}
	w := &workload{name: name}
	add := func(cluster string, st rats.Strategy, al rats.Allocator, d *rats.DAG) error {
		c, err := cs.newConfig(cluster, st, al)
		if err != nil {
			return err
		}
		j, err := newJob(len(w.jobs), c, d, name == "serve-small")
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, j)
		return nil
	}
	switch name {
	case "serve-small":
		// Strassen, FFT-4 and sparse random n=12 DAGs on the two paper
		// clusters under every mapping strategy: servingRounds seeds of each
		// of the 3 × 2 × 3 combinations. The random DAGs' width and
		// layering cycle with the round, not with the seed, so a seed
		// changes which graphs are drawn but not their mix. FFT-8 and random n=20 bodies were
		// tried first and rejected: they put a quarter of the round trip in
		// the pipeline, and this workload exists to load the service layer.
		for round := 0; round < servingRounds; round++ {
			for _, cluster := range []string{"grelon", "grillon"} {
				for _, st := range []rats.Strategy{rats.Baseline, rats.Delta, rats.TimeCost} {
					spec := rats.RandomSpec{
						N: 12, Width: []float64{0.2, 0.5}[round%2], Regularity: 0.5, Density: 0.2,
						Layered: round/2%2 == 0, Jump: 2, Seed: rng.Int63(),
					}
					for _, d := range []*rats.DAG{rats.Strassen(rng.Int63()), rats.FFT(4, rng.Int63()), rats.Random(spec)} {
						if err := add(cluster, st, rats.HCPA, d); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	case "plan-replay":
		// n=100 random DAGs, layered and irregular (jump 2), replayRounds
		// seeds of every shape on the uniform and heterogeneous 512-node
		// clusters.
		for round := 0; round < replayRounds; round++ {
			for _, cluster := range []string{"big512", "big512-het"} {
				for _, layered := range []bool{true, false} {
					for _, spec := range shapes {
						spec.N, spec.Layered, spec.Jump, spec.Seed = 100, layered, 2, rng.Int63()
						if err := add(cluster, rats.TimeCost, rats.HCPA, rats.Random(spec)); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	case "plan-alloc":
		// FFT-32 on big512 and FFT-64 on big1024 under the delta and
		// time-cost strategies, CPA weighted two to one over HCPA: CPA's
		// allocation loop runs longest, which keeps allocation the
		// dominant layer of the workload.
		for _, k := range []struct {
			points  int
			cluster string
			seeds   int // per strategy, for HCPA; CPA gets twice as many
		}{{32, "big512", 12}, {64, "big1024", 1}} {
			for _, st := range []rats.Strategy{rats.Delta, rats.TimeCost} {
				for _, al := range []rats.Allocator{rats.CPA, rats.CPA, rats.HCPA} {
					for i := 0; i < k.seeds; i++ {
						if err := add(k.cluster, st, al, rats.FFT(k.points, rng.Int63())); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// replayRounds is how many seeds of each plan-replay shape, layering and
// cluster the job set holds: 6 × 2 × 2 × 4 = 96 DAGs, about 3 s per pass.
const replayRounds = 4

// servingRounds is how many seeds of each serve-small combination the
// body pool holds: 2 clusters × 3 strategies × 3 kinds × 16 rounds = 288
// distinct request bodies.
const servingRounds = 16
