package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"tofu/internal/models"
	"tofu/internal/service"
)

// item is one partition request the benchmark feeds the program: a model on
// a machine, normalized and digested exactly as the service would.
type item struct {
	Name   string
	Req    service.Request // normalized
	Digest string
	Body   []byte // the wire form POSTed to /v1/partition
}

func newItem(cfg models.Config, hw string, pipeline bool) (item, error) {
	wire := service.Request{Model: cfg, HW: hw}
	name := fmt.Sprintf("%s@%s", cfg, hw)
	if pipeline {
		wire.Pipeline = &service.PipelineRequest{}
		name += "+pipeline"
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return item{}, err
	}
	nr, err := wire.Normalize()
	if err != nil {
		return item{}, fmt.Errorf("%s: %w", name, err)
	}
	d, err := nr.Digest()
	if err != nil {
		return item{}, fmt.Errorf("%s: %w", name, err)
	}
	return item{Name: name, Req: nr, Digest: d, Body: body}, nil
}

type itemSpec struct {
	cfg      models.Config
	hw       string
	pipeline bool
}

// plannerSpecs are the fixed items of the two planner workloads.
var plannerSpecs = map[string][]itemSpec{
	// The paper's Table-1 8-GPU models on the default machine.
	"paper-flat": {
		{models.Config{Family: "wresnet", Depth: 152, Width: 10, Batch: 8}, "p2.8xlarge", false},
		{models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128}, "p2.8xlarge", false},
	},
	// The hierarchical searches the CI benchmark rows track.
	"cluster-search": {
		{models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, "cluster-2x4x2x12", false},
		{models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, "cluster-2x4x2x12", true},
		{models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}, "cluster-8x2x8", false},
	},
}

func plannerItems(workload string) ([]item, error) {
	specs, ok := plannerSpecs[workload]
	if !ok {
		return nil, fmt.Errorf("not a planner workload: %q", workload)
	}
	out := make([]item, len(specs))
	for i, s := range specs {
		it, err := newItem(s.cfg, s.hw, s.pipeline)
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// The serve pool: small models of three families at fixed depth, so plan
// sizes within a family are alike and only width and batch vary, each on
// every serve machine. The composition is fixed, so plan quality over the
// pool is the same for every seed; the seed orders it by popularity.
var (
	serveFamilies = []struct {
		family  string
		depth   int
		widths  []int64
		batches []int64
	}{
		{"mlp", 3, []int64{256, 512, 768}, []int64{32, 64, 128}},
		{"rnn", 1, []int64{256, 512, 768}, []int64{32, 64, 128}},
		{"transformer", 1, []int64{128, 256, 384}, []int64{8, 16, 32}},
	}
	serveMachines = []string{"p2.8xlarge", "dgx1", "cluster-2x8", "cluster-4x2x8"}
)

func familyVariants(f int) []models.Config {
	fam := serveFamilies[f]
	var out []models.Config
	for _, w := range fam.widths {
		for _, b := range fam.batches {
			out = append(out, models.Config{Family: fam.family, Depth: fam.depth, Width: w, Batch: b})
		}
	}
	return out
}

// servePool returns the seed's pool, ordered by popularity rank. Rank r
// runs cell r%12, where cell c is family c%3 on machine c%4 (3 and 4 are
// coprime, so the twelve cells cover every pair), and the family's model
// variant r/12 in a seeded order. Every model thus appears on all four
// machines within one block of twelve ranks, so requests share pricing and
// warm starts, and the family and machine at each rank is the same for
// every seed.
func servePool(seed uint64) ([]item, error) {
	rng := rand.New(rand.NewPCG(seed, 0x706f6f6c)) // "pool"
	variants := make([][]models.Config, len(serveFamilies))
	for f := range serveFamilies {
		vs := familyVariants(f)
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		variants[f] = vs
	}
	cells := len(serveFamilies) * len(serveMachines)
	n := len(serveFamilies[0].widths) * len(serveFamilies[0].batches) * cells
	out := make([]item, n)
	for r := 0; r < n; r++ {
		c := r % cells
		f, hw := c%len(serveFamilies), serveMachines[c%len(serveMachines)]
		it, err := newItem(variants[f][r/cells], hw, false)
		if err != nil {
			return nil, err
		}
		out[r] = it
	}
	return out, nil
}

// zipfS is the stream's popularity skew: rank r is requested with
// probability proportional to 1/(r+1)^zipfS. It is an assumption, not fitted
// to any request log: the plain Zipf law, skewed enough that the LRU serves
// most requests and flat enough that the pool's tail is re-requested.
const zipfS = 1.0

// zipfStream draws n pool ranks with the Zipf popularity above, then
// inserts each rank the draw missed once at a seeded position, so every
// epoch searches the whole pool and the set of misses is the same for
// every seed.
func zipfStream(seed uint64, poolSize, n int) []int {
	cdf := make([]float64, poolSize)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = sum
	}
	rng := rand.New(rand.NewPCG(seed, 0x73747265616d)) // "stream"
	out := make([]int, n, n+poolSize)
	drawn := make([]bool, poolSize)
	for i := range out {
		u := rng.Float64() * sum
		out[i] = min(sort.SearchFloat64s(cdf, u), poolSize-1)
		drawn[out[i]] = true
	}
	for r, ok := range drawn {
		if !ok {
			out = slices.Insert(out, rng.IntN(len(out)+1), r)
		}
	}
	return out
}
