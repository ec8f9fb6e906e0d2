package core

import (
	"strings"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/recursive"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

func TestPartitionEndToEnd(t *testing.T) {
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Partition(m.G, 8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plan.Steps) != 3 {
		t.Fatalf("steps = %d", len(s.Plan.Steps))
	}
	if s.SearchTime <= 0 {
		t.Fatal("no search time recorded")
	}
	if s.Groups <= 0 || s.Vars <= 0 || s.Frontier <= 0 {
		t.Fatalf("coarsening stats missing: %+v", s)
	}
	if s.Memory.PeakBytes <= 0 {
		t.Fatal("no memory report")
	}
	res := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestPartitionWithRestrictedSearch(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Search = recursive.Options{
		Settings: dp.Settings{
			StrategyFilter: func(st partition.Strategy) bool {
				return st.Kind != partition.SplitReduce
			},
		},
	}
	s, err := Partition(m.G, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range s.Plan.Steps {
		for _, st := range step.OpStrategy {
			if st.Kind == partition.SplitReduce {
				t.Fatal("restricted search used output reduction")
			}
		}
	}
}

func TestSimulateWithCustomHW(t *testing.T) {
	m, err := models.MLP(2, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Partition(m.G, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fast := topo.DefaultHW()
	fast.PeakFLOPS *= 10
	tp := topo.FlatTopology(fast)
	opts := DefaultOptions()
	opts.Topology = &tp
	quick := Simulate(s, m.Batch, opts, sim.RunOptions{})
	slow := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if quick.IterSeconds >= slow.IterSeconds {
		t.Fatalf("10x faster GPUs should be faster: %g vs %g", quick.IterSeconds, slow.IterSeconds)
	}
}

func TestSubMachinePlanGetsBlindLayout(t *testing.T) {
	// Partitioning for fewer workers than the machine has GPUs keeps the
	// search topology-blind, but the plan must still be annotated with the
	// cyclic-placement layout: 8 workers on the 2x8 cluster sit 4 per node,
	// so the last recursive step crosses Ethernet and must not be priced at
	// PCIe speed.
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	opts := DefaultOptions()
	opts.Topology = &cl
	s, err := Partition(m.G, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	crossesEthernet := false
	for _, st := range s.Plan.Steps {
		if st.Level == len(cl.Levels)-1 {
			crossesEthernet = true
		}
	}
	if !crossesEthernet {
		t.Fatalf("sub-machine plan never crosses the outermost level: %+v", s.Plan.Steps)
	}
	onCluster := Simulate(s, m.Batch, opts, sim.RunOptions{})
	onFlat := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if onCluster.CommSeconds <= onFlat.CommSeconds {
		t.Fatalf("Ethernet-crossing step priced too fast: %g vs flat %g",
			onCluster.CommSeconds, onFlat.CommSeconds)
	}
}

func TestPartitionValidatesGraph(t *testing.T) {
	m, err := models.MLP(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the graph: break topological order.
	m.G.Nodes[0], m.G.Nodes[len(m.G.Nodes)-1] = m.G.Nodes[len(m.G.Nodes)-1], m.G.Nodes[0]
	if _, err := Partition(m.G, 2, DefaultOptions()); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestPipelineRejectsNonComposingSearch: the joint pipeline search runs the
// full recursive search inside every stage, so search restrictions that only
// make sense for one whole-machine chain are refused, not silently dropped.
func TestPipelineRejectsNonComposingSearch(t *testing.T) {
	m, err := models.MLP(4, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	for _, tc := range []struct {
		name   string
		search recursive.Options
		want   string
	}{
		{"factors", recursive.Options{Factors: []int64{16}}, "explicit factors"},
		{"naive", recursive.Options{TopologyNaive: true}, "naive ordering"},
		{"filter", recursive.Options{Settings: dp.Settings{
			StrategyFilter: func(st partition.Strategy) bool { return st.Kind != partition.SplitReduce },
		}}, "strategy filters"},
	} {
		opts := DefaultOptions()
		opts.Topology = &cl
		opts.Pipeline = &PipelineSpec{}
		opts.Search = tc.search
		_, err := Partition(m.G, int64(cl.NumGPUs()), opts)
		if err == nil || !strings.Contains(err.Error(), "does not compose") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want a %q composition error", tc.name, err, tc.want)
		}
	}
}

// TestSummarySearchSpaceMatchesCoarsen: the Summary's coarsened-graph size
// (reported by the search's own stats on flat and topology-aware searches,
// coarsened in core on the pipeline branch) equals coarsening the graph
// directly.
func TestSummarySearchSpaceMatchesCoarsen(t *testing.T) {
	m, err := models.MLP(4, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster4x2x8Topology()
	topoOpts := DefaultOptions()
	topoOpts.Topology = &cl
	pipeOpts := topoOpts
	pipeOpts.Pipeline = &PipelineSpec{}
	for _, tc := range []struct {
		name string
		k    int64
		opts Options
	}{
		{"flat", 8, DefaultOptions()},
		{"topology", int64(cl.NumGPUs()), topoOpts},
		{"pipeline", int64(cl.NumGPUs()), pipeOpts},
	} {
		s, err := Partition(m.G, tc.k, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.Groups != len(co.Groups) || s.Vars != len(co.Vars) || s.Frontier != co.MaxFrontier() {
			t.Errorf("%s: summary groups/vars/frontier = %d/%d/%d, coarsen gives %d/%d/%d", tc.name,
				s.Groups, s.Vars, s.Frontier, len(co.Groups), len(co.Vars), co.MaxFrontier())
		}
	}
}
