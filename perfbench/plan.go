package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"tofu/internal/coarsen"
	"tofu/internal/core"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/sim"
)

// planOpts selects how one plan is produced.
type planOpts struct {
	par      int            // search parallelism
	simulate bool           // run core.Simulate (the planner op); the service does not
	cache    *dp.PriceCache // pricing cache; nil means a fresh, cold one
	// exhaustive swaps the branch-and-bound searches for their exhaustive
	// oracles (recursive.Options.TopoExhaustive, core.PipelineSpec.Exhaustive).
	exhaustive bool
}

// planOut is one produced plan.
type planOut struct {
	body      []byte
	iterSec   float64 // simulated seconds per iteration (0 unless simulated)
	peakBytes int64   // per-GPU peak memory of the plan
	dur       time.Duration
}

// coreOptions maps an item onto the options a one-shot caller would pass,
// with the benchmark-owned cache, stats and trace root attached.
func coreOptions(it item, o planOpts, st *recursive.SearchStats, root *obs.Span) core.Options {
	opts := it.Req.PipelineOptions()
	opts.Search.Parallelism = o.par
	opts.Search.Cache = o.cache
	if opts.Search.Cache == nil {
		opts.Search.Cache = dp.NewPriceCache()
	}
	opts.Search.Stats = st
	opts.Trace = root
	if o.exhaustive {
		if opts.Pipeline != nil {
			opts.Pipeline.Exhaustive = true
		} else {
			opts.Search.TopoExhaustive = true
		}
	}
	return opts
}

// producePlan is the untraced planner op: build, core.Partition, optionally
// core.Simulate, and WriteJSON with the request digest embedded.
func producePlan(it item, o planOpts) (planOut, error) {
	start := time.Now()
	m, err := models.Build(it.Req.Model)
	if err != nil {
		return planOut{}, err
	}
	opts := coreOptions(it, o, &recursive.SearchStats{}, nil)
	s, err := core.Partition(m.G, it.Req.Workers, opts)
	if err != nil {
		return planOut{}, err
	}
	out := planOut{peakBytes: s.Memory.PeakBytes}
	if o.simulate {
		out.iterSec = core.Simulate(s, m.Batch, opts, sim.RunOptions{}).IterSeconds
	}
	s.Plan.Digest = it.Digest
	var buf bytes.Buffer
	if err := s.Plan.WriteJSON(&buf); err != nil {
		return planOut{}, err
	}
	out.dur = time.Since(start)
	out.body = buf.Bytes()
	return out, nil
}

// verifyPlan is the stored-plan read path a cache or store hit pays:
// plan.ReadJSONExpect over the bytes against the request digest.
func verifyPlan(it item, body []byte) error {
	_, err := plan.ReadJSONExpect(bytes.NewReader(body), it.Digest)
	return err
}

// ledger accumulates per-layer values over traced ops: sums, reported as
// per-op means, plus the op count.
type ledger struct {
	ops int
	sum map[string]float64
}

func newLedger() *ledger { return &ledger{sum: make(map[string]float64)} }

func (l *ledger) add(key string, v float64) { l.sum[key] += v }

// perOp is the mean of key over the recorded ops.
func (l *ledger) perOp(key string) float64 {
	if l.ops == 0 {
		return 0
	}
	return l.sum[key] / float64(l.ops)
}

// pricing is the pricing cache's hits over its lookups across the ops.
func (l *ledger) pricing() ratio {
	return ratio{int64(l.sum["partition.price_hits"]), int64(l.sum["partition.price_lookups"])}
}

func (l *ledger) merge(o *ledger) {
	l.ops += o.ops
	for k, v := range o.sum {
		l.sum[k] += v
	}
}

// rowKeys are the per-op times the per-item ledger row shows.
var rowKeys = []string{
	"models.build_ms", "coarsen.coarsen_ms", "core.partition_ms", "recursive.coarsen_ms",
	"dp.sweep_ms", "partition.pricing_ms", "graphgen.generate_ms", "memplan.plan_ms",
	"sim.run_ms", "plan.write_json_ms", "plan.verify_ms",
}

// row renders the per-op means of rowKeys.
func (l *ledger) row() string {
	var b strings.Builder
	for _, k := range rowKeys {
		fmt.Fprintf(&b, " %s=%.3g", strings.TrimSuffix(k, "_ms"), l.perOp(k))
	}
	return fmt.Sprintf("(ms per op, n=%d)%s", l.ops, b.String())
}

// meter times one call into a layer and counts the heap bytes it
// allocates. ReadMemStats stops the world, so it is read outside the timed
// interval on both ends.
type meter struct {
	start time.Time
	alloc uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{start: time.Now(), alloc: ms.TotalAlloc}
}

// stop adds the elapsed milliseconds to timeKey and, when allocKey is set,
// the MiB allocated to allocKey, and returns the elapsed time.
func (m meter) stop(l *ledger, timeKey, allocKey string) time.Duration {
	d := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.add(timeKey, msOf(d))
	if allocKey != "" {
		l.add(allocKey, float64(ms.TotalAlloc-m.alloc)/(1<<20))
	}
	return d
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spanTotals sums span durations and counts spans by name over a tree.
func spanTotals(root *obs.Span, dur map[string]time.Duration, count map[string]int) {
	for _, c := range root.Children() {
		dur[c.Name()] += c.Duration()
		count[c.Name()]++
		spanTotals(c, dur, count)
	}
}

// tracedPlan is the planner op with the per-layer ledger: every call into a
// layer is timed from outside, the search's sub-phases come from a
// benchmark-owned span root attached to core.Options.Trace, and the search
// effort from benchmark-owned stats and pricing cache. It also runs probe
// calls — the core-level coarsen, graphgen and memplan that core.Partition
// makes internally — which are timed but excluded from the op time.
func tracedPlan(it item, o planOpts, l *ledger) (planOut, error) {
	if o.cache == nil {
		o.cache = dp.NewPriceCache()
	}
	h0, m0 := o.cache.Stats()
	var opDur time.Duration

	mt := startMeter()
	m, err := models.Build(it.Req.Model)
	if err != nil {
		return planOut{}, err
	}
	opDur += mt.stop(l, "models.build_ms", "models.alloc_mib")

	mt = startMeter()
	co, err := coarsen.Coarsen(m.G)
	if err != nil {
		return planOut{}, err
	}
	mt.stop(l, "coarsen.coarsen_ms", "coarsen.alloc_mib")
	l.add("coarsen.groups", float64(len(co.Groups)))
	l.add("coarsen.max_frontier", float64(co.MaxFrontier()))

	root := obs.NewSpan("perfbench")
	var st recursive.SearchStats
	opts := coreOptions(it, o, &st, root)
	mt = startMeter()
	s, err := core.Partition(m.G, it.Req.Workers, opts)
	if err != nil {
		return planOut{}, err
	}
	opDur += mt.stop(l, "core.partition_ms", "core.alloc_mib")
	root.End()

	dur, count := map[string]time.Duration{}, map[string]int{}
	spanTotals(root, dur, count)
	l.add("recursive.coarsen_ms", msOf(dur["coarsen"]))
	l.add("dp.solve_ms", msOf(dur["dp.solve"]))
	l.add("dp.solve_calls", float64(count["dp.solve"]))
	l.add("dp.sweep_ms", msOf(dur["dp.solve"]-dur["dp.pricing"]))
	l.add("partition.pricing_ms", msOf(dur["dp.pricing"]))
	h1, m1 := o.cache.Stats()
	l.add("partition.price_hits", float64(h1-h0))
	l.add("partition.price_lookups", float64(h1-h0+m1-m0))
	if h := s.Hybrid; h != nil {
		l.add("hybrid.partition_ms", msOf(s.SearchTime))
		l.add("hybrid.segments", float64(h.Stats.Segments))
		l.add("hybrid.expanded", float64(h.Stats.Expanded))
		l.add("hybrid.pruned", float64(h.Stats.Pruned))
		l.add("hybrid.dp_solves", float64(h.Stats.DPSolves))
	} else {
		l.add("recursive.partition_ms", msOf(s.SearchTime))
		l.add("recursive.orderings", float64(st.Orderings))
		l.add("recursive.expanded", float64(st.Expanded))
		l.add("recursive.pruned", float64(st.Pruned))
		l.add("recursive.dp_solves", float64(st.DPSolves))
		l.add("recursive.dp_solves_flat", float64(st.FlatDPSolves))
	}
	if err := probeGenerate(m.G, s, opts, l); err != nil {
		return planOut{}, fmt.Errorf("%s: %w", it.Name, err)
	}

	out := planOut{peakBytes: s.Memory.PeakBytes}
	if o.simulate {
		mt = startMeter()
		out.iterSec = core.Simulate(s, m.Batch, opts, sim.RunOptions{}).IterSeconds
		opDur += mt.stop(l, "sim.run_ms", "sim.alloc_mib")
	}

	s.Plan.Digest = it.Digest
	var buf bytes.Buffer
	mt = startMeter()
	if err := s.Plan.WriteJSON(&buf); err != nil {
		return planOut{}, err
	}
	opDur += mt.stop(l, "plan.write_json_ms", "plan.alloc_mib")
	l.add("plan.json_bytes", float64(buf.Len()))

	mt = startMeter()
	err = verifyPlan(it, buf.Bytes())
	mt.stop(l, "plan.verify_ms", "plan.verify_alloc_mib")
	if err != nil {
		return planOut{}, err
	}
	l.ops++
	out.body, out.dur = buf.Bytes(), opDur
	return out, nil
}

// probeGenerate repeats the graph generation and memory planning that
// core.Partition ran for the chosen plan (per stage for pipeline plans) and
// checks the footprint matches the one the summary reports.
func probeGenerate(g *graph.Graph, s *core.Summary, opts core.Options, l *ledger) error {
	type part struct {
		g *graph.Graph
		p *plan.Plan
	}
	parts := []part{{g, s.Plan}}
	if s.Hybrid != nil {
		parts = parts[:0]
		for _, stg := range s.Hybrid.Stages {
			parts = append(parts, part{stg.G, stg.Plan})
		}
	}
	var peak int64
	for _, pt := range parts {
		mt := startMeter()
		sh, err := graphgen.Generate(pt.g, pt.p, opts.Gen)
		if err != nil {
			return err
		}
		mt.stop(l, "graphgen.generate_ms", "graphgen.alloc_mib")
		mt = startMeter()
		rep := memplan.Plan(sh, opts.Mem)
		mt.stop(l, "memplan.plan_ms", "memplan.alloc_mib")
		peak = max(peak, rep.PeakBytes)
	}
	if peak != s.Memory.PeakBytes {
		return fmt.Errorf("probe memplan peak %d bytes, core.Partition reported %d", peak, s.Memory.PeakBytes)
	}
	return nil
}
