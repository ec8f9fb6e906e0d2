package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tofu/internal/service"
)

// recordExpected recomputes every plan the workloads can request and writes
// expected.json. Each plan is produced along independent paths that must
// agree byte for byte before its hash is written: search parallelism 1 and
// 2, traced and untraced, the cache-free service.ComputePlan, and for the
// hierarchical planner items the exhaustive oracles.
func recordExpected(path string, out io.Writer) error {
	plans := map[string]expectedPlan{}
	for _, w := range []string{"paper-flat", "cluster-search"} {
		items, err := plannerItems(w)
		if err != nil {
			return err
		}
		for _, it := range items {
			e, err := recordPlan(it, true, w == "cluster-search")
			if err != nil {
				return err
			}
			plans[it.Digest] = e
			fmt.Fprintf(out, "%-16s %-48s %s %8d bytes\n", w, it.Name, e.SHA256[:16], e.Bytes)
		}
	}
	// Every seed's pool holds the same requests, in another order.
	pool, err := servePool(1)
	if err != nil {
		return err
	}
	for _, it := range pool {
		e, err := recordPlan(it, false, false)
		if err != nil {
			return err
		}
		plans[it.Digest] = e
	}
	fmt.Fprintf(out, "serve pool: %d requests\n", len(pool))

	data, err := json.MarshalIndent(expected{Plans: plans}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// recordPlan produces one item's plan along every path and returns its
// expected entry once they all agree. planner items are also re-produced
// at the other parallelism untraced; oracle adds the exhaustive searches.
func recordPlan(it item, planner, oracle bool) (expectedPlan, error) {
	ref, err := producePlan(it, planOpts{par: 1, simulate: true})
	if err != nil {
		return expectedPlan{}, fmt.Errorf("%s: %w", it.Name, err)
	}
	type path struct {
		name string
		body func() ([]byte, error)
	}
	untraced := func(o planOpts) func() ([]byte, error) {
		return func() ([]byte, error) {
			p, err := producePlan(it, o)
			return p.body, err
		}
	}
	paths := []path{
		{"traced, parallelism 2", func() ([]byte, error) {
			p, err := tracedPlan(it, planOpts{par: 2, simulate: true}, newLedger())
			return p.body, err
		}},
		{"service.ComputePlan, parallelism 2", func() ([]byte, error) { return service.ComputePlan(it.Req, 2) }},
	}
	if planner {
		paths = append(paths, path{"untraced, parallelism 2", untraced(planOpts{par: 2, simulate: true})})
	}
	if oracle {
		paths = append(paths, path{"exhaustive oracle", untraced(planOpts{par: 2, exhaustive: true})})
	}
	for _, p := range paths {
		body, err := p.body()
		if err != nil {
			return expectedPlan{}, fmt.Errorf("%s (%s): %w", it.Name, p.name, err)
		}
		if !bytes.Equal(body, ref.body) {
			return expectedPlan{}, fmt.Errorf("%s: %s plan differs from the untraced parallelism-1 plan", it.Name, p.name)
		}
	}
	if err := verifyPlan(it, ref.body); err != nil {
		return expectedPlan{}, fmt.Errorf("%s: %w", it.Name, err)
	}
	return expectedPlan{
		Name:      it.Name,
		SHA256:    sha256Hex(ref.body),
		Bytes:     len(ref.body),
		IterSec:   ref.iterSec,
		PeakBytes: ref.peakBytes,
	}, nil
}
