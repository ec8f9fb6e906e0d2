// Command tofu-bench regenerates the paper's evaluation artifacts (Tables
// 1-3, Figures 8-11, ablations) on the simulated 8-GPU machine, and runs
// the partition-search regression benchmarks.
//
// Usage:
//
//	tofu-bench [-exp all|table1|table2|table3|fig8|fig9|fig10|fig11|ablations|crosstopo|orderings]
//	           [-quick] [-flat-budget 20s] [-parallel N]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//	           [-hw <profile>|machine.json]
//
//	tofu-bench -exp serve [-serve-json BENCH_PR4.json] [-store DIR]
//
//	tofu-bench -exp hybrid [-hybrid-json BENCH_PR8.json] [-quick]
//
//	tofu-bench -bench-json BENCH.json [-bench-short] [-bench-baseline BENCH_CI.json]
//
// -exp serve is the closed-loop load generator for the tofu-serve layer: a
// cold request, a 64-wide coalescing burst, and a sustained warm-cache loop
// with latency percentiles, recorded to -serve-json. It fails if warm
// throughput drops below 500 req/s.
//
// The -bench-json form measures the recursive partition search (ns/op,
// bytes/op, allocs/op) plus a short serve loadtest and records the numbers
// as a JSON artifact. With -bench-baseline it compares against a committed
// baseline file and exits non-zero on a >20% ns/op, allocs/op or warm-rps
// regression — the CI gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"tofu/internal/experiments"
	"tofu/internal/topo"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	quick := flag.Bool("quick", false, "trimmed sweeps for a fast look")
	budget := flag.Duration("flat-budget", 20*time.Second,
		"wall-clock budget for the non-recursive DP measurement (Table 1)")
	parallel := flag.Int("parallel", 0,
		"worker goroutines for experiment cells and DP search (0 = GOMAXPROCS, 1 = serial); artifacts are identical either way")
	hwArg := flag.String("hw", "p2.8xlarge",
		"hardware profile name or topology JSON file (see tofu.TopologyProfiles)")
	benchJSON := flag.String("bench-json", "",
		"run the partition-search benchmarks and write ns/op + allocs/op to this JSON file")
	benchShort := flag.Bool("bench-short", false,
		"benchmark the small config set (CI); default is the paper-scale set")
	benchBaseline := flag.String("bench-baseline", "",
		"compare the benchmark run against this baseline JSON; exit non-zero on >20% ns/op or allocs/op regression")
	serveJSON := flag.String("serve-json", "BENCH_PR4.json",
		"where -exp serve records the loadtest numbers")
	hybridJSON := flag.String("hybrid-json", "BENCH_PR8.json",
		"where -exp hybrid records the joint-search effort counters and wall times")
	serveStore := flag.String("store", "",
		"plan store directory for -exp serve: adds the restart loadtest (replica A fills, dies; replica B serves warm) and the warm-start search rows")
	cpuProfile := flag.String("cpuprofile", "",
		"write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "",
		"write a pprof heap profile (after a final GC) to this file at exit")
	flag.Parse()

	// stopProfile is idempotent and runs on every exit path: the fatal
	// helpers below call it before os.Exit, so a failing (e.g. regressing)
	// run — exactly the one worth profiling — still writes a valid profile.
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		var once sync.Once
		stopProfile = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					log.Print(err)
				}
			})
		}
		defer stopProfile()
	}
	// The heap profile follows the same idempotent every-exit-path pattern:
	// a regressing run still leaves a profile to diagnose.
	writeHeapProfile := func() {}
	if *memProfile != "" {
		var once sync.Once
		writeHeapProfile = func() {
			once.Do(func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					log.Print(err)
					return
				}
				runtime.GC() // count only live heap, as `go test -memprofile` does
				if err := pprof.WriteHeapProfile(f); err != nil {
					log.Print(err)
				}
				if err := f.Close(); err != nil {
					log.Print(err)
				}
			})
		}
		defer writeHeapProfile()
	}
	fatal := func(v ...any) {
		writeHeapProfile()
		stopProfile()
		log.Fatal(v...)
	}
	fatalf := func(format string, args ...any) {
		writeHeapProfile()
		stopProfile()
		log.Fatalf(format, args...)
	}

	if *benchJSON != "" {
		if err := runSearchBenchmarks(*benchJSON, *benchShort, *benchBaseline); err != nil {
			fatal(err)
		}
		return
	}

	if *exp == "serve" {
		out, err := runServeExperiment(*serveJSON, *serveStore)
		if err != nil {
			fatalf("serve: %v", err)
		}
		fmt.Println(out)
		return
	}

	if *exp == "hybrid" {
		out, err := runHybridExperiment(*hybridJSON)
		fmt.Print(out)
		if err != nil {
			fatalf("hybrid: %v", err)
		}
		hopts := experiments.Opts{Quick: *quick, FlatBudget: *budget, Parallelism: *parallel}
		htopo, err := topo.ResolveTopology(*hwArg)
		if err != nil {
			fatal(err)
		}
		table, err := experiments.Hybrid(hopts, htopo)
		if err != nil {
			fatalf("hybrid: %v", err)
		}
		fmt.Println(table)
		return
	}

	opts := experiments.Opts{Quick: *quick, FlatBudget: *budget, Parallelism: *parallel}
	tp, err := topo.ResolveTopology(*hwArg)
	if err != nil {
		fatal(err)
	}

	type driver struct {
		name string
		run  func() (string, error)
	}
	drivers := []driver{
		{"table1", func() (string, error) { return experiments.Table1(opts, tp) }},
		{"table2", func() (string, error) { return experiments.Table2(opts) }},
		{"table3", func() (string, error) { return experiments.Table3(opts, tp) }},
		{"fig8", func() (string, error) { return experiments.Figure8(opts, tp) }},
		{"fig9", func() (string, error) { return experiments.Figure9(opts, tp) }},
		{"fig10", func() (string, error) { return experiments.Figure10(opts, tp) }},
		{"fig11", func() (string, error) { return experiments.Figure11(opts) }},
		{"ablations", func() (string, error) { return experiments.Ablations(opts, tp) }},
		{"crosstopo", func() (string, error) { return experiments.CrossTopology(opts, tp) }},
		{"orderings", func() (string, error) { return experiments.Orderings(opts, tp) }},
	}

	ran := false
	for _, d := range drivers {
		if *exp != "all" && *exp != d.name {
			continue
		}
		ran = true
		start := time.Now()
		out, err := d.run()
		if err != nil {
			fatalf("%s: %v", d.name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", d.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
