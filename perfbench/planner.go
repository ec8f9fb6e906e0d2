package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"tofu/internal/models"
)

// plannerParallelism is the search parallelism of the planner workloads:
// one DP worker per CPU the benchmark pins (see benchGOMAXPROCS).
const plannerParallelism = benchGOMAXPROCS

// setupReps is how many times a planner run repeats its set-up; setup_s is
// the median.
const setupReps = 25

// hitShare is the share of a planner run's time spent reading the verified
// plans back through the hit path, after the plans are measured.
const hitShare = 0.25

// plannerSetup prepares a planner workload once: load the expected plans,
// normalize and digest the items, and build each model.
func plannerSetup(cfg runConfig) ([]item, error) {
	if _, err := loadExpected(cfg.expectedPath); err != nil {
		return nil, err
	}
	items, err := plannerItems(cfg.workload)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if _, err := models.Build(it.Req.Model); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the calling OS thread's CPU time, to the nanosecond
// (getrusage counts threads in scheduler ticks).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// timeRead reads a plan back through the hit path after a collection and
// returns the read's CPU time on its locked thread. The read is
// single-threaded and nothing else runs, so that is its latency without
// the host's preemptions and steal, which otherwise make a planner's read
// tail a measure of the host.
func timeRead(it item, body []byte) (time.Duration, error) {
	runtime.GC()
	// No collection starts inside the read either, so its time is the
	// read's own work, not a share of collection assists.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	err := verifyPlan(it, body)
	return threadCPU() - start, err
}

// perItem collects one planner item's samples.
type perItem struct {
	op, hit   samples // ms
	traced    samples // ms, traced runs only
	iterSec   float64
	peakBytes int64
}

// runPlanner runs paper-flat or cluster-search: a single closed-loop caller
// plans every item once per round, in a seeded order, each plan from a cold
// pricing cache. An untraced run does so for the first 1-hitShare of the run
// time and then reads the verified plans back through the hit path.
func runPlanner(cfg runConfig) (*report, error) {
	rep := newReport()
	var items []item
	var setups samples
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if items, err = plannerSetup(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", setups.median())
	fmt.Fprintf(cfg.out, "setup %s\n", setups.summary("s"))

	stats := make([]perItem, len(items))
	bodies := make([][]byte, len(items))
	o := planOpts{par: plannerParallelism, simulate: true}
	// Every plan starts after a collection, so the garbage of the item
	// before it (which the seed's order decides) does not land in its
	// time.
	op := func(i int) {
		it := items[i]
		runtime.GC()
		out, err := producePlan(it, o)
		if err == nil {
			err = cfg.exp.check(it.Digest, out.body)
		}
		rep.tally.record(err)
		if err != nil {
			return
		}
		st := &stats[i]
		st.op = append(st.op, msOf(out.dur))
		st.iterSec, st.peakBytes = out.iterSec, out.peakBytes
		bodies[i] = out.body
	}
	leds := make([]*ledger, len(items))
	for i := range leds {
		leds[i] = newLedger()
	}
	tracedOp := func(i int) {
		it := items[i]
		runtime.GC()
		out, err := tracedPlan(it, o, leds[i])
		if err == nil {
			err = cfg.exp.check(it.Digest, out.body)
		}
		rep.tally.record(err)
		if err == nil {
			stats[i].traced = append(stats[i].traced, msOf(out.dur))
		}
	}

	// Warm-up: one plan of each item, verified but not timed.
	for i := range items {
		op(i)
	}
	for i := range stats {
		stats[i].op = nil
	}

	rng := rand.New(rand.NewPCG(cfg.seed, 0x726f756e64)) // "round"
	planPhase := cfg.seconds
	if !cfg.trace {
		planPhase = time.Duration(float64(cfg.seconds) * (1 - hitShare))
	}
	usage := startUsage()
	start := time.Now()
	rounds := 0
	for time.Since(start) < planPhase || rounds == 0 {
		for _, i := range rng.Perm(len(items)) {
			if !cfg.trace {
				op(i)
				continue
			}
			// Traced runs interleave one untraced and one traced plan of
			// each item, alternating which goes first.
			if rounds%2 == 0 {
				op(i)
				tracedOp(i)
			} else {
				tracedOp(i)
				op(i)
			}
		}
		rounds++
	}
	wall := time.Since(start)
	cpu, allocMiB, ticks := usage.stop()
	unstolen := ticks.unstolen()

	// The hit path: outside the measured plan phase, each verified plan is
	// read back for an equal share of the remaining wall time, collections
	// included, in seeded rounds.
	if !cfg.trace {
		share := (cfg.seconds - time.Since(start)) / time.Duration(len(items))
		spent := make([]time.Duration, len(items))
		for more := true; more; {
			more = false
			for _, i := range rng.Perm(len(items)) {
				if bodies[i] == nil || (len(stats[i].hit) > 0 && spent[i] >= share) {
					continue
				}
				readStart := time.Now()
				d, err := timeRead(items[i], bodies[i])
				spent[i] += time.Since(readStart)
				rep.tally.record(err)
				if err != nil {
					bodies[i] = nil
					continue
				}
				stats[i].hit = append(stats[i].hit, msOf(d))
				more = true
			}
		}
	}

	ops := 0
	var opMed, hitMed, iters, peaks, overhead []float64
	for i, st := range stats {
		ops += len(st.op)
		row := fmt.Sprintf("item %-40s plan %s", items[i].Name, st.op.summary("ms"))
		if len(st.hit) > 0 {
			row += "; hit " + st.hit.summary("ms")
		}
		fmt.Fprintln(cfg.out, row)
		if len(st.op) == 0 || (!cfg.trace && len(st.hit) == 0) {
			return nil, fmt.Errorf("%s: no verified plans (%v)", items[i].Name, rep.tally.reasons)
		}
		opMed = append(opMed, st.op.median())
		hitMed = append(hitMed, st.hit.median())
		iters = append(iters, st.iterSec)
		peaks = append(peaks, float64(st.peakBytes)/(1<<30))
		if cfg.trace && len(st.traced) > 0 {
			fmt.Fprintf(cfg.out, "item %-40s traced %s\n", items[i].Name, st.traced.summary("ms"))
			fmt.Fprintf(cfg.out, "item %-40s ledger %s\n", items[i].Name, leds[i].row())
			overhead = append(overhead, st.traced.median()-st.op.median())
		}
	}
	fmt.Fprintf(cfg.out, "rounds %d, verified plans %d in %.2fs; %.2f%% of CPU time stolen (%d/%d ticks)\n",
		rounds, ops, wall.Seconds(), 100*(1-unstolen), ticks.stolen, ticks.total)

	rep.set("cpu_ms_per_op", cpu/float64(ops))
	rep.set("alloc_mib_per_op", allocMiB/float64(ops))
	rep.set("plans_per_s", float64(ops)/wall.Seconds()/unstolen)
	rep.set("req_per_s", float64(ops)/wall.Seconds()/unstolen)
	rep.set("plan_ms", geomean(opMed)*unstolen)
	rep.set("miss_ms_p50", geomean(opMed)*unstolen)
	// The tails are taken over the items' medians, the slowest item's
	// typical time: a within-item tail of a run's few dozen plans follows
	// the host's bursts, and spread past the bound from run to run.
	rep.set("miss_ms_p90", samples(opMed).quantile(0.90)*unstolen)
	rep.set("hit_ms_p50", geomean(hitMed))
	rep.set("hit_ms_p99", samples(hitMed).quantile(0.99))
	rep.set("sim_iter_s", geomean(iters))
	rep.set("peak_mem_gib", geomean(peaks))
	if cfg.trace {
		led := newLedger()
		for _, l := range leds {
			led.merge(l)
		}
		rep.setLedger(led)
		rep.set("trace.overhead_ms", samples(overhead).mean())
		fmt.Fprintf(cfg.out, "traced plans %d: pricing cache hit %v\n", led.ops, led.pricing())
	}
	return rep, nil
}
