// Command perfbench is the repository's benchmark. It runs one named
// workload against the planner and serving layers, checks every plan it
// receives against the expected bytes in expected.json, and prints
// human-readable rows followed by one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer ledger instead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-flat --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 30    # steadiness report
//	bash perfbench/run.sh --record                    # re-record expected.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchGOMAXPROCS pins the Go scheduler to the two CPUs the workloads are
// sized for, so runs on larger hosts use the same load.
const benchGOMAXPROCS = 2

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"paper-flat":     runPlanner,
	"cluster-search": runPlanner,
	"serve-mixed":    runServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig is one run's settings.
type runConfig struct {
	workload     string
	seed         uint64
	seconds      time.Duration
	trace        bool
	expectedPath string
	exp          *expected
	workdir      string    // scratch space for the serve workload's stores
	out          io.Writer // human-readable rows
}

// report is one run's outcome: the operation tally and metric values.
type report struct {
	tally  *tally
	values map[string]float64
}

func newReport() *report {
	return &report{tally: &tally{}, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setLedger reports the per-op means of the layers a traced run's ledger
// recorded.
func (r *report) setLedger(l *ledger) {
	for _, m := range perLayer {
		if _, ok := l.sum[m.name]; ok {
			r.set(m.name, l.perOp(m.name))
		}
	}
	r.set("partition.price_cache_hit_ratio", l.pricing().value())
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported is the metric set a run reports.
func reported(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// resultOf selects the run's metrics: the end-to-end set untraced, the
// per-layer set traced. A missing or non-finite end-to-end value is an
// error; a per-layer value a workload does not produce reads 0.
func resultOf(rep *report, traced bool) (result, error) {
	list := reported(traced)
	res := result{Metrics: make(map[string]metricValue, len(list))}
	if !traced {
		rep.set("verified_share", rep.tally.verifiedShare())
	}
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				return result{}, fmt.Errorf("metric %s was not measured", m.name)
			}
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	res.Attempted, res.Failed = rep.tally.counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// usage measures the process CPU time (user+system, getrusage), Go heap
// allocation and the CPU ticks the hypervisor stole over an interval.
type usage struct {
	cpu   time.Duration
	alloc uint64
	ticks cpuTicks
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: processCPU(), alloc: ms.TotalAlloc, ticks: readCPUTicks()}
}

// stop returns the CPU milliseconds, allocated MiB and CPU ticks since
// start.
func (u usage) stop() (cpuMs, allocMiB float64, ticks cpuTicks) {
	cpu := processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t := readCPUTicks()
	ticks = cpuTicks{stolen: t.stolen - u.ticks.stolen, total: t.total - u.ticks.total}
	return msOf(cpu - u.cpu), float64(ms.TotalAlloc-u.alloc) / (1 << 20), ticks
}

// cpuTicks counts all CPUs' ticks and those of them the hypervisor stole
// (/proc/stat; zero where it is unavailable).
type cpuTicks struct{ stolen, total uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	var t cpuTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.stolen = v
		}
	}
	return t
}

func (t cpuTicks) add(o cpuTicks) cpuTicks {
	return cpuTicks{stolen: t.stolen + o.stolen, total: t.total + o.total}
}

// unstolen is the share of CPU time the hypervisor left the guest. The
// host this benchmark was tuned on steals in bursts that double a run's
// elapsed times while its CPU time holds, so elapsed times and rates are
// reported with the stolen share removed: times are multiplied by
// unstolen, rates divided by it.
func (t cpuTicks) unstolen() float64 {
	if t.total == 0 {
		return 1
	}
	return 1 - float64(t.stolen)/float64(t.total)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	expectedPath := fs.String("expected", "expected.json", "expected plans file")
	benchJSON := fs.String("benchmark-json", "../BENCHMARK.json", "benchmark definition (bounds for --steady)")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for the serve workload's plan stores")
	steady := fs.Int("steady", 0, "run every workload this many times, interleaved, and report each metric's spread")
	record := fs.Bool("record", false, "re-record the expected plans file, cross-checking every plan")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(benchGOMAXPROCS)

	switch {
	case *record:
		if err := recordExpected(*expectedPath, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	case *steady > 0:
		if err := runSteady(args, *steady, *seed, *benchJSON, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: steady:", err)
			return 1
		}
		return 0
	}

	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	exp, err := loadExpected(*expectedPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, expectedPath: *expectedPath, exp: exp, workdir: *workdir, out: stdout,
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %ds, trace %v, GOMAXPROCS %d\n",
		cfg.workload, cfg.seed, *seconds, cfg.trace, runtime.GOMAXPROCS(0))
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := resultOf(rep, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, m := range reported(cfg.trace) {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, why := range rep.tally.reasons {
		fmt.Fprintln(stdout, "failure:", why)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
