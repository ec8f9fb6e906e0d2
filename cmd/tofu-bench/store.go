package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/service"
	"tofu/internal/store"
	"tofu/internal/topo"
)

// storeRestartSpeedupFloor is the acceptance floor for the persistent plan
// store: after a daemon restart, warm (store-served) throughput must beat
// the cold single-search rate by at least this factor.
const storeRestartSpeedupFloor = 10

// warmStartStepFactor is the acceptance floor for neighbor-seeded search:
// a warm-started branch-and-bound must expand at most half the nodes of a
// cold one on the gated fleet profiles.
const warmStartStepFactor = 2

// ServeStoreResult measures the persistent plan store across a simulated
// daemon restart: replica A computes a plan into a shared store directory
// and dies; replica B boots on the same directory and serves the identical
// bytes from disk — no search — under a closed loop.
type ServeStoreResult struct {
	Model string `json:"model"`

	// ColdMs is replica A's first-request latency (a real search plus the
	// write-through); ColdRPS is the rate that implies for a store-less
	// restart, 1000/ColdMs.
	ColdMs  float64 `json:"cold_ms"`
	ColdRPS float64 `json:"cold_rps"`

	// Replica B's closed loop after the restart: every request is served
	// from the store (first touch) or the LRU it promoted into.
	WarmConcurrency int     `json:"warm_concurrency"`
	WarmDurationSec float64 `json:"warm_duration_sec"`
	WarmRequests    int64   `json:"warm_requests"`
	WarmRPS         float64 `json:"warm_rps"`
	WarmP50Us       float64 `json:"warm_p50_us"`
	WarmP99Us       float64 `json:"warm_p99_us"`

	// Speedup is WarmRPS / ColdRPS — how much the store bought across the
	// restart. StoreServed counts replica B's answers built from store
	// bytes (>= 1, the LRU takes over after promotion); Searches counts
	// replica B's searches (must be 0).
	Speedup     float64 `json:"speedup"`
	StoreServed int64   `json:"store_served"`
	Searches    int64   `json:"searches"`
}

// storeLoadOpts sizes the restart loadtest.
type storeLoadOpts struct {
	model       models.Config
	concurrency int
	duration    time.Duration
	minSpeedup  float64 // 0 disables the floor
}

func defaultStoreLoadOpts(short bool) storeLoadOpts {
	// transformer-2-1024@16 searches in ~75ms — slow enough that
	// re-searching on restart caps a store-less replica at ~13 req/s,
	// which is what the store is buying back — while its ~42KB plan still
	// serves fast warm even on a single-CPU CI box.
	o := storeLoadOpts{
		model:       models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 16},
		concurrency: 32,
		duration:    3 * time.Second,
		minSpeedup:  storeRestartSpeedupFloor,
	}
	if short {
		o.duration = time.Second
	}
	return o
}

// runStoreRestartLoadtest boots replica A on a store directory, computes
// one plan cold, kills the replica, boots replica B on the same directory,
// and hammers it warm. dir is typically a fresh temp directory.
func runStoreRestartLoadtest(dir string, o storeLoadOpts) (ServeStoreResult, error) {
	res := ServeStoreResult{Model: o.model.String(), WarmConcurrency: o.concurrency}
	req := service.Request{Model: o.model}
	ctx := context.Background()

	// Replica A: cold fill through the real HTTP stack, then die.
	stA, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, err
	}
	_, clA, stopA, err := startLoadServer(service.Config{SyncWait: 60 * time.Second, Store: stA})
	if err != nil {
		return res, err
	}
	start := time.Now()
	if _, _, err := clA.Partition(ctx, req); err != nil {
		stopA()
		return res, fmt.Errorf("cold request: %w", err)
	}
	res.ColdMs = time.Since(start).Seconds() * 1e3
	res.ColdRPS = 1e3 / res.ColdMs
	stopA()

	// Replica B: fresh process state, same directory.
	stB, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, err
	}
	svcB, clB, stopB, err := startLoadServer(service.Config{SyncWait: 60 * time.Second, Store: stB})
	if err != nil {
		return res, err
	}
	defer stopB()

	var total atomic.Int64
	lats := make([][]time.Duration, o.concurrency)
	loopErrs := make([]error, o.concurrency)
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	wg.Add(o.concurrency)
	loopStart := time.Now()
	for w := 0; w < o.concurrency; w++ {
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, _, err := clB.Partition(ctx, req); err != nil {
					loopErrs[w] = err
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
				total.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(loopStart)
	for w, err := range loopErrs {
		if err != nil {
			return res, fmt.Errorf("warm worker %d: %w", w, err)
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.WarmDurationSec = elapsed.Seconds()
	res.WarmRequests = total.Load()
	res.WarmRPS = float64(res.WarmRequests) / elapsed.Seconds()
	if n := len(all); n > 0 {
		res.WarmP50Us = all[n/2].Seconds() * 1e6
		res.WarmP99Us = all[int(float64(n-1)*0.99)].Seconds() * 1e6
	}
	m := svcB.Metrics()
	res.StoreServed = m.StoreServed
	res.Searches = m.JobsDone
	res.Speedup = res.WarmRPS / res.ColdRPS

	if res.StoreServed < 1 {
		return res, fmt.Errorf("restarted replica never served from the store (served %d, searches %d)",
			res.StoreServed, res.Searches)
	}
	if res.Searches != 0 {
		return res, fmt.Errorf("restarted replica ran %d searches; the store should have answered", res.Searches)
	}
	if o.minSpeedup > 0 && res.Speedup < o.minSpeedup {
		return res, fmt.Errorf("restart speedup %.1fx below the %.0fx floor (cold %.1f req/s, warm %.0f req/s)",
			res.Speedup, o.minSpeedup, res.ColdRPS, res.WarmRPS)
	}
	return res, nil
}

// warmStartCases are the fleet profiles the warm-start gate runs on: deep
// 4-level hierarchies where the ordering tree is big enough for a seeded
// incumbent to pay. Both complete in well under a second.
var warmStartCases = []struct {
	prof string
	cfg  models.Config
}{
	{"cluster-2x4x2x12", models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}},
	{"cluster-2x8x2x8", models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}},
}

// runWarmStartRows measures cold vs warm-started branch-and-bound on the
// gated fleet profiles. The seed is the profile's own optimum mapped back
// through WarmOrderFromSteps — exactly what the service's neighbor index
// offers once any replica has answered the model. Returned records carry
// the machine-stable Expanded counts (search_steps / search_steps_warm);
// floor violations come back as regression strings.
func runWarmStartRows() ([]BenchRecord, []string, error) {
	var rows []BenchRecord
	var regressions []string
	for _, c := range warmStartCases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			return nil, nil, err
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", c.cfg, err)
		}
		k := int64(tp.NumGPUs())
		// Parallelism 1 keeps the expansion schedule — and therefore the
		// gated step counters — deterministic across machines.
		var cold recursive.SearchStats
		p, err := recursive.Partition(m.G, k, recursive.Options{Topology: &tp, Settings: dp.Settings{Parallelism: 1}, Stats: &cold})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: cold: %w", c.prof, err)
		}
		seed := make([]recursive.WarmStep, len(p.Steps))
		for i, st := range p.Steps {
			seed[i] = recursive.WarmStep{Factor: st.K, Level: st.Level}
		}
		// The warm search runs under testing.Benchmark so the row carries real
		// timed iterations: without ns_per_op and a nonzero iteration count the
		// >20% wall-clock regression gate silently skips these rows. The step
		// counters are deterministic, so reading them after the last iteration
		// loses nothing.
		var warm recursive.SearchStats
		warmSeed := recursive.WarmOrderFromSteps(tp, seed)
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recursive.Partition(m.G, k, recursive.Options{
					Topology: &tp, Settings: dp.Settings{Parallelism: 1}, Stats: &warm,
					WarmStart: warmSeed,
				}); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return nil, nil, fmt.Errorf("%s: warm: %w", c.prof, benchErr)
		}
		rec := BenchRecord{
			Name:            fmt.Sprintf("warm-start/%s@%d/%s", c.prof, k, c.cfg),
			NsPerOp:         float64(r.NsPerOp()),
			BytesPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp:     r.AllocsPerOp(),
			Iterations:      r.N,
			SearchSteps:     int64(cold.Expanded),
			SearchStepsWarm: int64(warm.Expanded),
			DPSteps:         int64(warm.DPSolves),
			DPStepsFlat:     int64(warm.FlatDPSolves),
		}
		if !warm.WarmStart {
			regressions = append(regressions, fmt.Sprintf("%s: warm-start seed rejected", rec.Name))
		}
		if rec.SearchStepsWarm*warmStartStepFactor > rec.SearchSteps {
			regressions = append(regressions, fmt.Sprintf(
				"%s: warm start saved <%dx search steps (cold %d, warm %d)",
				rec.Name, warmStartStepFactor, rec.SearchSteps, rec.SearchStepsWarm))
		}
		if int64(warm.DPSolves) > int64(cold.DPSolves) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: warm start ADDED dp steps (cold %d, warm %d)", rec.Name, cold.DPSolves, warm.DPSolves))
		}
		rows = append(rows, rec)
	}
	return rows, regressions, nil
}
