package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/service"
	"tofu/internal/store"
)

// Serve workload sizing, for a two-CPU host.
const (
	// serveClients closed-loop launchers share one stream, each waiting for
	// its plan before sending the next request, over at most as many
	// connections.
	serveClients = 2
	// serveWorkers is the service's search worker count (each search runs
	// with plannerParallelism DP workers).
	serveWorkers = 1
	// serveLRU entries is smaller than the pool, so re-references of
	// evicted plans are read back from the store. Like the stream's skew
	// and length, it is an assumption about traffic, not taken from a log.
	serveLRU = 24
	// serveStreamLen requests make one epoch: a fresh service and store
	// replaying the seed's stream from cold.
	serveStreamLen = 1200
)

// serveEnv is one booted service: a plan store directory, the service and
// its HTTP server on a loopback listener.
type serveEnv struct {
	dir    string
	svc    *service.Service
	srv    *http.Server
	url    string
	served chan error
	client *http.Client
}

// bootServe starts a service over a fresh store in dir and waits until it
// answers /healthz.
func bootServe(dir string) (*serveEnv, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{
		CacheSize:   serveLRU,
		Store:       st,
		Workers:     serveWorkers,
		Parallelism: plannerParallelism,
		SyncWait:    time.Minute, // launchers wait for their plan; never flip to 202
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Shutdown(context.Background()))
	}
	e := &serveEnv{
		dir:    dir,
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	resp, err := e.client.Get(e.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

// close stops the server and the service, waits for both, and removes the
// store directory.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, e.svc.Shutdown(ctx), os.RemoveAll(e.dir))
}

// serveInputs is the seed's pool (by popularity rank) and request stream.
type serveInputs struct {
	pool   []item
	stream []int
}

func drawServeInputs(seed uint64) (serveInputs, error) {
	pool, err := servePool(seed)
	if err != nil {
		return serveInputs{}, err
	}
	return serveInputs{pool: pool, stream: zipfStream(seed, len(pool), serveStreamLen)}, nil
}

// served is one answered request.
type served struct {
	rank   int
	lat    time.Duration
	source string // Tofu-Source: cache, search or coalesced
}

// epoch is one fresh service replaying the stream.
type epoch struct {
	setup time.Duration // draw inputs + boot, until /healthz answers
	env   *serveEnv
	in    serveInputs
}

var epochSeq atomic.Int64

func startEpoch(cfg runConfig) (*epoch, error) {
	start := time.Now()
	in, err := drawServeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("store-%d-%d", os.Getpid(), epochSeq.Add(1)))
	env, err := bootServe(dir)
	if err != nil {
		return nil, err
	}
	return &epoch{setup: time.Since(start), env: env, in: in}, nil
}

// driveHTTP replays the stream over HTTP with serveClients closed-loop
// launchers and verifies every plan against the expected bytes.
func driveHTTP(ep *epoch, exp *expected, t *tally) []served {
	var next atomic.Int64
	results := make([][]served, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ep.in.stream) {
					return
				}
				rank := ep.in.stream[i]
				s, err := postPlan(ep.env, ep.in.pool[rank], exp)
				t.record(err)
				if err == nil {
					s.rank = rank
					results[c] = append(results[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	var all []served
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

func postPlan(env *serveEnv, it item, exp *expected) (served, error) {
	start := time.Now()
	resp, err := env.client.Post(env.url+"/v1/partition", "application/json", bytes.NewReader(it.Body))
	if err != nil {
		return served{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return served{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return served{}, fmt.Errorf("%s: %s: %.200s", it.Name, resp.Status, body)
	}
	if d := resp.Header.Get("Tofu-Digest"); d != it.Digest {
		return served{}, fmt.Errorf("%s: served digest %q, want %q", it.Name, d, it.Digest)
	}
	if err := exp.check(it.Digest, body); err != nil {
		return served{}, err
	}
	return served{lat: lat, source: resp.Header.Get("Tofu-Source")}, nil
}

// runServe runs serve-mixed: epochs of a fresh service and store replaying
// the seed's Zipf stream over HTTP until the run time is spent. A traced run
// replays it in-process through the calls handlePartition makes instead,
// then re-runs the stream's searches with the planner ledger.
func runServe(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		return runServeTraced(cfg)
	}
	rep := newReport()
	var setups samples
	var all []served
	var epochs int
	var cpuMs, allocMiB float64
	var wall time.Duration
	var ticks cpuTicks
	var badPlans int64
	runStart := time.Now()
	for epochs == 0 || time.Since(runStart)+wall/time.Duration(2*epochs) < cfg.seconds {
		ep, err := startEpoch(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ep.setup.Seconds())
		runtime.GC()
		u := startUsage()
		start := time.Now()
		all = append(all, driveHTTP(ep, cfg.exp, rep.tally)...)
		wall += time.Since(start)
		c, a, t := u.stop()
		cpuMs, allocMiB, ticks = cpuMs+c, allocMiB+a, ticks.add(t)
		badPlans += ep.env.svc.Metrics().StoreBadPlan
		if err := ep.env.close(); err != nil {
			return nil, err
		}
		epochs++
	}
	rep.tally.fail(badPlans, fmt.Sprintf("%d store entries failed ReadJSONExpect", badPlans))

	in, err := drawServeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var hits, misses samples
	missByRank := map[int]samples{}
	for _, s := range all {
		if s.source == "cache" {
			hits = append(hits, msOf(s.lat))
			continue
		}
		misses = append(misses, msOf(s.lat))
		missByRank[s.rank] = append(missByRank[s.rank], msOf(s.lat))
	}
	if len(hits) == 0 || len(misses) == 0 {
		return nil, fmt.Errorf("serve-mixed: %d hits and %d misses; need both (%v)", len(hits), len(misses), rep.tally.reasons)
	}
	var planMed, iters, peaks []float64
	for _, ms := range missByRank {
		planMed = append(planMed, ms.median())
	}
	// Plan quality over the whole pool, whose bytes every served plan was
	// checked against: the same requests for every seed.
	for _, it := range in.pool {
		want := cfg.exp.Plans[it.Digest]
		iters = append(iters, want.IterSec)
		peaks = append(peaks, float64(want.PeakBytes)/(1<<30))
	}
	n := float64(len(all))
	unstolen := ticks.unstolen()
	fmt.Fprintf(cfg.out, "epochs %d, requests %d (%d hits, %d misses over %d distinct requests) in %.2fs; %.2f%% of CPU time stolen (%d/%d ticks)\n",
		epochs, len(all), len(hits), len(misses), len(missByRank), wall.Seconds(), 100*(1-unstolen), ticks.stolen, ticks.total)
	fmt.Fprintf(cfg.out, "hit  %s\n", hits.summary("ms"))
	fmt.Fprintf(cfg.out, "miss %s\n", misses.summary("ms"))
	fmt.Fprintf(cfg.out, "setup %s\n", setups.summary("s"))

	rep.set("setup_s", setups.median())
	rep.set("cpu_ms_per_op", cpuMs/n)
	rep.set("alloc_mib_per_op", allocMiB/n)
	rep.set("req_per_s", n/wall.Seconds()/unstolen)
	rep.set("plans_per_s", n/wall.Seconds()/unstolen)
	rep.set("plan_ms", geomean(planMed)*unstolen)
	rep.set("sim_iter_s", geomean(iters))
	rep.set("peak_mem_gib", geomean(peaks))
	rep.set("hit_ms_p50", hits.median()*unstolen)
	rep.set("hit_ms_p99", hits.quantile(0.99)*unstolen)
	rep.set("miss_ms_p50", misses.median()*unstolen)
	rep.set("miss_ms_p90", misses.quantile(0.90)*unstolen)
	return rep, nil
}

// callTimes are the in-process replay's per-call timings, in microseconds.
type callTimes struct {
	mu                                   sync.Mutex
	parse, digest, lru, store, miss, adm samples
	wait                                 samples // ms
	hitPath                              samples // parse+digest+lookup of hits
	bytes                                int64
}

// driveInProcess replays the stream through the service calls
// handlePartition makes — ParseRequest, Digest, Lookup, CheckDeadline,
// SubmitTenant, Wait — timing each. Lookups are classified LRU or store
// by the store_served counter, so they are serialized with their metric
// reads; the searches they start still run concurrently.
func driveInProcess(ep *epoch, exp *expected, t *tally, ct *callTimes) {
	svc := ep.env.svc
	var next atomic.Int64
	var lookupMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ep.in.stream) {
					return
				}
				it := ep.in.pool[ep.in.stream[i]]
				t.record(replayOne(svc, it, exp, &lookupMu, ct))
			}
		}()
	}
	wg.Wait()
}

func replayOne(svc *service.Service, it item, exp *expected, lookupMu *sync.Mutex, ct *callTimes) error {
	t0 := time.Now()
	req, err := service.ParseRequest(it.Body)
	if err != nil {
		return err
	}
	t1 := time.Now()
	digest, err := req.Digest()
	if err != nil {
		return err
	}
	t2 := time.Now()
	lookupMu.Lock()
	before := svc.Metrics().StoreServed
	t3 := time.Now()
	val, ok := svc.Lookup(digest)
	t4 := time.Now()
	fromStore := svc.Metrics().StoreServed > before
	lookupMu.Unlock()

	var admit, wait time.Duration
	if !ok {
		t5 := time.Now()
		if _, err := svc.CheckDeadline(req); err != nil {
			return err
		}
		job, _, err := svc.SubmitTenant(req, digest, "")
		if err != nil {
			return err
		}
		t6 := time.Now()
		v, jerr, timedOut := svc.Wait(context.Background(), job, time.Minute)
		if timedOut {
			return fmt.Errorf("%s: search outlived the wait", it.Name)
		}
		if jerr != nil {
			return jerr
		}
		admit, wait, val = t6.Sub(t5), time.Since(t6), v
	}
	if err := exp.check(it.Digest, val); err != nil {
		return err
	}

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.parse = append(ct.parse, us(t1.Sub(t0)))
	ct.digest = append(ct.digest, us(t2.Sub(t1)))
	lookup := us(t4.Sub(t3))
	switch {
	case !ok:
		ct.miss = append(ct.miss, lookup)
		ct.adm = append(ct.adm, us(admit))
		ct.wait = append(ct.wait, msOf(wait))
	case fromStore:
		ct.store = append(ct.store, lookup)
	default:
		ct.lru = append(ct.lru, lookup)
	}
	if ok {
		ct.hitPath = append(ct.hitPath, us(t2.Sub(t0))+lookup)
	}
	ct.bytes += int64(len(val))
	return nil
}

// runServeTraced is the serve-mixed ledger: one HTTP epoch for the
// untraced hit latency, in-process replay epochs for the per-call timings
// and the service's counters, then the stream's distinct searches re-run
// from outside the service with the planner ledger.
func runServeTraced(cfg runConfig) (*report, error) {
	rep := newReport()
	start := time.Now()

	ep, err := startEpoch(cfg)
	if err != nil {
		return nil, err
	}
	var httpHits samples
	for _, s := range driveHTTP(ep, cfg.exp, rep.tally) {
		if s.source == "cache" {
			httpHits = append(httpHits, float64(s.lat.Nanoseconds())/1e3)
		}
	}
	if err := ep.env.close(); err != nil {
		return nil, err
	}

	ct := &callTimes{}
	var delta service.Snapshot
	epochs := 0
	for epochs == 0 || time.Since(start) < cfg.seconds*6/10 {
		ep, err := startEpoch(cfg)
		if err != nil {
			return nil, err
		}
		driveInProcess(ep, cfg.exp, rep.tally, ct)
		addSnapshot(&delta, ep.env.svc.Metrics())
		if err := ep.env.close(); err != nil {
			return nil, err
		}
		epochs++
	}
	rep.tally.fail(delta.StoreBadPlan, fmt.Sprintf("%d store entries failed ReadJSONExpect", delta.StoreBadPlan))

	lookups := int64(len(ct.lru) + len(ct.store) + len(ct.miss))
	lru := ratio{int64(len(ct.lru)), lookups}
	storeRead := ratio{int64(len(ct.store)), lookups - int64(len(ct.lru))}
	pricing := ratio{delta.PricingHits, delta.PricingHits + delta.PricingMisses}
	warm := ratio{delta.SearchWarmStarted, delta.JobsDone}
	perEpoch := func(v int64) float64 { return float64(v) / float64(epochs) }
	fmt.Fprintf(cfg.out, "in-process epochs %d: lookups %d, lru hit %v, store read %v, pricing hit %v, warm start %v\n",
		epochs, lookups, lru, storeRead, pricing, warm)
	fmt.Fprintf(cfg.out, "http hit %s; in-process hit path %s\n", httpHits.summary("us"), ct.hitPath.summary("us"))

	rep.set("service.parse_us", ct.parse.mean())
	rep.set("service.digest_us", ct.digest.mean())
	rep.set("service.lookup_lru_us", ct.lru.mean())
	rep.set("service.lookup_store_us", ct.store.mean())
	rep.set("service.lookup_miss_us", ct.miss.mean())
	rep.set("service.admit_us", ct.adm.mean())
	rep.set("service.wait_ms", ct.wait.mean())
	rep.set("service.http_overhead_us", httpHits.median()-ct.hitPath.median())
	rep.set("service.lookups", perEpoch(lookups))
	rep.set("service.lru_hit_ratio", lru.value())
	rep.set("store.lookups", perEpoch(storeRead.den))
	rep.set("store.read_ratio", storeRead.value())
	rep.set("service.coalesced", perEpoch(delta.Coalesced))
	rep.set("service.searches", perEpoch(delta.JobsDone))
	rep.set("service.pricing_lookups", perEpoch(pricing.den))
	rep.set("service.pricing_hit_ratio", pricing.value())
	rep.set("service.warm_start_ratio", warm.value())
	rep.set("store.puts", perEpoch(delta.StorePuts))
	rep.set("store.put_errors", perEpoch(delta.StorePutErrors))
	rep.set("service.bytes_served_mib", float64(ct.bytes)/(1<<20)/float64(epochs))

	// The stream's distinct requests in first-request order, re-searched
	// untraced and traced with one pricing cache per model for each side,
	// as the service shares pricing across requests for the same model.
	in, err := drawServeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{}
	untracedCaches, tracedCaches := map[models.Config]*dp.PriceCache{}, map[models.Config]*dp.PriceCache{}
	cacheFor := func(caches map[models.Config]*dp.PriceCache, m models.Config) *dp.PriceCache {
		if caches[m] == nil {
			caches[m] = dp.NewPriceCache()
		}
		return caches[m]
	}
	led := newLedger()
	var overhead samples
	for _, rank := range in.stream {
		if seen[rank] {
			continue
		}
		seen[rank] = true
		it := in.pool[rank]
		o := planOpts{par: plannerParallelism, cache: cacheFor(untracedCaches, it.Req.Model)}
		plain, err := producePlan(it, o)
		if err == nil {
			err = cfg.exp.check(it.Digest, plain.body)
		}
		rep.tally.record(err)
		o.cache = cacheFor(tracedCaches, it.Req.Model)
		traced, terr := tracedPlan(it, o, led)
		if terr == nil {
			terr = cfg.exp.check(it.Digest, traced.body)
		}
		rep.tally.record(terr)
		if err == nil && terr == nil {
			overhead = append(overhead, msOf(traced.dur)-msOf(plain.dur))
		}
	}
	fmt.Fprintf(cfg.out, "search replay: %d distinct requests, traced minus untraced %s\n", len(seen), overhead.summary("ms"))
	rep.setLedger(led)
	rep.set("trace.overhead_ms", overhead.median())
	return rep, nil
}

// addSnapshot accumulates the counters the ledger reports.
func addSnapshot(acc *service.Snapshot, s service.Snapshot) {
	acc.Coalesced += s.Coalesced
	acc.JobsDone += s.JobsDone
	acc.PricingHits += s.PricingHits
	acc.PricingMisses += s.PricingMisses
	acc.SearchWarmStarted += s.SearchWarmStarted
	acc.StorePuts += s.StorePuts
	acc.StorePutErrors += s.StorePutErrors
	acc.StoreBadPlan += s.StoreBadPlan
}
