package recursive

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/topo"
)

// Outcomes of one poll-budgeted search.
const (
	outcomeCancelled = iota // tripped before any ordering finished
	outcomeDegraded         // best incumbent returned, marked Degraded
	outcomeComplete         // budget outlived the search: the proven optimum
)

// cancelRun is one cancellation probe: a topology ordering search under a
// poll-counted token. A degraded run returns the incumbent's plan JSON; an
// early trip must surface as a cancellation error, never a plain failure.
func cancelRun(t *testing.T, m *models.Model, tp topo.Topology, par, polls int) (int, []byte) {
	t.Helper()
	tok := cancel.AfterPolls(int64(polls))
	p, err := Partition(m.G, int64(tp.NumGPUs()), Options{Settings: dp.Settings{Parallelism: par, Cancel: tok}, Topology: &tp})
	if err != nil {
		if !cancel.IsCancellation(err) {
			t.Fatalf("polls=%d: non-cancellation error: %v", polls, err)
		}
		return outcomeCancelled, nil
	}
	if !p.Degraded {
		return outcomeComplete, nil
	}
	if len(p.Steps) == 0 {
		t.Fatalf("polls=%d: degraded plan with no steps", polls)
	}
	mult := int64(1)
	for _, st := range p.Steps {
		mult *= st.K
	}
	if mult != int64(tp.NumGPUs()) {
		t.Fatalf("polls=%d: degraded plan partitions %d ways, want %d", polls, mult, tp.NumGPUs())
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return outcomeDegraded, buf.Bytes()
}

// maxPollSweep bounds the budget sweep; the full mlp-4x512 ordering search
// on cluster-2x8 polls on the order of 10^2 times, far under this.
const maxPollSweep = 20000

// firstDegradedBudget walks the poll budget upward until the search
// degrades (returning that budget and incumbent), or completes.
func firstDegradedBudget(t *testing.T, m *models.Model, tp topo.Topology, par int) (int, []byte) {
	t.Helper()
	for n := 1; n <= maxPollSweep; n++ {
		switch outcome, js := cancelRun(t, m, tp, par, n); outcome {
		case outcomeDegraded:
			return n, js
		case outcomeComplete:
			t.Fatalf("parallelism %d: search completed at polls=%d without ever degrading", par, n)
		}
	}
	t.Fatalf("parallelism %d: no poll budget up to %d yielded a degraded incumbent", par, maxPollSweep)
	return 0, nil
}

// TestCancelMidSweepParallel8 sweeps the poll budget across the whole
// search at parallelism 8 (run under -race in CI): the outcomes must walk
// the contract's ladder — cancellation error while no incumbent exists,
// then a valid degraded incumbent, then the optimum once the budget
// outlives the search — and the worker pool must not leak goroutines on
// any early-exit path.
func TestCancelMidSweepParallel8(t *testing.T) {
	m, err := models.MLP(4, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.Cluster2x8Topology()
	before := runtime.NumGoroutine()

	if outcome, _ := cancelRun(t, m, tp, 8, 1); outcome != outcomeCancelled {
		t.Error("a one-poll budget must trip before any incumbent exists")
	}
	firstDegradedBudget(t, m, tp, 8) // fatals if the ladder's middle rung is missing
	if outcome, _ := cancelRun(t, m, tp, 8, maxPollSweep); outcome != outcomeComplete {
		t.Errorf("a %d-poll budget must outlive the search", maxPollSweep)
	}

	// Leak harness: cancelled searches must wind down their DP workers.
	// NumGoroutine is noisy (the runtime parks helpers lazily), so poll
	// with a deadline instead of asserting a single snapshot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across cancelled searches: %d before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineDeterministicIncumbent: the anytime search is deterministic
// in its budget — the same poll-counted tick at the same parallelism
// returns the byte-identical degraded incumbent, run after run. (Wall
// -clock deadlines cannot promise this; poll-counted tokens exist so tests
// and replayable debugging can.)
func TestDeadlineDeterministicIncumbent(t *testing.T) {
	m, err := models.MLP(4, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.Cluster2x8Topology()
	for _, par := range []int{1, 8} {
		polls, first := firstDegradedBudget(t, m, tp, par)
		_, again := cancelRun(t, m, tp, par, polls)
		if !bytes.Equal(first, again) {
			t.Errorf("parallelism %d, polls=%d: degraded incumbent changed between runs:\nfirst: %s\nagain: %s",
				par, polls, first, again)
		}
	}
}

// TestCancelledBeforeIncumbentIsCancellation: a token tripped on its very
// first poll must classify as a cancellation (the service maps it to 503 +
// Retry-After), not masquerade as an infeasible-topology diagnostic.
func TestCancelledBeforeIncumbentIsCancellation(t *testing.T) {
	m, err := models.MLP(4, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.Cluster2x8Topology()
	tok := cancel.AfterPolls(1)
	_, err = Partition(m.G, int64(tp.NumGPUs()), Options{Settings: dp.Settings{Parallelism: 1, Cancel: tok}, Topology: &tp})
	if err == nil {
		t.Fatal("first-poll cancellation returned a plan")
	}
	if !cancel.IsCancellation(err) {
		t.Fatalf("first-poll cancellation produced a non-cancellation error: %v", err)
	}
}

// TestNilTokenIsFree: the deadline-free path must pass a nil token through
// the whole stack — the same byte-identical plan as no Cancel option, and
// no arming cost.
func TestNilTokenIsFree(t *testing.T) {
	m, err := models.MLP(4, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := planJSON(t, m, 8, 1, nil)
	p, err := Partition(m.G, 8, Options{Settings: dp.Settings{Parallelism: 1, Cancel: nil}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Degraded {
		t.Fatal("deadline-free search marked degraded")
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, buf.Bytes()) {
		t.Fatal("nil cancel token changed the plan bytes")
	}
}
