package main

import (
	"reflect"
	"sort"
	"testing"
)

func poolDigests(t *testing.T, seed uint64) []string {
	t.Helper()
	pool, err := servePool(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(pool))
	for i, it := range pool {
		out[i] = it.Digest
	}
	return out
}

func TestServePoolDeterministic(t *testing.T) {
	a, b := poolDigests(t, 7), poolDigests(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different pools")
	}
	if reflect.DeepEqual(a, poolDigests(t, 8)) {
		t.Error("seeds 7 and 8 drew the same pool order")
	}
	seen := map[string]bool{}
	for _, d := range a {
		if seen[d] {
			t.Fatalf("pool repeats digest %s", d)
		}
		seen[d] = true
	}
	if len(a) < 100 {
		t.Errorf("pool has %d distinct requests, want at least 100", len(a))
	}
}

// Every rank holds the same family and machine whatever the seed, and every
// pool model runs on all four machines.
func TestServePoolShape(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		pool, err := servePool(seed)
		if err != nil {
			t.Fatal(err)
		}
		machines := map[string]map[string]bool{}
		for r, it := range pool {
			c := r % (len(serveFamilies) * len(serveMachines))
			if f := serveFamilies[c%len(serveFamilies)].family; it.Req.Model.Family != f {
				t.Fatalf("seed %d rank %d: family %s, want %s", seed, r, it.Req.Model.Family, f)
			}
			m := it.Req.Model.String()
			if machines[m] == nil {
				machines[m] = map[string]bool{}
			}
			machines[m][it.Name] = true
		}
		for m, on := range machines {
			if len(on) != len(serveMachines) {
				t.Errorf("seed %d: model %s runs on %d machines, want %d", seed, m, len(on), len(serveMachines))
			}
		}
	}
}

func TestZipfStreamDeterministic(t *testing.T) {
	a, b := zipfStream(3, 108, 1200), zipfStream(3, 108, 1200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different streams")
	}
	if reflect.DeepEqual(a, zipfStream(4, 108, 1200)) {
		t.Error("seeds 3 and 4 drew the same stream")
	}
	counts := make([]int, 108)
	for _, r := range a {
		if r < 0 || r >= 108 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	for r, c := range counts {
		if c == 0 {
			t.Errorf("rank %d never requested; every rank must be", r)
		}
	}
	// Rank 0 is the most popular: about 1/H(108) ~ 19% of the stream.
	if counts[0] < 180 || counts[0] < 5*counts[20] {
		t.Errorf("rank 0 drawn %d times, rank 20 %d times; want a Zipf head", counts[0], counts[20])
	}
}

// Pools differ only in order: every seed draws the same requests, and
// expected.json covers them.
func TestServePoolsShareRequests(t *testing.T) {
	e, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	want := poolDigests(t, 1)
	sort.Strings(want)
	for _, d := range want {
		if _, ok := e.Plans[d]; !ok {
			t.Fatalf("expected.json has no plan for pool request %s", d)
		}
	}
	for _, seed := range []uint64{2, 5, 123456789} {
		got := poolDigests(t, seed)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d draws other requests than seed 1", seed)
		}
	}
}
