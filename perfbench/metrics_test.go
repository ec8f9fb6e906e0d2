package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two lists must agree name for name.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit, Better string }, code []metric) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(code))
			return
		}
		for i, m := range code {
			d := declared[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, d.Name, d.Unit, d.Better, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)

	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the program's %v", names, workloadNames())
	}
}

func TestUnstolen(t *testing.T) {
	if got := (cpuTicks{stolen: 10, total: 100}).unstolen(); got != 0.9 {
		t.Errorf("unstolen of 10/100 = %g, want 0.9", got)
	}
	if got := (cpuTicks{}).unstolen(); got != 1 {
		t.Errorf("unstolen without ticks = %g, want 1", got)
	}
	sum := cpuTicks{stolen: 1, total: 10}.add(cpuTicks{stolen: 2, total: 20})
	if sum != (cpuTicks{stolen: 3, total: 30}) {
		t.Errorf("add = %+v", sum)
	}
}
