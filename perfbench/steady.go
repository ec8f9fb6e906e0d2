package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json the steadiness report reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkDef(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// childArgs drops the steadiness flag (and any workload, seed or trace)
// from the parent's arguments, keeping the rest for every child run.
func childArgs(args []string) []string {
	drop := map[string]bool{"steady": true, "workload": true, "seed": true, "trace": true}
	var out []string
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(name, "=")
		if !drop[name] {
			out = append(out, args[i])
			continue
		}
		if !hasValue && i+1 < len(args) {
			i++ // the flag's value
		}
	}
	return out
}

// runSteady runs every workload n times, interleaved (seed first+i on round
// i, with the workload order rotating each round), each run a child process
// exactly as a single run is invoked, and prints each end-to-end metric's
// median, quartiles and spread — (q3 - q1) / median — against its bound.
// It fails when a run fails or a spread other than setup_s exceeds its
// bound.
func runSteady(args []string, n int, first uint64, benchJSON string, out io.Writer) error {
	def, err := loadBenchmarkDef(benchJSON)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := childArgs(args)
	values := map[string]map[string][]float64{} // workload -> metric -> per-run values
	for round := 0; round < n; round++ {
		for j := range def.Workloads {
			w := def.Workloads[(j+round)%len(def.Workloads)].Name
			seed := first + uint64(round)
			cmd := exec.Command(exe, append([]string{"--workload", w, "--seed", strconv.FormatUint(seed, 10), "--trace", "0"}, base...)...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run reported incorrect plans", w, seed)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w][name] = append(values[w][name], mv.Value)
			}
			fmt.Fprintf(out, "round %d/%d %s done\n", round+1, n, w)
		}
	}

	over := 0
	for _, wl := range def.Workloads {
		fmt.Fprintf(out, "\n%s (%d runs)\n%-18s %12s %12s %12s %8s %6s  %s\n",
			wl.Name, n, "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, m := range def.EndToEnd {
			q1, med, q3, ok := quartiles(values[wl.Name][m.Name])
			if !ok {
				continue
			}
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case m.Name == "setup_s":
				verdict = "not gated"
			case spread > m.Bound:
				verdict = "OVER BOUND"
				over++
			case spread > m.Bound/3:
				verdict = "within bound"
			}
			fmt.Fprintf(out, "%-18s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", m.Name, q1, med, q3, spread, m.Bound, verdict)
			if verdict != "steady" {
				fmt.Fprintf(out, "%18s runs by seed: %.5g\n", "", values[wl.Name][m.Name])
			}
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", over)
	}
	return nil
}

// lastResult parses the JSON result line a run ends with.
func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
