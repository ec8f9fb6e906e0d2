package plan_test

import (
	"bytes"
	"testing"

	"tofu/internal/core"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/topo"
)

// TestBenchmarkPlansMatchOracle runs the five benchmark searches (flat DP on
// three model families, the cluster-2x8 ordering search and the
// cluster-4x2x8 pipeline search) and checks each plan's WriteJSON bytes
// against the encoding/json oracle.
func TestBenchmarkPlansMatchOracle(t *testing.T) {
	cases := []struct {
		name     string
		cfg      models.Config
		hw       string // "" = the default flat machine, 8 workers
		pipeline bool
	}{
		{"mlp-flat", models.Config{Family: "mlp", Depth: 4, Width: 512, Batch: 64}, "", false},
		{"rnn-flat", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, "", false},
		{"wresnet-flat", models.Config{Family: "wresnet", Depth: 50, Width: 2, Batch: 8}, "", false},
		{"mlp-topo", models.Config{Family: "mlp", Depth: 4, Width: 1024, Batch: 16}, "cluster-2x8", false},
		{"mlp-pipeline", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, "cluster-4x2x8", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := models.Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DefaultOptions()
			workers := int64(8)
			if tc.hw != "" {
				tp, err := topo.Profile(tc.hw)
				if err != nil {
					t.Fatal(err)
				}
				opts.Topology = &tp
				workers = int64(tp.NumGPUs())
			}
			if tc.pipeline {
				opts.Pipeline = &core.PipelineSpec{}
			}
			s, err := core.Partition(m.G, workers, opts)
			if err != nil {
				t.Fatal(err)
			}
			s.Plan.Digest = plan.DigestPrefix + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
			var got bytes.Buffer
			if err := s.Plan.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			want, err := plan.OracleJSON(s.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteJSON (%d bytes) differs from the oracle (%d bytes)", got.Len(), len(want))
			}
		})
	}
}
