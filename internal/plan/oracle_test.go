package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"tofu/internal/partition"
)

// oracleExport is the reflective reference WriteJSON must match byte for
// byte: the Export form with fmt-formatted map keys, left for
// encoding/json to sort and indent.
func oracleExport(p *Plan) Export {
	ex := Export{Digest: p.Digest, Workers: p.K, Pipeline: p.Pipeline, Degraded: p.Degraded, TotalCommBytes: p.TotalComm()}
	for _, s := range p.Steps {
		se := StepExport{
			Ways: s.K, Multiplier: s.Multiplier, CommBytes: s.CommBytes, Level: s.Level, Stage: s.Stage,
			TensorCut:  make(map[string]int, len(s.TensorCut)),
			OpStrategy: make(map[string]strat, len(s.OpStrategy)),
		}
		for tid, d := range s.TensorCut {
			if d >= 0 {
				se.TensorCut[fmt.Sprint(tid)] = d
			}
		}
		for nid, st := range s.OpStrategy {
			if st.Axis == "" {
				continue
			}
			se.OpStrategy[fmt.Sprint(nid)] = strat{
				Kind: st.Kind.String(), Axis: st.Axis, Dim: st.OutDim,
			}
		}
		ex.Steps = append(ex.Steps, se)
	}
	return ex
}

// oracleJSON is WriteJSON's reference output: oracleExport through an
// indenting encoding/json encoder.
func oracleJSON(p *Plan) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(oracleExport(p)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkAgainstOracle asserts WriteJSON and the oracle agree: the same bytes,
// or both failing with nothing written.
func checkAgainstOracle(t *testing.T, p *Plan) {
	t.Helper()
	want, wantErr := oracleJSON(p)
	var got bytes.Buffer
	gotErr := p.WriteJSON(&got)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("WriteJSON error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if got.Len() != 0 {
			t.Fatalf("failed WriteJSON wrote %d bytes", got.Len())
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from the encoding/json oracle:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// Palettes of the values the encoder formats specially: float cutoffs of
// the 'e' format, and strings needing every kind of escape.
var (
	commPalette = []float64{0, 1e-7, 1e-6, 1e20, 1e21, 1.5, 123456.789, 5e-324, 9.999e20, math.Copysign(0, -1), 4096}
	axisPalette = []string{"i", "k", "b", "<a&b>", `q"uo\te`, "\x00\x1f\t\n\r\b\f\x7f", "x y ", "\xff\xfe", "ü€𝄞"}
)

// randomPlan builds a plan exercising every encoder path: dense cuts with
// gaps and IDs past 100, escaped axes, float cutoffs, levels, stages,
// pipeline descriptors, degraded and zero-step plans. axis, comm and digest
// come from the fuzzer and are mixed into the palettes.
func randomPlan(r *rand.Rand, axis string, comm float64, digest string) *Plan {
	pickComm := func() float64 {
		if r.IntN(4) == 0 {
			return comm
		}
		return commPalette[r.IntN(len(commPalette))]
	}
	pickAxis := func() string {
		if r.IntN(4) == 0 {
			return axis
		}
		return axisPalette[r.IntN(len(axisPalette))]
	}
	p := &Plan{K: r.Int64N(64) + 1, Degraded: r.IntN(3) == 0}
	switch r.IntN(3) {
	case 1:
		p.Digest = DigestPrefix + fmt.Sprintf("%064x", r.Uint64())
	case 2:
		p.Digest = digest
	}
	staged := r.IntN(3) == 0
	leveled := r.IntN(2) == 0
	nSteps := r.IntN(4)
	mult := int64(1)
	for si := 0; si < nSteps; si++ {
		s := &Step{K: r.Int64N(4) + 2, Multiplier: mult, CommBytes: pickComm()}
		mult *= s.K
		if leveled {
			s.Level = r.IntN(3)
		}
		if staged {
			s.Stage = r.IntN(3)
		}
		s.TensorCut = make([]int, r.IntN(160))
		for i := range s.TensorCut {
			s.TensorCut[i] = r.IntN(4) - 1 // -1 leaves a gap
		}
		s.OpStrategy = make([]partition.Strategy, r.IntN(160))
		for i := range s.OpStrategy {
			if r.IntN(3) == 0 {
				continue // no strategy: empty axis
			}
			kind := partition.SplitOutput
			if r.IntN(2) == 0 {
				kind = partition.SplitReduce
			}
			s.OpStrategy[i] = partition.Strategy{Kind: kind, Axis: pickAxis(), OutDim: r.IntN(4) - 1}
		}
		p.Steps = append(p.Steps, s)
	}
	if staged {
		pl := &PipelineInfo{Level: r.IntN(3)}
		switch n := r.IntN(4); n {
		case 0: // nil stages
		default:
			pl.Stages = make([]StageInfo, n-1)
			for i := range pl.Stages {
				pl.Stages[i] = StageInfo{Groups: [2]int{i * 3, i*3 + 3}, Workers: r.Int64N(8) + 1, HandoffBytes: pickComm()}
			}
		}
		p.Pipeline = pl
	}
	return p
}

// FuzzWriteJSON asserts the direct encoder and the reflective oracle agree
// byte for byte on random plans; the fuzzer drives the generator's seed and
// the free-form axis, comm-bytes and digest values (NaN and Inf must fail on
// both sides without output).
func FuzzWriteJSON(f *testing.F) {
	f.Add(uint64(1), "i", 0.0, "")
	f.Add(uint64(2), "<script>&amp;", 1e-7, "sha256:zz")
	f.Add(uint64(3), "  \x00\"\\", 1e21, "\xff")
	f.Add(uint64(4), "\xc3\x28", 1e20, "d\tigest")
	f.Add(uint64(5), "k", math.NaN(), "")
	f.Add(uint64(6), "k", math.Inf(-1), "")
	f.Fuzz(func(t *testing.T, seed uint64, axis string, comm float64, digest string) {
		checkAgainstOracle(t, randomPlan(rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)), axis, comm, digest))
	})
}

// TestWriteJSONMatchesOracle sweeps fixed seeds through the fuzz generator,
// plus the shapes a seed may miss: zero-step, k=1, and the fixture plan.
func TestWriteJSONMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		checkAgainstOracle(t, randomPlan(rand.New(rand.NewPCG(seed, 7)), "a<b", 1e-9, "x"))
	}
	checkAgainstOracle(t, &Plan{K: 1})
	checkAgainstOracle(t, &Plan{K: 1, Steps: []*Step{}, Degraded: true})
	checkAgainstOracle(t, &Plan{K: 8, Pipeline: &PipelineInfo{Level: 1, Stages: []StageInfo{}}})
	checkAgainstOracle(t, exportablePlan())
}

func TestDecimalOrder(t *testing.T) {
	for n := 0; n <= 1200; n++ {
		want := make([]string, n)
		for i := range want {
			want[i] = fmt.Sprint(i)
		}
		sort.Strings(want)
		var got []string
		for id := range decimalOrder(n) {
			got = append(got, fmt.Sprint(id))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("n=%d: decimalOrder = %v, want %v", n, got, want)
		}
	}
}

func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for _, p := range []*Plan{
		{K: 2, Steps: []*Step{{K: 2, Multiplier: 1, CommBytes: math.NaN()}}},
		{K: 4, Steps: []*Step{{K: 2, Multiplier: 1, CommBytes: math.MaxFloat64}, {K: 2, Multiplier: 2, CommBytes: math.MaxFloat64}}},
		{K: 2, Pipeline: &PipelineInfo{Level: 1, Stages: []StageInfo{{HandoffBytes: math.Inf(1)}}}},
	} {
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err == nil || buf.Len() != 0 {
			t.Errorf("WriteJSON = %v with %d bytes written, want an error and no output", err, buf.Len())
		}
	}
}

type failWriter struct{ n int }

var errWrite = errors.New("disk full")

func (w *failWriter) Write(b []byte) (int, error) {
	w.n++
	return 0, errWrite
}

// TestWriteJSONWriterError: the first write error is returned, and the
// encoder stops writing after it.
func TestWriteJSONWriterError(t *testing.T) {
	p := largePlan(3, 20000)
	w := &failWriter{}
	if err := p.WriteJSON(w); !errors.Is(err, errWrite) {
		t.Fatalf("WriteJSON = %v, want %v", err, errWrite)
	}
	if w.n != 1 {
		t.Fatalf("encoder wrote %d times after the first failure, want 1 write in total", w.n)
	}
}

// largePlan is a plan of nSteps steps over n tensors and n nodes, every
// tensor cut and every node assigned.
func largePlan(nSteps, n int) *Plan {
	p := &Plan{K: 1 << nSteps, Digest: DigestPrefix + fmt.Sprintf("%064x", n)}
	for si := 0; si < nSteps; si++ {
		s := &Step{K: 2, Multiplier: int64(1) << si, CommBytes: float64(n) * 1e6, TensorCut: make([]int, n), OpStrategy: make([]partition.Strategy, n)}
		for i := range s.OpStrategy {
			s.TensorCut[i] = i % 3
			s.OpStrategy[i] = partition.Strategy{Kind: partition.Kind(i % 2), Axis: "co", OutDim: i%3 - 1}
		}
		p.Steps = append(p.Steps, s)
	}
	return p
}

// TestWriteJSONAllocsConstant: the encoder allocates its one chunk however
// large the plan is — allocations do not scale with steps or nodes.
func TestWriteJSONAllocsConstant(t *testing.T) {
	allocs := func(p *Plan) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := p.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(largePlan(1, 10)), allocs(largePlan(6, 50000))
	if small != large || large > 1 {
		t.Fatalf("WriteJSON allocs: %v on a 1-step 10-node plan, %v on a 6-step 50000-node plan; want equal and at most 1", small, large)
	}
}
