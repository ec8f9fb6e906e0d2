package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Export is the stable, serializable form of a partition plan, for tooling
// that wants to persist or diff plans (the original prototype emitted its
// plans into NNVM graph attributes the same way).
type Export struct {
	// Digest is the content digest ("sha256:<64 hex>") of the canonical
	// request this plan answers (see Plan.Digest). Omitted for plans
	// produced outside the request path, so their JSON is unchanged.
	Digest  string       `json:"digest,omitempty"`
	Workers int64        `json:"workers"`
	Steps   []StepExport `json:"steps"`
	// Pipeline describes the stage structure of a hybrid-parallel plan;
	// omitted for flat plans, so their JSON is unchanged.
	Pipeline *PipelineInfo `json:"pipeline,omitempty"`
	// Degraded marks an anytime result a deadline stopped early (see
	// Plan.Degraded); omitted for complete plans, so their JSON is
	// unchanged.
	Degraded bool `json:"degraded,omitempty"`
	// TotalCommBytes is Σ δ_i.
	TotalCommBytes float64 `json:"total_comm_bytes"`
}

// StepExport is one basic partition plan.
type StepExport struct {
	Ways       int64   `json:"ways"`
	Multiplier int64   `json:"multiplier"`
	CommBytes  float64 `json:"comm_bytes"`
	// Level is the interconnect tier the step's communication crosses;
	// omitted for flat plans, so their JSON is unchanged.
	Level int `json:"level,omitempty"`
	// Stage is the pipeline stage the step belongs to; omitted for flat
	// plans and first-stage steps (absent means 0).
	Stage      int              `json:"stage,omitempty"`
	TensorCut  map[string]int   `json:"tensor_cut"` // tensor ID (decimal) -> dim
	OpStrategy map[string]strat `json:"op_strategy"`
}

type strat struct {
	Kind string `json:"kind"` // "output" | "reduce"
	Axis string `json:"axis"`
	Dim  int    `json:"dim,omitempty"`
}

// WriteJSON serializes the plan in its Export form: the bytes
// encoding/json would produce for the Export (sorted map keys, omitempty
// fields, two-space indent, trailing newline), written straight from the
// dense per-step slices. Tensors uncut at a step and nodes without a
// strategy are left out. A NaN or infinite communication volume is an error,
// and nothing is written then.
func (p *Plan) WriteJSON(w io.Writer) error {
	total := p.TotalComm()
	if err := p.checkFinite(total); err != nil {
		return err
	}
	e := encoder{w: w, buf: make([]byte, 0, chunkSize)}
	e.plan(p, total)
	e.flush()
	return e.err
}

// checkFinite rejects the float values JSON cannot represent before any
// byte is written.
func (p *Plan) checkFinite(total float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	for si, s := range p.Steps {
		if bad(s.CommBytes) {
			return fmt.Errorf("plan: step %d: comm bytes %g is not encodable as JSON", si, s.CommBytes)
		}
	}
	if bad(total) {
		return fmt.Errorf("plan: total comm bytes %g is not encodable as JSON", total)
	}
	if p.Pipeline != nil {
		for si, st := range p.Pipeline.Stages {
			if bad(st.HandoffBytes) {
				return fmt.Errorf("plan: pipeline stage %d: handoff bytes %g is not encodable as JSON", si, st.HandoffBytes)
			}
		}
	}
	return nil
}

// chunkSize is the encoder's buffer capacity: output is appended into one
// chunk and flushed to the writer whenever the next token might not fit,
// so the encoder allocates the same amount for any plan size.
const chunkSize = 32 << 10

// indent holds the spaces for the deepest nesting level a plan reaches (a
// pipeline stage's group bounds, depth 5).
const indent = "          "

// encoder appends a plan's JSON into a fixed-capacity chunk. The first
// write error sticks and turns every later flush into a no-op.
type encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// room flushes the chunk unless n more bytes fit in it.
func (e *encoder) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// lit appends literal punctuation or a keyword.
func (e *encoder) lit(s string) {
	e.room(len(s))
	e.buf = append(e.buf, s...)
}

// line starts a new line at depth, after a separating comma unless first.
func (e *encoder) line(depth int, first bool) {
	e.room(2 + 2*depth)
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '\n')
	e.buf = append(e.buf, indent[:2*depth]...)
}

// key starts an object member named by one of Export's fixed ASCII field
// names, which need no escaping.
func (e *encoder) key(depth int, name string, first bool) {
	e.line(depth, first)
	e.room(len(name) + 4)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':', ' ')
}

// idKey starts a tensor_cut or op_strategy member keyed by a decimal ID.
func (e *encoder) idKey(depth, id int, first bool) {
	e.line(depth, first)
	e.room(24)
	e.buf = append(e.buf, '"')
	e.buf = strconv.AppendInt(e.buf, int64(id), 10)
	e.buf = append(e.buf, '"', ':', ' ')
}

// end closes an object or array opened at depth-1 whose members sat at
// depth; an empty one closes on the opening line.
func (e *encoder) end(depth int, empty bool, closer string) {
	if !empty {
		e.line(depth-1, true)
	}
	e.lit(closer)
}

func (e *encoder) int(v int64) {
	e.room(20)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// float formats like encoding/json: ES6 number-to-string, i.e. 'f' format
// except 'e' below 1e-6 or at/above 1e21, with a one-digit negative
// exponent's leading zero dropped. The caller has rejected NaN and Inf.
func (e *encoder) float(f float64) {
	e.room(32)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str appends s quoted and escaped as encoding/json does with HTML escaping
// on: quote and backslash get a backslash, \b \f \n \r \t their short
// forms, other control bytes and <, >, & a \u00XX escape, invalid UTF-8
// bytes \ufffd, and U+2028/U+2029 their \u escapes.
func (e *encoder) str(s string) {
	e.lit(`"`)
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			e.room(6)
			switch {
			case b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&':
				e.buf = append(e.buf, b)
			case b == '"' || b == '\\':
				e.buf = append(e.buf, '\\', b)
			case b == '\b':
				e.buf = append(e.buf, '\\', 'b')
			case b == '\f':
				e.buf = append(e.buf, '\\', 'f')
			case b == '\n':
				e.buf = append(e.buf, '\\', 'n')
			case b == '\r':
				e.buf = append(e.buf, '\\', 'r')
			case b == '\t':
				e.buf = append(e.buf, '\\', 't')
			default:
				e.buf = append(e.buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			e.lit(`\ufffd`)
		case c == '\u2028' || c == '\u2029':
			e.room(6)
			e.buf = append(e.buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			e.lit(s[i : i+size])
		}
		i += size
	}
	e.lit(`"`)
}

// plan writes the Export form of p. Field order and omitempty rules follow
// the Export, StepExport, strat and PipelineInfo declarations.
func (e *encoder) plan(p *Plan, total float64) {
	e.lit("{")
	first := true
	if p.Digest != "" {
		e.key(1, "digest", true)
		e.str(p.Digest)
		first = false
	}
	e.key(1, "workers", first)
	e.int(p.K)
	e.key(1, "steps", false)
	if len(p.Steps) == 0 {
		e.lit("null")
	} else {
		e.lit("[")
		for i, s := range p.Steps {
			e.line(2, i == 0)
			e.step(s)
		}
		e.end(2, false, "]")
	}
	if pl := p.Pipeline; pl != nil {
		e.key(1, "pipeline", false)
		e.pipeline(pl)
	}
	if p.Degraded {
		e.key(1, "degraded", false)
		e.lit("true")
	}
	e.key(1, "total_comm_bytes", false)
	e.float(total)
	e.lit("\n}\n")
}

// step writes one StepExport at depth 2.
func (e *encoder) step(s *Step) {
	e.lit("{")
	e.key(3, "ways", true)
	e.int(s.K)
	e.key(3, "multiplier", false)
	e.int(s.Multiplier)
	e.key(3, "comm_bytes", false)
	e.float(s.CommBytes)
	if s.Level != 0 {
		e.key(3, "level", false)
		e.int(int64(s.Level))
	}
	if s.Stage != 0 {
		e.key(3, "stage", false)
		e.int(int64(s.Stage))
	}
	e.key(3, "tensor_cut", false)
	e.lit("{")
	empty := true
	for id := range decimalOrder(len(s.TensorCut)) {
		if d := s.TensorCut[id]; d >= 0 {
			e.idKey(4, id, empty)
			e.int(int64(d))
			empty = false
		}
	}
	e.end(4, empty, "}")
	e.key(3, "op_strategy", false)
	e.lit("{")
	empty = true
	for id := range decimalOrder(len(s.OpStrategy)) {
		st := &s.OpStrategy[id]
		if st.Axis == "" {
			continue
		}
		e.idKey(4, id, empty)
		e.lit("{")
		e.key(5, "kind", true)
		e.str(st.Kind.String())
		e.key(5, "axis", false)
		e.str(st.Axis)
		if st.OutDim != 0 {
			e.key(5, "dim", false)
			e.int(int64(st.OutDim))
		}
		e.end(5, false, "}")
		empty = false
	}
	e.end(4, empty, "}")
	e.end(3, false, "}")
}

// pipeline writes the PipelineInfo at depth 1.
func (e *encoder) pipeline(pl *PipelineInfo) {
	e.lit("{")
	e.key(2, "level", true)
	e.int(int64(pl.Level))
	e.key(2, "stages", false)
	if pl.Stages == nil {
		e.lit("null")
	} else {
		e.lit("[")
		for i, st := range pl.Stages {
			e.line(3, i == 0)
			e.lit("{")
			e.key(4, "groups", true)
			e.lit("[")
			e.line(5, true)
			e.int(int64(st.Groups[0]))
			e.line(5, false)
			e.int(int64(st.Groups[1]))
			e.end(5, false, "]")
			e.key(4, "workers", false)
			e.int(st.Workers)
			e.key(4, "handoff_bytes", false)
			e.float(st.HandoffBytes)
			e.end(4, false, "}")
		}
		e.end(3, len(pl.Stages) == 0, "]")
	}
	e.end(2, false, "}")
}

// decimalOrder yields 0..n-1 in the order of their decimal strings ("0",
// "1", "10", "100", "11", ..., "2", "20", ...) — the order encoding/json
// sorts string map keys in — by walking the decimal digit trie in preorder
// instead of formatting and sorting the keys.
func decimalOrder(n int) func(yield func(int) bool) {
	return func(yield func(int) bool) {
		if n == 0 || !yield(0) {
			return
		}
		// Lexicographic successor over 1..n-1: descend to the first child
		// when it exists, else climb past exhausted digits and step right.
		for cur, emitted := 1, 1; emitted < n; emitted++ {
			if !yield(cur) {
				return
			}
			if cur*10 < n {
				cur *= 10
				continue
			}
			for cur%10 == 9 || cur+1 >= n {
				cur /= 10
			}
			cur++
		}
	}
}

// ReadJSON parses a serialized plan back into its export form (tensor and
// node identities belong to the original graph, so the export — not a full
// Plan — is the unit of exchange). Every field is validated: malformed
// identifiers, unknown strategy kinds and inconsistent multipliers are
// errors, never silently-accepted zero values.
func ReadJSON(r io.Reader) (Export, error) {
	var ex Export
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ex); err != nil {
		return Export{}, fmt.Errorf("plan: decoding: %w", err)
	}
	if ex.Digest != "" {
		if err := ValidateDigest(ex.Digest); err != nil {
			return Export{}, err
		}
	}
	if ex.Workers < 1 {
		return Export{}, fmt.Errorf("plan: invalid worker count %d", ex.Workers)
	}
	if ex.Pipeline != nil {
		if err := validatePipeline(ex.Pipeline, ex.Workers); err != nil {
			return Export{}, err
		}
	}
	// Flat plans chain one multiplier product across all steps; stage-
	// annotated plans restart the chain at 1 inside each stage (every
	// stage's sub-machine divides only that stage's tensors), and the
	// per-stage products must each reach the stage's worker count.
	prod := int64(1)
	curStage := 0
	for si, s := range ex.Steps {
		if s.Ways < 2 {
			return Export{}, fmt.Errorf("plan: step %d: invalid ways %d", si, s.Ways)
		}
		if ex.Pipeline == nil {
			if s.Stage != 0 {
				return Export{}, fmt.Errorf("plan: step %d: stage %d without a pipeline descriptor", si, s.Stage)
			}
		} else {
			if s.Stage < curStage || s.Stage >= len(ex.Pipeline.Stages) {
				return Export{}, fmt.Errorf("plan: step %d: stage %d out of order (at stage %d of %d)",
					si, s.Stage, curStage, len(ex.Pipeline.Stages))
			}
			if s.Stage > curStage {
				if s.Stage != curStage+1 {
					return Export{}, fmt.Errorf("plan: stage %d has no steps", curStage+1)
				}
				if prod != ex.Pipeline.Stages[curStage].Workers {
					return Export{}, fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
						curStage, prod, ex.Pipeline.Stages[curStage].Workers)
				}
				curStage++
				prod = 1
			}
		}
		if s.Multiplier != prod {
			return Export{}, fmt.Errorf("plan: step %d: multiplier %d, want %d (product of prior ways)",
				si, s.Multiplier, prod)
		}
		if s.CommBytes < 0 || math.IsNaN(s.CommBytes) {
			return Export{}, fmt.Errorf("plan: step %d: invalid comm bytes %g", si, s.CommBytes)
		}
		if s.Level < 0 {
			return Export{}, fmt.Errorf("plan: step %d: invalid level %d", si, s.Level)
		}
		for tid, d := range s.TensorCut {
			id, err := strconv.Atoi(tid)
			if err != nil || id < 0 {
				return Export{}, fmt.Errorf("plan: step %d: malformed tensor ID %q", si, tid)
			}
			if d < 0 {
				return Export{}, fmt.Errorf("plan: step %d: tensor %s: invalid cut dim %d", si, tid, d)
			}
		}
		for nid, st := range s.OpStrategy {
			id, err := strconv.Atoi(nid)
			if err != nil || id < 0 {
				return Export{}, fmt.Errorf("plan: step %d: malformed node ID %q", si, nid)
			}
			switch st.Kind {
			case "output":
				if st.Dim < 0 {
					return Export{}, fmt.Errorf("plan: step %d: node %s: invalid output dim %d", si, nid, st.Dim)
				}
			case "reduce":
				// Dim is unused for reductions.
			default:
				return Export{}, fmt.Errorf("plan: step %d: node %s: unknown strategy kind %q", si, nid, st.Kind)
			}
			if st.Axis == "" {
				return Export{}, fmt.Errorf("plan: step %d: node %s: missing strategy axis", si, nid)
			}
		}
		prod *= s.Ways
	}
	if ex.Pipeline == nil {
		if prod != ex.Workers {
			return Export{}, fmt.Errorf("plan: steps multiply to %d, want %d", prod, ex.Workers)
		}
	} else {
		if curStage != len(ex.Pipeline.Stages)-1 {
			return Export{}, fmt.Errorf("plan: stage %d has no steps", curStage+1)
		}
		if prod != ex.Pipeline.Stages[curStage].Workers {
			return Export{}, fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
				curStage, prod, ex.Pipeline.Stages[curStage].Workers)
		}
	}
	return ex, nil
}

// validatePipeline audits a hybrid plan's stage descriptor: at least two
// stages of equal worker count multiplying to the plan's total, contiguous
// ascending group ranges from 0, hand-off bytes finite and absent on the
// last stage, and a stage level above the sub-machine's.
func validatePipeline(pl *PipelineInfo, workers int64) error {
	if pl.Level < 1 {
		return fmt.Errorf("plan: pipeline level %d invalid (stages straddle a level >= 1)", pl.Level)
	}
	if len(pl.Stages) < 2 {
		return fmt.Errorf("plan: pipeline with %d stage(s); need at least 2", len(pl.Stages))
	}
	kSub := pl.Stages[0].Workers
	if kSub < 1 {
		return fmt.Errorf("plan: pipeline stage 0: invalid worker count %d", kSub)
	}
	prevHi := 0
	for si, st := range pl.Stages {
		if st.Workers != kSub {
			return fmt.Errorf("plan: pipeline stage %d: %d workers, want %d (stages are equal sub-machines)",
				si, st.Workers, kSub)
		}
		if st.Groups[0] != prevHi || st.Groups[1] <= st.Groups[0] {
			return fmt.Errorf("plan: pipeline stage %d: group range [%d,%d) not contiguous after %d",
				si, st.Groups[0], st.Groups[1], prevHi)
		}
		prevHi = st.Groups[1]
		if st.HandoffBytes < 0 || math.IsNaN(st.HandoffBytes) || math.IsInf(st.HandoffBytes, 0) {
			return fmt.Errorf("plan: pipeline stage %d: invalid handoff bytes %g", si, st.HandoffBytes)
		}
		if si == len(pl.Stages)-1 && st.HandoffBytes != 0 {
			return fmt.Errorf("plan: last pipeline stage hands off %g bytes; want 0", st.HandoffBytes)
		}
	}
	if got := kSub * int64(len(pl.Stages)); got != workers {
		return fmt.Errorf("plan: pipeline stages cover %d workers, want %d", got, workers)
	}
	return nil
}

// DigestPrefix prefixes every request content digest.
const DigestPrefix = "sha256:"

// ValidateDigest checks the "sha256:<64 lowercase hex>" shape of a content
// digest — the same silent-garbage audit ReadJSON applies to IDs and
// strategy kinds, extended to the digest field.
func ValidateDigest(d string) error {
	if len(d) != len(DigestPrefix)+64 || d[:len(DigestPrefix)] != DigestPrefix {
		return fmt.Errorf("plan: malformed digest %q (want %s<64 hex>)", d, DigestPrefix)
	}
	for _, c := range d[len(DigestPrefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("plan: malformed digest %q (want %s<64 hex>)", d, DigestPrefix)
		}
	}
	return nil
}

// ReadJSONExpect is ReadJSON that additionally requires the plan to answer
// the request identified by want: a missing or different embedded digest is
// an error. This is how a plan fetched by digest (the service's
// /v1/plans/{digest}, a cached artifact on disk) proves it belongs to the
// request the caller hashed.
func ReadJSONExpect(r io.Reader, want string) (Export, error) {
	if err := ValidateDigest(want); err != nil {
		return Export{}, err
	}
	ex, err := ReadJSON(r)
	if err != nil {
		return Export{}, err
	}
	if ex.Digest != want {
		return Export{}, fmt.Errorf("plan: digest mismatch: plan carries %q, want %q", ex.Digest, want)
	}
	return ex, nil
}
