package main

import (
	"errors"
	"strings"
	"testing"
)

func testExpected() *expected {
	body := []byte(`{"plan":1}`)
	return &expected{Plans: map[string]expectedPlan{
		"sha256:aa": {Name: "a", SHA256: sha256Hex(body), Bytes: len(body)},
	}}
}

func TestExpectedCheck(t *testing.T) {
	e := testExpected()
	if err := e.check("sha256:aa", []byte(`{"plan":1}`)); err != nil {
		t.Fatalf("matching bytes rejected: %v", err)
	}
	if err := e.check("sha256:aa", []byte(`{"plan":2}`)); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Errorf("different bytes: err = %v, want a mismatch", err)
	}
	if err := e.check("sha256:bb", []byte(`{"plan":1}`)); err == nil {
		t.Error("unknown digest accepted")
	}
}

// A plan that differs from the expected bytes counts as a failed
// operation, and the run's result is then not correct.
func TestGoldenMismatchCountsAsFailure(t *testing.T) {
	e := testExpected()
	rep := newReport()
	rep.tally.record(e.check("sha256:aa", []byte(`{"plan":1}`)))
	rep.tally.record(e.check("sha256:aa", []byte(`{"plan":1} `)))
	for _, m := range endToEnd {
		if m.name != "verified_share" {
			rep.set(m.name, 1)
		}
	}
	res, err := resultOf(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Errorf("result = attempted %d failed %d correct %v; want 2, 1, false", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["verified_share"].Value; got != 0.5 {
		t.Errorf("verified_share = %g, want 0.5", got)
	}
}

func TestTallyFailAfterTheFact(t *testing.T) {
	var tl tally
	for i := 0; i < 4; i++ {
		tl.record(nil)
	}
	tl.record(errors.New("boom"))
	tl.fail(1, "store entry failed verification")
	tl.fail(0, "ignored")
	if tl.attempted != 5 || tl.failed != 2 || len(tl.reasons) != 2 {
		t.Errorf("tally = %d attempted, %d failed, reasons %q", tl.attempted, tl.failed, tl.reasons)
	}
	if got := tl.verifiedShare(); got != 0.6 {
		t.Errorf("verified share = %g, want 0.6", got)
	}
}

// The committed expected plans cover every planner item.
func TestExpectedCoversPlannerItems(t *testing.T) {
	e, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for w := range plannerSpecs {
		items, err := plannerItems(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if _, ok := e.Plans[it.Digest]; !ok {
				t.Errorf("%s: %s has no expected plan", w, it.Name)
			}
		}
	}
}
