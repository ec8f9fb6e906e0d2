package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// expectedPlan is what a request's plan must be: its bytes' sha256 and
// length, plus the simulated quality of that plan.
type expectedPlan struct {
	Name      string  `json:"name"`
	SHA256    string  `json:"sha256"`
	Bytes     int     `json:"bytes"`
	IterSec   float64 `json:"sim_iter_s"`
	PeakBytes int64   `json:"peak_bytes"`
}

// expected maps request digests to their expected plans. It is recorded by
// the -record mode and committed next to the benchmark.
type expected struct {
	Plans map[string]expectedPlan `json:"plans"`
}

func loadExpected(path string) (*expected, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading expected plans: %w", err)
	}
	var e expected
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(e.Plans) == 0 {
		return nil, fmt.Errorf("%s holds no expected plans", path)
	}
	return &e, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// check reports whether body is the expected plan for digest.
func (e *expected) check(digest string, body []byte) error {
	want, ok := e.Plans[digest]
	if !ok {
		return fmt.Errorf("no expected plan for %s", digest)
	}
	if got := sha256Hex(body); got != want.SHA256 || len(body) != want.Bytes {
		return fmt.Errorf("%s: plan bytes differ from expected (sha256 %s, %d bytes; want %s, %d bytes)",
			want.Name, got, len(body), want.SHA256, want.Bytes)
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first few
// failure reasons. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

const keptReasons = 5

// record counts one operation; a non-nil err makes it a failure.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < keptReasons {
		t.reasons = append(t.reasons, err.Error())
	}
}

// fail counts a failure detected after the fact (e.g. from a service
// counter) against operations already attempted.
func (t *tally) fail(n int64, why string) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.reasons) < keptReasons {
		t.reasons = append(t.reasons, why)
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// verifiedShare is the share of attempted operations that did not fail.
func (t *tally) verifiedShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-min(t.failed, t.attempted)) / float64(t.attempted)
}
