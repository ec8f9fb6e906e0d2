package main

import (
	"reflect"
	"testing"
)

func TestChildArgsDropsPerRunFlags(t *testing.T) {
	in := []string{"--steady", "5", "--seconds", "20", "--seed=3", "--workload", "paper-flat",
		"-trace", "1", "--expected", "e.json"}
	want := []string{"--seconds", "20", "--expected", "e.json"}
	if got := childArgs(in); !reflect.DeepEqual(got, want) {
		t.Errorf("childArgs = %q, want %q", got, want)
	}
}

func TestLastResult(t *testing.T) {
	out := []byte("row one\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"plan_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}\n\n")
	res, err := lastResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["plan_ms"].Value != 1.5 {
		t.Errorf("lastResult = %+v", res)
	}
	if _, err := lastResult([]byte("no result\n")); err == nil {
		t.Error("a run without a result line should be an error")
	}
}
