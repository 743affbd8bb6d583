package main

import (
	"strings"
	"testing"
)

func TestGenFitRoundTrip(t *testing.T) {
	var trace strings.Builder
	if err := run([]string{"gen", "-rate", "5", "-n", "5000", "-seed", "2"}, nil, &trace); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	if err := run([]string{"fit"}, strings.NewReader(trace.String()), &report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "rate") || !strings.Contains(report.String(), "scv") {
		t.Errorf("fit report:\n%s", report.String())
	}
}

func TestGenMMPPAndBatch(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"gen", "-mmpp", "12:2:0.1:0.1", "-batch", "2", "-n", "1000"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(out.String()), "\n")) != 1000 {
		t.Error("wrong sample count")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"gen"},                                // no rate
		{"gen", "-rate", "-1"},                 // bad rate
		{"gen", "-mmpp", "1:2:3"},              // short mmpp spec
		{"gen", "-rate", "5", "-batch", "0.2"}, // bad batch
	}
	for _, args := range cases {
		if err := run(args, nil, &strings.Builder{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run([]string{"fit"}, strings.NewReader("not a number\n"), &strings.Builder{}); err == nil {
		t.Error("garbage trace accepted")
	}
}
