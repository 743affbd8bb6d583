package main

import (
	"strings"
	"testing"
)

func TestRunSimulatesFederation(t *testing.T) {
	err := run([]string{"-scs", "10:8,10:4", "-shares", "2,2", "-price", "0.4",
		"-horizon", "2000", "-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithOutage(t *testing.T) {
	err := run([]string{"-scs", "10:8,10:4", "-shares", "2,2",
		"-horizon", "1500", "-outage", "0:200:300"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // missing spec
		{"-scs", "bad"},                      // bad spec
		{"-scs", "10:8", "-shares", "x"},     // bad shares
		{"-scs", "10:8", "-horizon", "-5"},   // bad horizon
		{"-scs", "10:8", "-outage", "0:1"},   // malformed outage
		{"-scs", "10:8", "-outage", "x:1:2"}, // bad outage sc
		{"-scs", "10:8", "-outage", "0:x:2"}, // bad outage start
		{"-scs", "10:8", "-outage", "0:1:x"}, // bad outage duration
		{"-scs", "10:8", "-shares", "1,2"},   // share length mismatch
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseOutage(t *testing.T) {
	o, err := parseOutage("1:100:50")
	if err != nil {
		t.Fatal(err)
	}
	if o.SC != 1 || o.Start != 100 || o.Duration != 50 {
		t.Errorf("outage %+v", o)
	}
}

func TestFlagParseError(t *testing.T) {
	if err := run([]string{"-horizon", "abc"}); err == nil ||
		!strings.Contains(err.Error(), "invalid") {
		t.Error("bad flag value accepted")
	}
}
