package main

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestKernelImportsNothing pins the calibration guard: the kernel's file
// imports no package at all — in particular none of this module — so no
// change to the program under test can reach it.
func TestKernelImportsNothing(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "kernel.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		t.Errorf("kernel.go imports %s; the calibration kernel must import nothing", imp.Path.Value)
	}
}

// TestKernelAllocatesNothing pins the other half of the guard: a reading
// allocates nothing, so neither the heap nor the GC can move it.
func TestKernelAllocatesNothing(t *testing.T) {
	var sink float64
	if n := testing.AllocsPerRun(10, func() { sink += kernel(1) }); n != 0 {
		t.Fatalf("kernel allocates %v times per call, want 0", n)
	}
	if sink == 0 {
		t.Fatal("kernel result is zero; the work may have been optimized away")
	}
}

// TestKernelIsDeterministic: the same rounds do the same work.
func TestKernelIsDeterministic(t *testing.T) {
	if a, b := kernel(2), kernel(2); a != b {
		t.Fatalf("kernel(2) = %v then %v", a, b)
	}
}
