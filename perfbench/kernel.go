package main

// The calibration kernel lives alone in this file, which imports nothing:
// kernel_test.go pins that, and that it allocates nothing, so no change to
// the program under test can move its timing. Only the host can.

// kernelTable is the kernel's read-only working set: 16 KiB, inside any
// L1 data cache. A larger table reads differently from one process to the
// next depending on which physical pages back it; this one does not.
var kernelTable [1 << 11]float64

func init() {
	for i := range kernelTable {
		kernelTable[i] = float64(i%97) / 128
	}
}

// kernelRounds is the work in one reading on one goroutine; about 0.75 ms
// at nominal speed (see nominalKernelNs).
const kernelRounds = 128

// kernel does a fixed amount of work: rounds passes over kernelTable of
// xorshift-indexed loads feeding a multiply-add chain. The result depends
// only on rounds; callers keep it live so the compiler cannot drop the
// loop.
func kernel(rounds int) float64 {
	x := uint64(0x9E3779B97F4A7C15)
	acc := 0.0
	for r := 0; r < rounds; r++ {
		for i := range kernelTable {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc = acc*0.999 + kernelTable[x&uint64(len(kernelTable)-1)]*kernelTable[i]
		}
	}
	return acc
}
