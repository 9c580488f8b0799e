package hdc

import (
	"runtime"
	"sync"
)

// parallelThreshold is the iteration count below which fan-out overhead
// dominates and loops run inline.
const parallelThreshold = 256

// Serial reports whether a loop over n items would run inline (single
// chunk, current goroutine) rather than fan out. Allocation-free paths
// check it before constructing a closure for ParallelChunks: a func
// value passed to a potentially-goroutine-spawning callee always escapes
// to the heap, even on the inline path.
func Serial(n int) bool {
	return n < parallelThreshold || runtime.GOMAXPROCS(0) <= 1
}

// ParallelChunks runs body(lo, hi) over contiguous chunks covering [0, n),
// one per GOMAXPROCS worker, so adjacent indices stay on the same core
// (cache-friendly for row-major batch work). It runs inline as a single
// chunk when n is small enough that goroutine overhead would dominate.
func ParallelChunks(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < parallelThreshold || workers <= 1 {
		body(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
