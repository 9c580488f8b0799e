package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// summary is one metric as printed and stored: the median over its
// samples, the quartiles, and the highest percentile that still has at
// least ten samples beyond it (p90 from 100 samples, p99 from 1000).
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	HiPct  float64 `json:"hi_pct,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
}

// summarize reduces samples to a summary. One sample is its own median
// and quartiles.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s.Median = quantileSorted(v, 0.5)
	s.Q1, s.Q3 = quartilesSorted(v)
	for _, permille := range []int{999, 990, 900} {
		if len(v)*(1000-permille) >= 10*1000 { // ten samples beyond it
			p := float64(permille) / 1000
			s.HiPct, s.Hi = 100*p, quantileSorted(v, p)
			break
		}
	}
	return s
}

// median returns the middle of v (mean of the middle two when even).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates linearly between the closest ranks of a
// sorted sample.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// quartilesSorted returns the first and third quartile exactly as
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// so a spread computed here equals the one the benchmark driver computes.
func quartilesSorted(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q1, q3 := quartilesSorted(s)
	return math.Abs((q3 - q1) / quantileSorted(s, 0.5))
}

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
		// reading would only zero one delta.
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memNow reads the allocator's cumulative counters.
func memNow() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// millis and friends convert durations to the units metrics are printed in.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func nanos(d time.Duration) float64  { return float64(d.Nanoseconds()) }

// medianDur is the median of a duration sample.
func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}
