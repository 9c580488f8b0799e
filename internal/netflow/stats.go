package netflow

import "math"

// Stats is an online accumulator (Welford) for min/max/mean/std/sum of a
// stream of float64 observations. The zero value is ready to use; Min
// and Max read 0 until the first observation.
type Stats struct {
	N        int
	Min, Max float64
	Sum      float64
	mean, m2 float64
}

// Add records one observation.
func (s *Stats) Add(x float64) {
	if s.N == 0 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.N++
	s.Sum += x
	d := x - s.mean
	s.mean += d / float64(s.N)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean (0 when empty).
func (s *Stats) Mean() float64 { return s.mean }

// Variance returns the population variance (0 when fewer than 2 samples).
func (s *Stats) Variance() float64 {
	if s.N < 2 {
		return 0
	}
	return s.m2 / float64(s.N)
}

// Std returns the population standard deviation.
func (s *Stats) Std() float64 { return math.Sqrt(s.Variance()) }
