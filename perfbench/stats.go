package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the benchmark's percentile rule: report the
// highest percentile, at most the 99th, that still has at least ten
// samples beyond it. It returns the value at that nearest-rank
// percentile and the percentile itself (0.99 once there are 1000
// samples). With ten or fewer samples no percentile qualifies and the
// maximum is returned with percentile 1.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	if n <= 10 {
		return s[n-1], 1
	}
	pct = math.Min(0.99, float64(n-10)/float64(n))
	idx := int(math.Ceil(pct*float64(n))) - 1
	return s[idx], pct
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
