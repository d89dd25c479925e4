package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a workload's tail may be
// reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile for it to be more than one or two outliers.
const minBeyondTail = 10

// tailRule returns the highest percentile of tailLadder that leaves at
// least minBeyondTail of n samples beyond it, or 0 when even the median
// does not.
func tailRule(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyondTail {
			best = p
		}
	}
	return best
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float error in p/100*n (0.999*10000 is
	// 9990.000000000002) from pushing an exact rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), p)]
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
