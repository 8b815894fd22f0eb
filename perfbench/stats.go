package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have beyond
// it: a p99 over fewer than 1000 samples would be a maximum in disguise.
const minTail = 10

// percentile returns the nearest-rank p-quantile of values (which it
// sorts in place). It fails when fewer than minTail samples lie strictly
// above the selected rank, so a tail is never reported from too few
// samples.
func percentile(values []float64, p float64) (float64, error) {
	n := len(values)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%v of no samples", 100*p)
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("percentile %v outside [0,1]", p)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("percentile p%v of %d samples has %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	sort.Float64s(values)
	return values[idx], nil
}

// median returns the middle value of values (the mean of the two middle
// values for an even count), sorting values in place. It is for repeated
// measurements — set-up repetitions, per-round statistics — where no tail
// rule applies.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sort.Float64s(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// mean returns the arithmetic mean of values (0 when empty).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does not
// exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
