package main

import (
	"math"
	"sort"
)

// summary is the spread of one metric's samples. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the exclusive method), so
// a spread computed here matches one computed from the -json file.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: n, Min: s[0], Max: s[n-1], Q1: s[0], Q3: s[n-1]}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return out
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	out.Q1, out.Q3 = quartile(1), quartile(3)
	return out
}

func median(samples []float64) float64 { return summarize(samples).Median }

func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
