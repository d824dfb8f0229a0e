package main

import (
	"math"
	"sort"
)

// median returns the middle of the values (mean of the two middle ones for
// an even count), 0 for none.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is what
// the acceptance check of the benchmark uses. It needs two values; with
// fewer it returns 0.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// tailPercentiles are the candidates for the reported tail, ascending.
var tailPercentiles = []float64{75, 90, 95, 99, 99.9, 99.99}

// Latency summarises one op class: the median, and the highest percentile
// that still has at least ten samples beyond it. With fewer than forty
// samples no percentile qualifies and TailPct is 0.
type Latency struct {
	N       int     `json:"n"`
	P50ms   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	TailMs  float64 `json:"tail_ms"`
}

// summarize applies the percentile rule to latencies in milliseconds.
func summarize(ms []float64) Latency {
	l := Latency{N: len(ms), P50ms: median(ms)}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9)) // nearest rank, 1-based; 99.9% of 10000 is 9990
		if len(s)-rank < 10 {
			break
		}
		l.TailPct, l.TailMs = p, s[rank-1]
	}
	return l
}
