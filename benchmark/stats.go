package main

import (
	"slices"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by nearest rank, 0 when
// xs is empty. xs is sorted in place.
func percentile[T int | int64 | float64 | time.Duration](xs []T, p float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(p * float64(len(xs)))
	return xs[min(i, len(xs)-1)]
}

func median[T int | int64 | float64 | time.Duration](xs []T) T { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mib(b uint64) float64       { return float64(b) / (1 << 20) }

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method); the driver
// computes a metric's spread as (Q3 - Q1) / median from them.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := slices.Clone(values)
	slices.Sort(xs)
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// timed returns how long fn took.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
