package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of nanosecond durations: 128
// sub-buckets per power of two (bucket width under 0.8% of the value), no
// allocation per sample, so a run of any length keeps the same heap.
// quantile interpolates inside the bucket, so values are not quantized.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	return (exp+1)*histSub + int(v>>uint(exp)&(histSub-1))
}

// histBounds returns the value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	exp := uint(i/histSub - 1)
	lo = (histSub + uint64(i%histSub)) << exp
	return lo, lo + 1<<exp
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return float64(lo) + float64(hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return float64(hi)
}

// summary is a metric's value over repetitions: the median is reported, min
// and max show the spread, n is the sample count behind each repetition.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Reps   int     `json:"reps"`
	N      uint64  `json:"n"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func summarize(v []float64, n uint64) summary {
	s := summary{Median: median(v), Reps: len(v), N: n}
	for i, x := range v {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}
