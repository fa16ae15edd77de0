package main

import (
	"math"
	"sort"
)

// perOpMin reduces identical laps to one duration per op: the fastest
// any lap ran it. A lap is slowed by whatever else the machine did while
// it ran, never sped up, and the interference falls on different ops in
// different laps, so the minimum converges on the undisturbed cost.
func perOpMin(laps [][]int64) []int64 {
	out := append([]int64(nil), laps[0]...)
	for _, lap := range laps[1:] {
		for i, ns := range lap {
			if ns < out[i] {
				out[i] = ns
			}
		}
	}
	return out
}

func sumNS(ns []int64) int64 {
	var s int64
	for _, v := range ns {
		s += v
	}
	return s
}

// tailMean is the mean of the largest frac share of xs, at least one
// value. A mean over the tail repeats better than one order statistic
// inside it.
func tailMean(xs []float64, frac float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(frac * float64(len(s))))
	if k < 1 {
		k = 1
	}
	sum := 0.0
	for _, v := range s[len(s)-k:] {
		sum += v
	}
	return sum / float64(k)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
