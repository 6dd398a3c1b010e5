package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianOf(os []outcome, f func(outcome) float64) float64 {
	xs := make([]float64, len(os))
	for i, o := range os {
		xs[i] = f(o)
	}
	return median(xs)
}

// digest renders a simulated result as a short, exact fingerprint.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// exact formats a float with every bit, so digests see any change.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// frac returns num/(num+other), 0 when both are 0.
func frac(num, other uint64) float64 {
	if num+other == 0 {
		return 0
	}
	return float64(num) / float64(num+other)
}
