package rng

import "math"

// Thin wrappers keep the distribution code readable without repeating the
// math package qualifier on every call.

func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }
func exp(x float64) float64  { return math.Exp(x) }
