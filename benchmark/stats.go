package main

import (
	"math"
	"sort"
	"time"
)

// summary describes a sample: its size, quartiles and the highest
// percentile that still has at least ten samples beyond it.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	// Tail is the percentile TailPct of the sample; TailPct is 0 when the
	// sample is too small to have ten values beyond any reported percentile.
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tailPct,omitempty"`
}

// quantile interpolates between order statistics of a sorted sample the
// way Python's statistics.quantiles does by default (the exclusive method:
// the q-quantile sits at position q*(n+1), clamped to the sample), so the
// spreads -compare prints are the ones the driver computes. An empty
// sample gives 0, which JSON can carry; the sample count beside every
// number says when that happened.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := math.Min(math.Max(q*float64(len(sorted)+1)-1, 0), float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
	for _, pct := range []float64{0.99, 0.95, 0.9} {
		if float64(len(s))*(1-pct) >= 10 {
			out.Tail, out.TailPct = quantile(s, pct), pct*100
			break
		}
	}
	return out
}

func median(xs []float64) float64 { return summarize(xs).P50 }

func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
