package main

import (
	"strings"
	"time"

	"gpufaas/internal/stats"
)

// tailLadder holds the percentiles a tail latency may be reported at, in
// basis points so the "ten samples beyond" test is exact integer
// arithmetic (99.9 has no exact float form). It stops at p99.9: the
// simulator workloads' samples would support p99.99, but a quantile
// with a few dozen samples beyond it swings with the seed.
var tailLadder = []int{5000, 9000, 9900, 9990}

// tailPercentile returns the highest ladder percentile (as a percentage)
// with at least ten of n samples beyond it, or 0 when not even the
// median has ten beyond it.
func tailPercentile(n int) float64 {
	best := 0
	for _, bp := range tailLadder {
		if n*(10000-bp) >= 10*10000 {
			best = bp
		}
	}
	return float64(best) / 100
}

// latencySummary is a latency sample reduced to the figures the
// benchmark reports, with the sample count and the tail percentile used.
type latencySummary struct {
	N       int
	TailPct float64
	Mean    float64
	P50     float64
	Tail    float64
}

// summarize applies the repository's one percentile definition
// (stats.Sample) at the median and at the tail percentile the sample
// supports.
func summarize(xs []float64) latencySummary {
	s := sampleOf(xs)
	ls := latencySummary{N: len(xs), TailPct: tailPercentile(len(xs))}
	if ls.N > 0 {
		ls.Mean = s.Mean()
		ls.P50 = s.Percentile(50)
		ls.Tail = s.Percentile(ls.TailPct)
	}
	return ls
}

func sampleOf(xs []float64) *stats.Sample {
	s := stats.NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// percentile is stats.Sample's percentile over xs.
func percentile(xs []float64, p float64) float64 { return sampleOf(xs).Percentile(p) }

// median is the 50th percentile under the same definition.
func median(xs []float64) float64 { return percentile(xs, 50) }

// medianDuration is median over durations, in seconds.
func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// Normalised failure causes of a live invocation. A cause groups every
// raw error string that shares a root, so counts compare across runs
// whose messages carry request-specific detail (IDs, timestamps).
const (
	causeOutOfOrder = "out_of_order"
	causeShed       = "shed"
	causeTimeout    = "timeout"
	causeOther      = "other"
)

var failureCauses = []string{causeOutOfOrder, causeShed, causeTimeout, causeOther}

// failureCause maps a failed HTTP invocation to its normalised cause.
func failureCause(status int, body string) string {
	switch {
	case status == 429:
		return causeShed
	case strings.Contains(body, "out-of-order enqueue"):
		return causeOutOfOrder
	case strings.Contains(body, "timed out"):
		return causeTimeout
	default:
		return causeOther
	}
}
