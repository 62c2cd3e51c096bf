package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/scenario"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer samples is one outlier.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q in n
// ascending samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// beyond counts the samples strictly above quantile q's rank.
func beyond(q float64, n int) int { return n - rank(q, n) }

// tailPct is a candidate tail percentile, highest first.
type tailPct struct {
	Label string
	Q     float64
}

var tailCandidates = []tailPct{{"p99", 0.99}, {"p90", 0.90}, {"p50", 0.50}}

// pickTail returns the highest of p99, p90 and p50, at most `highest`,
// that leaves at least minBeyond samples above it. With fewer than
// 2*minBeyond samples none does, and the median stands in (the label
// says so).
func pickTail(n int, highest float64) tailPct {
	for _, c := range tailCandidates {
		if c.Q <= highest && beyond(c.Q, n) >= minBeyond {
			return c
		}
	}
	return tailCandidates[len(tailCandidates)-1]
}

// quantile reads the nearest-rank q-quantile of ascending samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// median is the middle of the samples (mean of the two middles for an
// even count); it does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies summarizes request latencies in milliseconds.
type latencies struct {
	N       int
	P50     float64
	Tail    float64
	TailPct string
}

// summarize reads the median and the tail: the highest percentile up to
// `highest` that the samples support.
func summarize(samplesMS []float64, highest float64) latencies {
	s := sortedCopy(samplesMS)
	t := pickTail(len(s), highest)
	return latencies{N: len(s), P50: quantile(s, 0.50), Tail: quantile(s, t.Q), TailPct: t.Label}
}

// tally counts request outcomes. Every attempt lands in exactly one of
// OK, Failed (transport or non-503 HTTP error), Refused (HTTP 503 from
// the admission queue) or Wrong (a reply that failed the correctness
// check).
type tally struct {
	Attempted, OK, Failed, Refused, Wrong int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Wrong += o.Wrong
}

// failures is everything that did not return a correct reply.
func (t tally) failures() int { return t.Failed + t.Refused + t.Wrong }

// errorRate is failures over attempts (0 with nothing attempted).
func (t tally) errorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.Attempted)
}

// storeDelta renders the store's activity between two snapshots as the
// scenario.* per-layer metrics (digest_ms is timed separately).
func storeDelta(before, after scenario.Metrics) []metric {
	d := after.Sub(before)
	return []metric{
		{"scenario.run_hits", float64(d.RunHits), "count"},
		{"scenario.run_misses", float64(d.RunMisses), "count"},
		{"scenario.run_disk_hits", float64(d.RunDiskHits), "count"},
		{"scenario.measure_hits", float64(d.MeasureHits), "count"},
		{"scenario.measure_misses", float64(d.MeasureMisses), "count"},
		{"scenario.measure_disk_hits", float64(d.MeasureDiskHits), "count"},
		{"scenario.ckpt_forks", float64(d.CkptForks), "count"},
		{"scenario.ckpt_warmups", float64(d.CkptWarmups), "count"},
		{"scenario.static_hits", float64(d.StaticHits), "count"},
		{"scenario.dedup_ratio", d.DedupRatio(), "ratio"},
		{"scenario.bytes_read", float64(d.BytesRead), "B"},
		{"scenario.bytes_written", float64(d.BytesWritten), "B"},
	}
}
