// Package oracle computes the true join results of an MSWJ: the output
// produced when the input streams are totally in order and synchronized with
// each other (Sec. II-B). The experiments measure recall γ(P) against this
// ground truth, exactly as the paper evaluates queries on a sorted version
// of each dataset.
//
// The oracle counts results per timestamp without materializing them, so
// even high-selectivity equi workloads (hundreds of millions of logical
// results) index in milliseconds.
package oracle

import (
	"sort"

	"repro/internal/join"
	"repro/internal/stream"
)

// Index is a queryable per-timestamp count of true results.
type Index struct {
	ts  []stream.Time // sorted ascending, unique
	cum []int64       // cum[i] = total results with timestamp ≤ ts[i]
}

// TrueResults evaluates the join over the globally timestamp-sorted version
// of the input batch and returns the index of true result counts.
func TrueResults(cond *join.Condition, windows []stream.Time, input stream.Batch) *Index {
	var ts []stream.Time
	var counts []int64
	op := join.New(cond, windows, join.WithCountEmit(func(t stream.Time, n int64) {
		if len(ts) > 0 && ts[len(ts)-1] == t {
			counts[len(counts)-1] += n
			return
		}
		ts = append(ts, t)
		counts = append(counts, n)
	}))
	for _, e := range input.SortedByTS() {
		op.Process(e)
	}
	return build(ts, counts)
}

// FromTimestamps builds an index from individual result timestamps; used by
// tests and when the truth was computed elsewhere.
func FromTimestamps(raw []stream.Time) *Index {
	sorted := append([]stream.Time(nil), raw...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var ts []stream.Time
	var counts []int64
	for _, t := range sorted {
		if len(ts) > 0 && ts[len(ts)-1] == t {
			counts[len(counts)-1]++
			continue
		}
		ts = append(ts, t)
		counts = append(counts, 1)
	}
	return build(ts, counts)
}

func build(ts []stream.Time, counts []int64) *Index {
	// Inputs may be unsorted in pathological cases; sort pairs together.
	idx := make([]int, len(ts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ts[idx[a]] < ts[idx[b]] })
	ix := &Index{}
	var running int64
	for _, i := range idx {
		if n := len(ix.ts); n > 0 && ix.ts[n-1] == ts[i] {
			running += counts[i]
			ix.cum[n-1] = running
			continue
		}
		running += counts[i]
		ix.ts = append(ix.ts, ts[i])
		ix.cum = append(ix.cum, running)
	}
	return ix
}

// Total returns the total number of true results.
func (ix *Index) Total() int64 {
	if len(ix.cum) == 0 {
		return 0
	}
	return ix.cum[len(ix.cum)-1]
}

// CountRange returns the number of true results with timestamp in (lo, hi].
func (ix *Index) CountRange(lo, hi stream.Time) int64 {
	return ix.cumAt(hi) - ix.cumAt(lo)
}

// cumAt returns the number of results with timestamp ≤ t.
func (ix *Index) cumAt(t stream.Time) int64 {
	i := sort.Search(len(ix.ts), func(i int) bool { return ix.ts[i] > t })
	if i == 0 {
		return 0
	}
	return ix.cum[i-1]
}

// Timestamps exposes the distinct result timestamps (read-only).
func (ix *Index) Timestamps() []stream.Time { return ix.ts }
