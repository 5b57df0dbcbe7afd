// Package hist implements the coarse-grained tuple-delay histogram used by
// the Statistics Manager to approximate the delay pdf f_Di (Sec. IV-A).
//
// Delays are coarsened at the K-search granularity g: bucket 0 holds exactly
// the tuples with delay 0, and bucket d ≥ 1 holds delays in ((d−1)·g, d·g].
// The histogram supports incremental insertion and removal so it can track a
// sliding history whose length is dictated by ADWIN. The Buffer-Size Manager
// reads the integer counts in place (Counts, Total): every F_D(d) it needs is
// a ratio of a cumulative count to the total, so no float table is derived.
package hist

import "repro/internal/stream"

// MaxBuckets bounds every structure indexed by coarse delay. Nothing
// upstream bounds delay = localT − TS: one stale timestamp on an
// epoch-millisecond stream would otherwise ask for ≈ 10¹¹ buckets, a fatal
// out-of-memory no supervisor can catch. 2²⁰ buckets are ≈ 2.9 h at
// g = 10 ms; longer delays share the top bucket.
const MaxBuckets = 1 << 20

// Bucket maps a raw delay to its coarse bucket index at granularity g > 0,
// clamped to MaxBuckets−1. It is the one coarsening rule: the delay
// histograms and the productivity profiler both index by it.
func Bucket(delay, g stream.Time) int {
	if delay <= 0 {
		return 0
	}
	b := (delay-1)/g + 1
	if b >= MaxBuckets {
		return MaxBuckets - 1
	}
	return int(b)
}

// Histogram counts coarse-grained tuple delays. counts carries no trailing
// empty bucket: its last entry is the highest non-empty one.
type Histogram struct {
	g      stream.Time
	counts []int64
	total  int64
}

// New creates a histogram with granularity g > 0.
func New(g stream.Time) *Histogram {
	if g <= 0 {
		g = 1
	}
	return &Histogram{g: g}
}

// Granularity returns g.
func (h *Histogram) Granularity() stream.Time { return h.g }

// Add records one tuple delay.
func (h *Histogram) Add(delay stream.Time) {
	b := Bucket(delay, h.g)
	if b >= cap(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	} else if b >= len(h.counts) {
		// counts[len:cap] is all zero — Remove trims only empty buckets, Reset
		// clears first — so regrowing into it needs no append (whose make the
		// race detector's build would really allocate).
		h.counts = h.counts[:b+1]
	}
	h.counts[b]++
	h.total++
}

// Remove forgets one previously added delay. Removing a delay that was never
// added leaves the histogram unchanged. Emptying the top bucket trims the
// length (the capacity stays) down to the next non-empty one.
func (h *Histogram) Remove(delay stream.Time) {
	b := Bucket(delay, h.g)
	if b >= len(h.counts) || h.counts[b] == 0 {
		return
	}
	h.counts[b]--
	h.total--
	n := len(h.counts)
	for n > 0 && h.counts[n-1] == 0 {
		n--
	}
	h.counts = h.counts[:n]
}

// Total returns the number of recorded delays.
func (h *Histogram) Total() int64 { return h.total }

// Counts returns the live per-bucket counts, bucket 0 first and the highest
// non-empty bucket last. The slice is the histogram's own storage: read it,
// never write it, and do not hold it across an Add or Remove.
func (h *Histogram) Counts() []int64 { return h.counts }

// Reset drops every recorded delay, keeping the granularity. Restore paths
// rebuild the histogram from a serialized history through it.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.counts = h.counts[:0]
	h.total = 0
}

// Recount empties the histogram for a caller that counts a subset of its
// delays back in: it zeroes the live buckets and returns them. Each such
// delay's bucket is live, since the delay was counted before, so the caller
// increments counts[Bucket(delay, g)] with no growth check, then closes the
// recount with Recounted.
func (h *Histogram) Recount() (counts []int64) {
	clear(h.counts)
	return h.counts
}

// Recounted closes a Recount that counted total delays, the highest in
// bucket top (−1 for none).
func (h *Histogram) Recounted(total int64, top int) {
	h.counts = h.counts[:top+1]
	h.total = total
}

// MaxDelay returns an upper bound of the maximum recorded delay (the top edge
// of the highest non-empty bucket), or 0 when empty.
func (h *Histogram) MaxDelay() stream.Time {
	if len(h.counts) == 0 {
		return 0
	}
	return stream.Time(len(h.counts)-1) * h.g
}
