// Package stats implements the Statistics Manager of Fig. 2: it monitors the
// raw input streams to estimate, per stream, the tuple-delay distribution
// f_Di, the arrival rate r_i, the Synchronizer's implicit buffer size
// K^sync_i (Proposition 1), and the current maximum tuple delay MaxD^H used
// to bound the K search in Alg. 3.
//
// The delay history R^stat_i is sized adaptively with ADWIN (Sec. IV-A,
// citing Bifet & Gavaldà): the history grows while the disorder pattern is
// stable and shrinks when a change is detected. A fixed-size history is
// available as an ablation.
//
// Only Alg. 3's K search reads R^stat, so a Manager may be history-free
// (SetHistory(false), which the feedback loop chooses when no scope runs the
// model policy): Observe then keeps the local clocks, GlobalT, the arrival
// counts and first timestamps behind Rate, and the all-time maximum delay
// that Max-K-slack decides on, and skips ADWIN, R^stat, the histograms and
// the skew sums, so HistoryLen, MaxDelayRecent and KSync read 0.
//
// A history-keeping Observe runs on every raw arrival: the local clocks iT
// sit in one dense slice (the K^sync skew scan reads all m), max_i iT is
// maintained on the way in rather than re-derived per GlobalT call, and a
// warmed Manager allocates nothing. The history is a fifo.Pairs: each
// (delay, skew) entry takes two zigzag varints in recycled byte blocks, 2 to
// 5 bytes on the gated feeds where a pair of Times took 16.
//
// An ADWIN cut trims R^stat in one push, usually by far more than it keeps
// (on the x3 feed a cut removes 417 entries on average and keeps 71). Such
// a trim skips the removed entries through the history's marks, walking
// fewer than 32 tags, and rebuilds the histogram and the skew sum from the
// kept entries, decoded 64 at a time onto the stack and counted straight
// into the zeroed live buckets, instead of decoding and un-counting every
// removed entry. A short trim, or one while a delay of hours stretches the
// histogram, pops as before (trim).
package stats

import (
	"fmt"

	"repro/internal/adwin"
	"repro/internal/fifo"
	"repro/internal/hist"
	"repro/internal/stream"
)

const (
	adwinDelta = 0.002 // ADWIN's confidence parameter δ, the canonical choice
	maxHistory = 8192  // history cap even under ADWIN: bounds memory on very stable streams
)

// streamStats tracks one input stream; its local current time iT is
// Manager.localT[i].
type streamStats struct {
	ad      *adwin.Window // nil under a fixed history and on a history-free Manager
	hist    *hist.Histogram
	delays  [1]*hist.Histogram // {hist}: what Delays hands out, built once
	history fifo.Pairs         // R^stat_i as (delay, skew = iT − min_j jT at arrival); ADWIN shrinks and regrows it
	sumSkew int64
	cleared int64 // histogram buckets the trims' rebuilds cleared; read by tests only

	seen     bool
	arrivals int64
	firstTS  stream.Time
	maxDelay stream.Time // all-time maximum delay (for the Max-K-slack baseline)
}

// Manager monitors m input streams.
type Manager struct {
	g       stream.Time
	streams []streamStats
	localT  []stream.Time // iT per stream; 0 until the stream is seen
	globalT stream.Time   // max iT over the streams seen; 0 before any arrival
	fixed   int           // fixed history length; 0 means ADWIN-adaptive
	maxHist int
	nSeen   int
	noHist  bool // history-free: Observe keeps the clocks and the all-time max delay only
}

// Option customizes the Manager.
type Option func(*Manager)

// WithFixedHistory disables ADWIN and keeps exactly n most recent delays per
// stream. Used by the R^stat ablation.
func WithFixedHistory(n int) Option {
	return func(m *Manager) { m.fixed = n }
}

// NewManager creates a Statistics Manager for m streams with K-search
// granularity g.
func NewManager(m int, g stream.Time, opts ...Option) *Manager {
	mgr := &Manager{g: g, maxHist: maxHistory}
	for _, o := range opts {
		o(mgr)
	}
	mgr.streams = make([]streamStats, m)
	mgr.localT = make([]stream.Time, m)
	for i := range mgr.streams {
		ss := &mgr.streams[i]
		ss.hist = hist.New(g)
		ss.delays[0] = ss.hist
	}
	mgr.SetHistory(true)
	return mgr
}

// SetHistory chooses whether the Manager keeps R^stat — ADWIN, the history,
// the delay histograms and the skew sums — or only what the baselines read:
// the clocks, the arrival counts and the all-time maximum delay. A new
// Manager keeps it. The choice is made before the first arrival; SetHistory
// panics on a Manager that has seen one.
func (m *Manager) SetHistory(keep bool) {
	if m.nSeen > 0 {
		panic("stats: SetHistory after the first arrival — the history would start mid-stream")
	}
	m.noHist = !keep
	for i := range m.streams {
		ss := &m.streams[i]
		switch {
		case !keep || m.fixed > 0:
			ss.ad = nil
		case ss.ad == nil:
			ss.ad = adwin.New(adwinDelta)
		}
	}
}

// M returns the number of monitored streams.
func (m *Manager) M() int { return len(m.streams) }

// Observe records the raw arrival of tuple e (before any disorder handling).
func (m *Manager) Observe(e *stream.Tuple) {
	ss := &m.streams[e.Src]
	lt := m.localT[e.Src]
	if !ss.seen || e.TS > lt {
		if !ss.seen {
			ss.seen = true
			ss.firstTS = e.TS
			m.nSeen++
		}
		lt = e.TS
		m.localT[e.Src] = lt
		if lt > m.globalT || m.nSeen == 1 { // the first clock seen may be negative
			m.globalT = lt
		}
	}
	ss.arrivals++
	delay := lt - e.TS
	if delay > ss.maxDelay {
		ss.maxDelay = delay
	}
	if m.noHist {
		return
	}

	// Time skew measurement for K^sync (Proposition 1): taken against the
	// slowest stream among those seen so far.
	var skew stream.Time
	if m.nSeen == len(m.streams) {
		minT := lt
		for _, t := range m.localT {
			if t < minT {
				minT = t
			}
		}
		skew = lt - minT
	}

	m.push(ss, delay, skew)
}

// push appends to the history and trims it to the target length.
func (m *Manager) push(ss *streamStats, delay, skew stream.Time) {
	target := m.fixed
	if ss.ad != nil {
		ss.ad.Add(float64(delay))
		target = ss.ad.Len()
	}
	if target <= 0 || target > m.maxHist {
		target = m.maxHist
	}
	ss.history.Push(int64(delay), int64(skew))
	ss.sumSkew += int64(skew)
	ss.hist.Add(delay)
	if r := ss.history.Len() - target; r > 0 {
		ss.trim(r)
	}
}

// clearPerEntry is how many histogram buckets a rebuild clears in the time a
// trim pops one entry.
const clearPerEntry = 64

// trim removes the r oldest entries of R^stat and their share of the
// histogram and the skew sum. Popping pays a decode and a histogram removal
// per removed entry; a rebuild skips the removed entries, clears the live
// buckets and counts the kept entries back in, so it pays per kept entry
// and per histogram bucket. An ADWIN cut usually removes more than it
// keeps. The buckets count because one long delay stretches the histogram
// to up to hist.MaxBuckets: while such a delay is live a rebuild would clear
// 8 MB, and the trim pops instead. Either way the history, the histogram and
// the skew sum end as popping leaves them.
func (ss *streamStats) trim(r int) {
	keep := ss.history.Len() - r
	if r <= keep+len(ss.hist.Counts())/clearPerEntry {
		for ; r > 0; r-- {
			delay, skew := ss.history.Pop()
			ss.sumSkew -= skew
			ss.hist.Remove(stream.Time(delay))
		}
		return
	}
	ss.history.Skip(r)
	ss.cleared += int64(len(ss.hist.Counts()))
	counts, g := ss.hist.Recount(), ss.hist.Granularity()
	top, sumSkew := -1, int64(0)
	var delays, skews [64]int64
	rd := ss.history.Reader()
	for left := keep; left > 0; left -= len(delays) {
		n := min(left, len(delays))
		rd.Read(delays[:n], skews[:n])
		for j, delay := range delays[:n] {
			b := hist.Bucket(stream.Time(delay), g)
			counts[b]++
			top = max(top, b)
			sumSkew += skews[j]
		}
	}
	ss.hist.Recounted(int64(keep), top)
	ss.sumSkew = sumSkew
}

// StreamState is the serializable snapshot of one stream's statistics.
type StreamState struct {
	Delays   []stream.Time // live history entries, oldest first
	Skews    []stream.Time
	Adwin    *adwin.State // nil under a fixed history
	LocalT   stream.Time
	Seen     bool
	Arrivals int64
	FirstTS  stream.Time
	MaxDelay stream.Time
}

// State is the serializable snapshot of the Manager.
type State struct {
	Streams []StreamState
}

// State captures the Manager's state. The histogram and skew sums are not
// serialized: Restore rebuilds them from the history entries.
func (m *Manager) State() State {
	st := State{Streams: make([]StreamState, len(m.streams))}
	for i := range m.streams {
		ss := &m.streams[i]
		s := StreamState{
			LocalT: m.localT[i], Seen: ss.seen, Arrivals: ss.arrivals,
			FirstTS: ss.firstTS, MaxDelay: ss.maxDelay,
		}
		if n := ss.history.Len(); n > 0 {
			s.Delays, s.Skews = make([]stream.Time, 0, n), make([]stream.Time, 0, n)
			for delay, skew := range ss.history.All() {
				s.Delays = append(s.Delays, stream.Time(delay))
				s.Skews = append(s.Skews, stream.Time(skew))
			}
		}
		if ss.ad != nil {
			ad := ss.ad.State()
			s.Adwin = &ad
		}
		st.Streams[i] = s
	}
	return st
}

// Restore loads a captured state into a freshly constructed Manager (same m,
// granularity, options and SetHistory). Histories re-enter without
// re-trimming and without feeding ADWIN — its native state is restored
// instead — so the restored manager answers every query exactly as the
// checkpointed one did. A history-free Manager takes the clocks and counts
// and drops the histories a state may carry (one written by a Manager that
// kept them), after the same checks.
// It panics with a "stats: restore: …" message on a state no Manager of this
// shape can have produced: a different stream count, a stream whose Delays
// and Skews differ in length, a history longer than the cap, or a negative
// delay or skew (Observe measures both against the stream's own clock,
// which is at least the arrival's timestamp and the slowest stream's).
func (m *Manager) Restore(st State) {
	if len(st.Streams) != len(m.streams) {
		panic(fmt.Sprintf("stats: restore: state of %d streams into a manager of %d", len(st.Streams), len(m.streams)))
	}
	m.nSeen = 0
	m.globalT = 0
	for i, s := range st.Streams {
		if len(s.Delays) != len(s.Skews) {
			panic(fmt.Sprintf("stats: restore: stream %d has %d delays and %d skews", i, len(s.Delays), len(s.Skews)))
		}
		if len(s.Delays) > m.maxHist {
			panic(fmt.Sprintf("stats: restore: stream %d has %d history entries, over the cap of %d", i, len(s.Delays), m.maxHist))
		}
		for j, d := range s.Delays {
			if d < 0 || s.Skews[j] < 0 {
				panic(fmt.Sprintf("stats: restore: stream %d entry %d has delay %d and skew %d", i, j, d, s.Skews[j]))
			}
		}
		ss := &m.streams[i]
		m.localT[i] = s.LocalT
		ss.seen = s.Seen
		ss.arrivals = s.Arrivals
		ss.firstTS = s.FirstTS
		ss.maxDelay = s.MaxDelay
		if ss.seen {
			if m.nSeen == 0 || s.LocalT > m.globalT {
				m.globalT = s.LocalT
			}
			m.nSeen++
		}
		if m.noHist {
			continue
		}
		ss.history.Reset()
		ss.sumSkew = 0
		ss.hist.Reset()
		for j, d := range s.Delays {
			ss.history.Push(int64(d), int64(s.Skews[j]))
			ss.sumSkew += int64(s.Skews[j])
			ss.hist.Add(d)
		}
		if ss.ad != nil && s.Adwin != nil {
			ss.ad.Restore(*s.Adwin)
		}
	}
}

// Hist returns the delay histogram f_Di of stream i over R^stat_i.
func (m *Manager) Hist(i int) *hist.Histogram { return m.streams[i].hist }

// Delays returns stream i's live delay histogram as a one-member group. It
// makes the Manager an adapt.Source whose model inputs are the raw streams.
func (m *Manager) Delays(i int) []*hist.Histogram { return m.streams[i].delays[:] }

// HistoryLen returns the current length of R^stat_i in tuples.
func (m *Manager) HistoryLen(i int) int { return m.streams[i].history.Len() }

// Rate returns the average arrival rate r_i in tuples per time unit,
// measured as total arrivals over the stream's timestamp span.
func (m *Manager) Rate(i int) float64 {
	ss := &m.streams[i]
	span := m.localT[i] - ss.firstTS
	if ss.arrivals < 2 || span <= 0 {
		return 0
	}
	return float64(ss.arrivals-1) / float64(span)
}

// Arrivals returns the total number of tuples observed on stream i.
func (m *Manager) Arrivals(i int) int64 { return m.streams[i].arrivals }

// KSync estimates the Synchronizer's implicit buffer size for stream i as
// the stream's average skew minus the minimum average skew over all streams
// (Sec. IV-A), so the slowest stream has K^sync = 0.
func (m *Manager) KSync(i int) stream.Time {
	min := m.avgSkew(0)
	for j := 1; j < len(m.streams); j++ {
		if s := m.avgSkew(j); s < min {
			min = s
		}
	}
	v := m.avgSkew(i) - min
	if v < 0 {
		return 0
	}
	return stream.Time(v)
}

func (m *Manager) avgSkew(i int) float64 {
	ss := &m.streams[i]
	if ss.history.Len() == 0 {
		return 0
	}
	return float64(ss.sumSkew) / float64(ss.history.Len())
}

// MaxDelayRecent returns MaxD^H: the maximum tuple delay within the recent
// histories of all streams (bucket-rounded up to granularity g).
func (m *Manager) MaxDelayRecent() stream.Time {
	var max stream.Time
	for i := range m.streams {
		if d := m.streams[i].hist.MaxDelay(); d > max {
			max = d
		}
	}
	return max
}

// MaxDelayAllTime returns the maximum delay among all so-far-observed tuples
// across all streams, the quantity tracked by the Max-K-slack baseline [12].
func (m *Manager) MaxDelayAllTime() stream.Time {
	var max stream.Time
	for i := range m.streams {
		if d := m.streams[i].maxDelay; d > max {
			max = d
		}
	}
	return max
}

// LocalT returns the local current time iT of stream i.
func (m *Manager) LocalT(i int) stream.Time { return m.localT[i] }

// GlobalT returns max_i iT over the streams seen so far (0 before any
// arrival), the framework's logical "now" used to schedule adaptation steps.
func (m *Manager) GlobalT() stream.Time { return m.globalT }
