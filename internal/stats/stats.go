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
// Observe runs on every raw arrival, whatever the policy and the plan shape:
// the local clocks iT sit in one dense slice (the K^sync skew scan reads all
// m), max_i iT is maintained on the way in rather than re-derived per GlobalT
// call, and a warmed Manager allocates nothing (history).
package stats

import (
	"fmt"

	"repro/internal/adwin"
	"repro/internal/hist"
	"repro/internal/stream"
)

const (
	adwinDelta = 0.002 // ADWIN's confidence parameter δ, the canonical choice
	maxHistory = 8192  // history cap even under ADWIN: bounds memory on very stable streams
	blockLen   = 256   // the history's allocation unit, 4 KiB of entries
)

// entry is one observed arrival in the history window.
type entry struct {
	delay stream.Time
	skew  stream.Time // iT − min_j jT measured at arrival
}

// history is R^stat_i as a FIFO of fixed blocks. ADWIN shrinks and regrows it
// constantly, so emptied blocks are kept and reused: blocks holds the live
// blocks, oldest first, followed by the spare ones, and is never trimmed —
// the history retains its high-water mark once (a slice compacted at the
// half-way mark retains it twice) and allocates each block once.
type history struct {
	blocks []*[blockLen]entry
	first  int // offset of the oldest entry in blocks[0]
	n      int // live entries
}

// at returns the i-th oldest entry.
func (h *history) at(i int) entry {
	p := uint(h.first + i)
	return h.blocks[p/blockLen][p%blockLen]
}

// push appends the newest entry.
func (h *history) push(en entry) {
	p := uint(h.first + h.n)
	if p/blockLen == uint(len(h.blocks)) {
		h.blocks = append(h.blocks, new([blockLen]entry))
	}
	h.blocks[p/blockLen][p%blockLen] = en
	h.n++
}

// pop removes and returns the oldest entry; an emptied block goes behind the
// spares.
func (h *history) pop() entry {
	old := h.blocks[0][h.first]
	h.first++
	h.n--
	if h.first == blockLen {
		b := h.blocks[0]
		copy(h.blocks, h.blocks[1:])
		h.blocks[len(h.blocks)-1] = b
		h.first = 0
	}
	return old
}

// streamStats tracks one input stream; its local current time iT is
// Manager.localT[i].
type streamStats struct {
	ad      *adwin.Window
	hist    *hist.Histogram
	delays  [1]*hist.Histogram // {hist}: what Delays hands out, built once
	history history
	sumSkew int64

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
		ss.history.blocks = make([]*[blockLen]entry, 0, mgr.maxHist/blockLen+2) // never regrown
		if mgr.fixed == 0 {
			ss.ad = adwin.New(adwinDelta)
		}
	}
	return mgr
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

	m.push(ss, entry{delay: delay, skew: skew})
}

// push appends to the history and trims it to the target length.
func (m *Manager) push(ss *streamStats, en entry) {
	target := m.fixed
	if ss.ad != nil {
		ss.ad.Add(float64(en.delay))
		target = ss.ad.Len()
	}
	if target <= 0 || target > m.maxHist {
		target = m.maxHist
	}
	ss.history.push(en)
	ss.sumSkew += int64(en.skew)
	ss.hist.Add(en.delay)
	for ss.history.n > target {
		old := ss.history.pop()
		ss.sumSkew -= int64(old.skew)
		ss.hist.Remove(old.delay)
	}
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
		for j := 0; j < ss.history.n; j++ {
			en := ss.history.at(j)
			s.Delays = append(s.Delays, en.delay)
			s.Skews = append(s.Skews, en.skew)
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
// granularity and options). Histories re-enter without re-trimming and
// without feeding ADWIN — its native state is restored instead — so the
// restored manager answers every query exactly as the checkpointed one did.
// It panics with a "stats: restore: …" message on a state no Manager of this
// shape can have produced: a different stream count, or a stream whose Delays
// and Skews differ in length.
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
		ss.history.first, ss.history.n = 0, 0
		ss.sumSkew = 0
		ss.hist.Reset()
		for j := range s.Delays {
			ss.history.push(entry{delay: s.Delays[j], skew: s.Skews[j]})
			ss.sumSkew += int64(s.Skews[j])
			ss.hist.Add(s.Delays[j])
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
func (m *Manager) HistoryLen(i int) int { return m.streams[i].history.n }

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
	if ss.history.n == 0 {
		return 0
	}
	return float64(ss.sumSkew) / float64(ss.history.n)
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
