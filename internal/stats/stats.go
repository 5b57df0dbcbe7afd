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
package stats

import (
	"repro/internal/adwin"
	"repro/internal/hist"
	"repro/internal/stream"
)

// entry is one observed arrival in the history window.
type entry struct {
	delay stream.Time
	skew  stream.Time // iT − min_j jT measured at arrival
}

// streamStats tracks one input stream.
type streamStats struct {
	ad      *adwin.Window
	hist    *hist.Histogram
	delays  [1]*hist.Histogram // {hist}: what Delays hands out, built once
	entries []entry            // entries[head:] are live, oldest first
	head    int
	sumSkew int64

	localT   stream.Time
	seen     bool
	arrivals int64
	firstTS  stream.Time
	maxDelay stream.Time // all-time maximum delay (for the Max-K-slack baseline)
}

// Manager monitors m input streams.
type Manager struct {
	g       stream.Time
	streams []*streamStats
	fixed   int // fixed history length; 0 means ADWIN-adaptive
	delta   float64
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

// WithADWINDelta sets the ADWIN confidence parameter (default 0.002).
func WithADWINDelta(d float64) Option {
	return func(m *Manager) { m.delta = d }
}

// WithMaxHistory caps the history length even under ADWIN (default 8192
// entries per stream) to bound memory on very stable streams.
func WithMaxHistory(n int) Option {
	return func(m *Manager) { m.maxHist = n }
}

// NewManager creates a Statistics Manager for m streams with K-search
// granularity g.
func NewManager(m int, g stream.Time, opts ...Option) *Manager {
	mgr := &Manager{g: g, delta: 0.002, maxHist: 8192}
	for _, o := range opts {
		o(mgr)
	}
	mgr.streams = make([]*streamStats, m)
	for i := range mgr.streams {
		ss := &streamStats{hist: hist.New(g)}
		ss.delays[0] = ss.hist
		if mgr.fixed == 0 {
			ss.ad = adwin.New(mgr.delta)
		}
		mgr.streams[i] = ss
	}
	return mgr
}

// M returns the number of monitored streams.
func (m *Manager) M() int { return len(m.streams) }

// Observe records the raw arrival of tuple e (before any disorder handling).
func (m *Manager) Observe(e *stream.Tuple) {
	ss := m.streams[e.Src]
	if !ss.seen {
		ss.seen = true
		ss.localT = e.TS
		ss.firstTS = e.TS
		m.nSeen++
	} else if e.TS > ss.localT {
		ss.localT = e.TS
	}
	ss.arrivals++
	delay := ss.localT - e.TS
	if delay > ss.maxDelay {
		ss.maxDelay = delay
	}

	// Time skew measurement for K^sync (Proposition 1): taken against the
	// slowest stream among those seen so far.
	var skew stream.Time
	if m.nSeen == len(m.streams) {
		minT := ss.localT
		for _, other := range m.streams {
			if other.localT < minT {
				minT = other.localT
			}
		}
		skew = ss.localT - minT
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
	ss.entries = append(ss.entries, en)
	ss.sumSkew += int64(en.skew)
	ss.hist.Add(en.delay)
	for ss.live() > target {
		m.evict(ss)
	}
	// Compact the backing slice once the dead prefix dominates.
	if ss.head > 1024 && ss.head > len(ss.entries)/2 {
		n := copy(ss.entries, ss.entries[ss.head:])
		ss.entries = ss.entries[:n]
		ss.head = 0
	}
}

// live returns the number of live history entries.
func (ss *streamStats) live() int { return len(ss.entries) - ss.head }

// evict drops the oldest history entry.
func (m *Manager) evict(ss *streamStats) {
	if ss.live() == 0 {
		return
	}
	old := ss.entries[ss.head]
	ss.head++
	ss.sumSkew -= int64(old.skew)
	ss.hist.Remove(old.delay)
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
	for i, ss := range m.streams {
		s := StreamState{
			LocalT: ss.localT, Seen: ss.seen, Arrivals: ss.arrivals,
			FirstTS: ss.firstTS, MaxDelay: ss.maxDelay,
		}
		for _, en := range ss.entries[ss.head:] {
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
func (m *Manager) Restore(st State) {
	m.nSeen = 0
	for i, s := range st.Streams {
		ss := m.streams[i]
		ss.localT = s.LocalT
		ss.seen = s.Seen
		ss.arrivals = s.Arrivals
		ss.firstTS = s.FirstTS
		ss.maxDelay = s.MaxDelay
		if ss.seen {
			m.nSeen++
		}
		ss.entries = ss.entries[:0]
		ss.head = 0
		ss.sumSkew = 0
		ss.hist.Reset()
		for j := range s.Delays {
			en := entry{delay: s.Delays[j], skew: s.Skews[j]}
			ss.entries = append(ss.entries, en)
			ss.sumSkew += int64(en.skew)
			ss.hist.Add(en.delay)
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
func (m *Manager) HistoryLen(i int) int { return m.streams[i].live() }

// Rate returns the average arrival rate r_i in tuples per time unit,
// measured as total arrivals over the stream's timestamp span.
func (m *Manager) Rate(i int) float64 {
	ss := m.streams[i]
	span := ss.localT - ss.firstTS
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
	ss := m.streams[i]
	if ss.live() == 0 {
		return 0
	}
	return float64(ss.sumSkew) / float64(ss.live())
}

// MaxDelayRecent returns MaxD^H: the maximum tuple delay within the recent
// histories of all streams (bucket-rounded up to granularity g).
func (m *Manager) MaxDelayRecent() stream.Time {
	var max stream.Time
	for _, ss := range m.streams {
		if d := ss.hist.MaxDelay(); d > max {
			max = d
		}
	}
	return max
}

// MaxDelayAllTime returns the maximum delay among all so-far-observed tuples
// across all streams, the quantity tracked by the Max-K-slack baseline [12].
func (m *Manager) MaxDelayAllTime() stream.Time {
	var max stream.Time
	for _, ss := range m.streams {
		if ss.maxDelay > max {
			max = ss.maxDelay
		}
	}
	return max
}

// LocalT returns the local current time iT of stream i.
func (m *Manager) LocalT(i int) stream.Time { return m.streams[i].localT }

// GlobalT returns max_i iT, the framework's logical "now" used to schedule
// adaptation steps.
func (m *Manager) GlobalT() stream.Time {
	var max stream.Time
	first := true
	for _, ss := range m.streams {
		if !ss.seen {
			continue
		}
		if first || ss.localT > max {
			max = ss.localT
			first = false
		}
	}
	return max
}
