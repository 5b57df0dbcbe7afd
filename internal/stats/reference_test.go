package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/adwin"
	"repro/internal/gen"
	"repro/internal/hist"
	"repro/internal/stream"
)

// entry is one observed arrival in the history window.
type entry struct {
	delay stream.Time
	skew  stream.Time // iT − min_j jT measured at arrival
}

// refStreamStats tracks one input stream.
type refStreamStats struct {
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

// refManager is the Manager this package had before the clocks went dense and
// the history became a FIFO of recycled blocks: per-stream localT behind a
// pointer, GlobalT re-derived by a scan on every call, and the history a
// slice with a dead prefix that is compacted once it passes half the length.
// It is kept verbatim (names aside) as the reference the differential test
// holds Manager against.
type refManager struct {
	g       stream.Time
	streams []*refStreamStats
	fixed   int // fixed history length; 0 means ADWIN-adaptive
	delta   float64
	maxHist int
	nSeen   int
}

func newRefManager(m int, g stream.Time, fixed, maxHist int) *refManager {
	mgr := &refManager{g: g, fixed: fixed, delta: adwinDelta, maxHist: maxHist}
	mgr.streams = make([]*refStreamStats, m)
	for i := range mgr.streams {
		ss := &refStreamStats{hist: hist.New(g)}
		ss.delays[0] = ss.hist
		if mgr.fixed == 0 {
			ss.ad = adwin.New(mgr.delta)
		}
		mgr.streams[i] = ss
	}
	return mgr
}

// Observe records the raw arrival of tuple e (before any disorder handling).
func (m *refManager) Observe(e *stream.Tuple) {
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
func (m *refManager) push(ss *refStreamStats, en entry) {
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
func (ss *refStreamStats) live() int { return len(ss.entries) - ss.head }

// evict drops the oldest history entry.
func (m *refManager) evict(ss *refStreamStats) {
	if ss.live() == 0 {
		return
	}
	old := ss.entries[ss.head]
	ss.head++
	ss.sumSkew -= int64(old.skew)
	ss.hist.Remove(old.delay)
}

// State captures the refManager's state. The histogram and skew sums are not
// serialized: Restore rebuilds them from the history entries.
func (m *refManager) State() State {
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

// Restore loads a captured state into a freshly constructed refManager (same m,
// granularity and options). Histories re-enter without re-trimming and
// without feeding ADWIN — its native state is restored instead — so the
// restored manager answers every query exactly as the checkpointed one did.
func (m *refManager) Restore(st State) {
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
func (m *refManager) Hist(i int) *hist.Histogram { return m.streams[i].hist }

// HistoryLen returns the current length of R^stat_i in tuples.
func (m *refManager) HistoryLen(i int) int { return m.streams[i].live() }

// Rate returns the average arrival rate r_i in tuples per time unit,
// measured as total arrivals over the stream's timestamp span.
func (m *refManager) Rate(i int) float64 {
	ss := m.streams[i]
	span := ss.localT - ss.firstTS
	if ss.arrivals < 2 || span <= 0 {
		return 0
	}
	return float64(ss.arrivals-1) / float64(span)
}

// KSync estimates the Synchronizer's implicit buffer size for stream i as
// the stream's average skew minus the minimum average skew over all streams
// (Sec. IV-A), so the slowest stream has K^sync = 0.
func (m *refManager) KSync(i int) stream.Time {
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

func (m *refManager) avgSkew(i int) float64 {
	ss := m.streams[i]
	if ss.live() == 0 {
		return 0
	}
	return float64(ss.sumSkew) / float64(ss.live())
}

// MaxDelayRecent returns MaxD^H: the maximum tuple delay within the recent
// histories of all streams (bucket-rounded up to granularity g).
func (m *refManager) MaxDelayRecent() stream.Time {
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
func (m *refManager) MaxDelayAllTime() stream.Time {
	var max stream.Time
	for _, ss := range m.streams {
		if ss.maxDelay > max {
			max = ss.maxDelay
		}
	}
	return max
}

// LocalT returns the local current time iT of stream i.
func (m *refManager) LocalT(i int) stream.Time { return m.streams[i].localT }

// GlobalT returns max_i iT, the framework's logical "now" used to schedule
// adaptation steps.
func (m *refManager) GlobalT() stream.Time {
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

// differentialFeeds are the arrival sequences TestMatchesReference replays:
// the two generators behind the gated workloads, and hostile random feeds —
// 1 to 5 streams, negative and non-monotone timestamps, streams that stay
// unseen for a while.
func differentialFeeds() map[string]struct {
	m     int
	batch stream.Batch
} {
	x3 := gen.Synthetic3(gen.SynthConfig{Duration: stream.Minute, Seed: 42})
	x2 := gen.Soccer(gen.SoccerConfig{Duration: stream.Minute, Seed: 42})
	feeds := map[string]struct {
		m     int
		batch stream.Batch
	}{"x3": {x3.M, x3.Arrivals}, "soccer": {x2.M, x2.Arrivals}}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := int(seed)
		var batch stream.Batch
		now := stream.Time(-20000)
		for i := 0; i < 12000; i++ {
			now += stream.Time(rng.Intn(20))
			src := rng.Intn(m)
			if i < 500 && src == m-1 {
				src = 0 // the last stream shows up late
			}
			ts := now
			switch rng.Intn(4) {
			case 0:
				ts -= stream.Time(rng.Intn(100))
			case 1:
				if (i/1500)%2 == 1 { // regime change: ADWIN cuts
					ts -= stream.Time(3000 + rng.Intn(4000))
				}
			}
			batch = append(batch, &stream.Tuple{TS: ts, Src: src, Seq: uint64(i)})
		}
		feeds[fmt.Sprintf("random-m%d", m)] = struct {
			m     int
			batch stream.Batch
		}{m, batch}
	}
	feeds["lengths"] = struct {
		m     int
		batch stream.Batch
	}{2, lengthsFeed(0)}
	feeds["near-max"] = struct {
		m     int
		batch stream.Batch
	}{2, lengthsFeed(math.MaxInt64 - 1<<40)}
	return feeds
}

// lengthEdges are values on either side of every change in an encoded
// entry's length: the tagged form's 0 to 8 bytes per zigzagged value
// (127/128 is 1/2 bytes, 32767/32768 2/3, …, 2⁵⁵ − 1/2⁵⁵ 7/8), a plain
// varint's (63/64 is 1/2 bytes, 8191/8192 2/3), and 2⁶².
var lengthEdges = []stream.Time{0, 1, 63, 64, 127, 128, 8191, 8192, 32767, 32768,
	1<<23 - 1, 1 << 23, 1<<31 - 1, 1 << 31, 1<<39 - 1, 1 << 39, 1<<47 - 1, 1 << 47, 1<<55 - 1, 1 << 55, 1 << 62}

// lengthsFeed gives two streams R^stat entries whose delays and skews take
// every pair of lengthEdges, after a stretch of small ones, from local
// clocks at least base. Stream 1 then stays at base + 100, so an arrival on
// stream 0 at base + 100 + s has skew s, and one at base + 100 + s − d that
// follows has delay d and skew s; stream 1's own late arrivals have delay d
// and skew 0.
func lengthsFeed(base stream.Time) stream.Batch {
	var batch stream.Batch
	add := func(src int, ts stream.Time) {
		batch = append(batch, &stream.Tuple{TS: ts, Src: src, Seq: uint64(len(batch))})
	}
	add(1, base)
	for i := 0; i < 600; i++ { // small delays and skews first
		add(0, base+stream.Time(i%100))
		add(0, base+stream.Time(i%100-i%7))
	}
	base += 100
	add(1, base)
	for _, sk := range lengthEdges {
		if base > math.MaxInt64-sk {
			break // the clock would overflow
		}
		add(0, base+sk)
		for _, d := range lengthEdges {
			add(0, base+sk-d)
			add(1, base-d)
		}
	}
	return batch
}

// observeBoth feeds arrival n, e, to mgr and ref and holds every query
// mgr answers to ref's.
func observeBoth(t *testing.T, n int, mgr *Manager, ref *refManager, e *stream.Tuple) {
	t.Helper()
	mgr.Observe(e)
	ref.Observe(e)
	i := e.Src
	if got, want := mgr.HistoryLen(i), ref.HistoryLen(i); got != want {
		t.Fatalf("arrival %d: HistoryLen(%d) = %d, reference %d", n, i, got, want)
	}
	// A delay of 2⁶² spans hist.MaxBuckets buckets: compare such a
	// histogram in full on a stride only, and its ends on every arrival.
	got, want := mgr.Hist(i).Counts(), ref.Hist(i).Counts()
	if len(got) != len(want) || mgr.Hist(i).Total() != ref.Hist(i).Total() ||
		len(want) > 0 && (got[0] != want[0] || got[len(got)-1] != want[len(want)-1]) ||
		(len(want) < 1<<12 || n%1024 == 0) && !slices.Equal(got, want) {
		t.Fatalf("arrival %d: Hist(%d).Counts differ from the reference", n, i)
	}
	if mgr.GlobalT() != ref.GlobalT() || mgr.LocalT(i) != ref.LocalT(i) ||
		mgr.Rate(i) != ref.Rate(i) || mgr.MaxDelayRecent() != ref.MaxDelayRecent() ||
		mgr.MaxDelayAllTime() != ref.MaxDelayAllTime() {
		t.Fatalf("arrival %d: GlobalT/LocalT/Rate/MaxDelayRecent/AllTime = %d/%d/%v/%d/%d, reference %d/%d/%v/%d/%d", n,
			mgr.GlobalT(), mgr.LocalT(i), mgr.Rate(i), mgr.MaxDelayRecent(), mgr.MaxDelayAllTime(),
			ref.GlobalT(), ref.LocalT(i), ref.Rate(i), ref.MaxDelayRecent(), ref.MaxDelayAllTime())
	}
	for j := range mgr.streams {
		if got, want := mgr.KSync(j), ref.KSync(j); got != want {
			t.Fatalf("arrival %d: KSync(%d) = %d, reference %d", n, j, got, want)
		}
	}
}

// TestMatchesReference holds Manager against the slice-and-compaction,
// rescanning Manager it replaced: every query answers the same after every
// Observe, the serialized state is deep-equal, through one State→Restore.
// The "lengths" and "near-max" feeds put delays and skews of every encoded
// length into R^stat. The reference pops every trimmed entry; Manager
// rebuilds the histogram and the skew sum from the kept entries when a trim
// removes more than it keeps, as most of ADWIN's cuts on x3 do, and the
// "trims/…" rows force each shape of trim on both paths (trimShapes). Three
// mutations of the trim each fail it:
//   - Skip one entry short (history.Skip(r − 1)): HistoryLen differs;
//   - a rebuild that keeps the old skew sum (no ss.sumSkew = 0): KSync
//     differs;
//   - a rebuild that adds the removed entries too (Skip after the rebuild):
//     the histograms differ.
//
// Three mutations of internal/fifo each fail it:
//   - an entry allowed to straddle a block (last = BlockBytes − 9 in place
//     of BlockBytes − MaxEntry): an index panic;
//   - a zigzag write decoded as unsigned (unzigzag returning int64(u)): the
//     histograms differ within the first arrivals of every feed;
//   - the count dropped on a block switch (Push clearing the second
//     value's length in the tag of an entry that closes its block): the
//     skews, and so KSync or the state, differ.
func TestMatchesReference(t *testing.T) {
	configs := []struct {
		name           string
		fixed, maxHist int
	}{
		{"adwin", 0, maxHistory},
		{"adwin-cap300", 0, 300},
		{"fixed100", 100, maxHistory},
		{"fixed2000-cap1500", 2000, 1500},
	}
	for name, f := range differentialFeeds() {
		if name == "x3" || name == "random-m2" {
			t.Run("trims/"+name, func(t *testing.T) { testTrimShapes(t, f.m, f.batch) })
		}
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				const g = 10
				build := func() (*Manager, *refManager) {
					var opts []Option
					if cfg.fixed > 0 {
						opts = append(opts, WithFixedHistory(cfg.fixed))
					}
					mgr := NewManager(f.m, g, opts...)
					mgr.maxHist = cfg.maxHist
					return mgr, newRefManager(f.m, g, cfg.fixed, cfg.maxHist)
				}
				mgr, ref := build()
				for n, e := range f.batch {
					observeBoth(t, n, mgr, ref, e)
					// The full state is O(history): compare it on a stride that
					// is coprime to the block length, and at the restore point.
					restore := n == len(f.batch)*2/3
					if n%509 == 0 || restore || n == len(f.batch)-1 {
						st, rst := mgr.State(), ref.State()
						if !reflect.DeepEqual(st, rst) {
							t.Fatalf("arrival %d: State differs from the reference", n)
						}
						if restore {
							mgr, ref = build()
							mgr.Restore(st)
							ref.Restore(rst)
						}
					}
				}
			})
		}
	}
}

// trimShapes are the trims TestMatchesReference forces: a history of
// trimFrom entries restored into a manager that keeps fixed entries, so the
// next arrival on each stream trims trimFrom + 1 entries to fixed; fixed 0
// restores into an ADWIN manager, whose fresh window keeps only the new
// entry. rebuild says whether the trim takes the rebuild path.
const trimFrom = 2001

var trimShapes = []struct {
	name    string
	fixed   int
	rebuild bool
}{
	{"removed<kept", 1335, false},
	{"removed=kept", (trimFrom + 1) / 2, false},
	{"removed>kept", 300, true},
	{"all-but-new", 1, true},
	{"adwin-all-but-new", 0, true},
}

// testTrimShapes runs the trimShapes on a feed: both managers observe it at a
// fixed history of trimFrom until every stream's history is full, restore
// that state into the shape's configuration, and must then answer alike
// through the rest of the feed.
func testTrimShapes(t *testing.T, m int, batch stream.Batch) {
	const g = 10
	for _, sh := range trimShapes {
		t.Run(sh.name, func(t *testing.T) {
			mgr, ref := NewManager(m, g, WithFixedHistory(trimFrom)), newRefManager(m, g, trimFrom, maxHistory)
			warm, full := 0, 0
			for ; full < m && warm < len(batch)*2/3; warm++ {
				e := batch[warm]
				observeBoth(t, warm, mgr, ref, e)
				if mgr.HistoryLen(e.Src) == trimFrom && mgr.streams[e.Src].arrivals == trimFrom {
					full++
				}
			}
			if full < m {
				t.Fatalf("%d of %d histories full after two thirds of the feed", full, m)
			}
			st := mgr.State()
			if !reflect.DeepEqual(st, ref.State()) {
				t.Fatal("State differs from the reference before the restore")
			}
			var opts []Option
			if sh.fixed > 0 {
				opts = append(opts, WithFixedHistory(sh.fixed))
			}
			mgr, ref = NewManager(m, g, opts...), newRefManager(m, g, sh.fixed, maxHistory)
			mgr.Restore(st)
			ref.Restore(st)
			trimmed := make([]bool, m)
			for n, e := range batch[warm:] {
				cleared := mgr.streams[e.Src].cleared
				first := !trimmed[e.Src]
				trimmed[e.Src] = true
				observeBoth(t, warm+n, mgr, ref, e)
				if rebuilt := mgr.streams[e.Src].cleared != cleared; first && rebuilt != sh.rebuild {
					t.Fatalf("stream %d: the trim of %d entries to %d rebuilt = %v, want %v", e.Src, trimFrom+1, mgr.HistoryLen(e.Src), rebuilt, sh.rebuild)
				}
				if n%509 == 0 && !reflect.DeepEqual(mgr.State(), ref.State()) {
					t.Fatalf("arrival %d: State differs from the reference", warm+n)
				}
			}
		})
	}
}

// TestGlobalTMatchesRescan: the clock maintained on the way in is the maximum
// a rescan of the seen streams' local clocks finds — before anything is seen,
// with negative and non-monotone timestamps, and after a Restore.
func TestGlobalTMatchesRescan(t *testing.T) {
	rescan := func(m *Manager) stream.Time {
		var max stream.Time
		first := true
		for i := range m.streams {
			if m.streams[i].seen && (first || m.localT[i] > max) {
				max, first = m.localT[i], false
			}
		}
		return max
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := NewManager(n, 10)
		if m.GlobalT() != 0 {
			t.Fatalf("seed %d: GlobalT before any arrival = %d", seed, m.GlobalT())
		}
		for i := 0; i < 400; i++ {
			m.Observe(tup(rng.Intn(n), stream.Time(rng.Intn(2000)-1500)))
			if got, want := m.GlobalT(), rescan(m); got != want {
				t.Fatalf("seed %d arrival %d: GlobalT = %d, rescan %d", seed, i, got, want)
			}
			if i == 200 {
				st := m.State()
				m = NewManager(n, 10)
				m.Restore(st)
				if got, want := m.GlobalT(), rescan(m); got != want {
					t.Fatalf("seed %d: GlobalT after Restore = %d, rescan %d", seed, got, want)
				}
			}
		}
	}
}

// TestRestoreRefusesImpossibleStates: a state of another shape must be
// refused, not indexed into.
func TestRestoreRefusesImpossibleStates(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   State
		want string
	}{
		{"stream count", State{Streams: make([]StreamState, 3)}, "stats: restore: state of 3 streams into a manager of 2"},
		{"delays without skews", State{Streams: []StreamState{{}, {Delays: []stream.Time{1, 2}, Skews: []stream.Time{0}}}},
			"stats: restore: stream 1 has 2 delays and 1 skews"},
		{"negative delay", State{Streams: []StreamState{{Delays: []stream.Time{0, -1}, Skews: []stream.Time{0, 0}}, {}}},
			"stats: restore: stream 0 entry 1 has delay -1 and skew 0"},
		{"negative skew", State{Streams: []StreamState{{}, {Delays: []stream.Time{3}, Skews: []stream.Time{-2}}}},
			"stats: restore: stream 1 entry 0 has delay 3 and skew -2"},
		{"history over the cap", State{Streams: []StreamState{{}, {Delays: make([]stream.Time, maxHistory+1), Skews: make([]stream.Time, maxHistory+1)}}},
			"stats: restore: stream 1 has 8193 history entries, over the cap of 8192"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != tc.want {
					t.Fatalf("recovered %v, want panic %q", r, tc.want)
				}
			}()
			NewManager(2, 10).Restore(tc.st)
		})
	}
}

// lapFeed replays one generated lap of arrivals for ever, shifting each lap
// past the previous one so the local clocks keep advancing.
type lapFeed struct {
	m    int
	lap  stream.Batch
	span stream.Time
	i    int
	off  stream.Time
	cur  stream.Tuple
}

func newLapFeed(m int, lap stream.Batch) *lapFeed {
	var max stream.Time
	for _, e := range lap {
		if e.TS > max {
			max = e.TS
		}
	}
	return &lapFeed{m: m, lap: lap, span: max + 10}
}

func (f *lapFeed) next() *stream.Tuple {
	if f.i == len(f.lap) {
		f.i, f.off = 0, f.off+f.span
	}
	f.cur = *f.lap[f.i]
	f.cur.TS += f.off
	f.i++
	return &f.cur
}

// observeFeeds are the three arrival patterns the allocation gate and the
// benchmark run: the x3 synthetic feed (stationary Zipf delays — the filter's
// home ground), soccer's delay bursts, and a regime that flips every 64
// arrivals of a stream between in-order and ≈ 5 s late. The last keeps ADWIN
// cutting — a cut every ≈ 30 arrivals, a window of ≈ 40 — which is where the
// most boundaries pass the filter and pay for it on top of the exact test.
var observeFeeds = []struct {
	name string
	new  func() *lapFeed
}{
	{"x3", func() *lapFeed {
		ds := gen.Synthetic3(gen.SynthConfig{Duration: 2 * stream.Minute, Seed: 42})
		return newLapFeed(ds.M, ds.Arrivals)
	}},
	{"soccer", func() *lapFeed {
		ds := gen.Soccer(gen.SoccerConfig{Duration: 2 * stream.Minute, Seed: 42})
		return newLapFeed(ds.M, ds.Arrivals)
	}},
	{"flip64", func() *lapFeed {
		rng := rand.New(rand.NewSource(7))
		var lap stream.Batch
		now := stream.Time(0)
		for i := 0; i < 1<<14; i++ {
			now += 10
			ts := now
			if (i/(3*64))%2 == 1 && i%8 >= 3 {
				ts -= stream.Time(4000 + rng.Intn(2000))
			}
			lap = append(lap, &stream.Tuple{TS: ts, Src: i % 3, Seq: uint64(i)})
		}
		return newLapFeed(3, lap)
	}},
}

// TestObserveSteadyStateZeroAllocs: once the histories, the histograms and
// ADWIN's rows have reached their high-water marks, Observe — clocks, skew
// scan, ADWIN, history push and eviction, block recycling — never allocates.
func TestObserveSteadyStateZeroAllocs(t *testing.T) {
	for _, of := range observeFeeds {
		t.Run(of.name, func(t *testing.T) {
			f := of.new()
			mgr := NewManager(f.m, 10)
			for i := 0; i < 3*len(f.lap); i++ {
				mgr.Observe(f.next())
			}
			for i := 0; i < f.m; i++ {
				if mgr.HistoryLen(i) == 0 || mgr.streams[i].history.Blocks() < 2 {
					t.Fatalf("stream %d: history never outgrew one block; the test would not see recycling", i)
				}
			}
			allocs := testing.AllocsPerRun(len(f.lap)/1024, func() {
				for i := 0; i < 1024; i++ {
					mgr.Observe(f.next())
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Observe allocated %v times per 1024 arrivals", allocs)
			}
		})
	}
}

// BenchmarkObserve prices one raw arrival on the three feeds; flip64 is the
// worst case that must stay no slower than the unfiltered scan. After the
// timed loop it times up to 2¹⁸ more arrivals one by one and reports the mean
// of the slowest 1 % as tail-ns/op: the arrivals that carry an ADWIN cut and
// its trim of R^stat, which the mean hides.
func BenchmarkObserve(b *testing.B) {
	for _, of := range observeFeeds {
		b.Run(of.name, func(b *testing.B) {
			f := of.new()
			mgr := NewManager(f.m, 10)
			for i := 0; i < len(f.lap); i++ {
				mgr.Observe(f.next())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr.Observe(f.next())
			}
			b.StopTimer()
			b.ReportMetric(tailNs(mgr, f, min(b.N, 1<<18)), "tail-ns/op")
		})
	}
}

// tailNs times the next n arrivals of f one by one and returns the mean of
// the slowest 1 %, in ns.
func tailNs(mgr *Manager, f *lapFeed, n int) float64 {
	ns := make([]int64, n)
	for i := range ns {
		e := f.next()
		t0 := time.Now()
		mgr.Observe(e)
		ns[i] = time.Since(t0).Nanoseconds()
	}
	slices.Sort(ns)
	var sum int64
	slowest := ns[n-max(1, n/100):]
	for _, d := range slowest {
		sum += d
	}
	return float64(sum) / float64(len(slowest))
}
