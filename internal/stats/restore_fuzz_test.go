package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/stream"
)

// fuzzState reads a State of 1 + streams%3 streams from spec, a sequence of
// zigzag varints that reads as 0 once it runs out. Per stream: the history
// length (at most maxHistory + 1), whether a skew is missing, LocalT, Seen,
// Arrivals, FirstTS, MaxDelay, then the (delay, skew) entries. ADWIN's own
// state is left out: a fuzzed one would be refused by adwin, not by stats.
func fuzzState(streams uint8, spec []byte) State {
	next := func() int64 {
		v, n := binary.Varint(spec)
		if n <= 0 {
			spec = nil
			return 0
		}
		spec = spec[n:]
		return v
	}
	st := State{Streams: make([]StreamState, 1+int(streams)%3)}
	for i := range st.Streams {
		s := &st.Streams[i]
		n := int(uint64(next()) % (maxHistory + 2))
		short := next()%2 != 0
		s.LocalT, s.Seen, s.Arrivals = stream.Time(next()), next()%2 != 0, next()
		s.FirstTS, s.MaxDelay = stream.Time(next()), stream.Time(next())
		if n > 0 {
			s.Delays, s.Skews = make([]stream.Time, n), make([]stream.Time, n)
			for j := range s.Delays {
				s.Delays[j], s.Skews[j] = stream.Time(next()), stream.Time(next())
			}
			if short {
				s.Skews = s.Skews[:n-1]
			}
		}
	}
	return st
}

// FuzzStatsRestore: a fuzzed State is either refused with a "stats:
// restore: …" panic or restored; a restored Manager's State returns the
// histories it was given, and the next 1 000 arrivals — drawn around the
// restored clocks — answer every query as refManager restored from the
// same State does. A history-free Manager refuses the same States and
// otherwise gives the same clocks back, before and after those arrivals.
// The history-free-* seeds are states such a Manager writes: no histories.
func FuzzStatsRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, streams uint8, fixed uint16, spec []byte, seed int64) {
		st := fuzzState(streams, spec)
		m := 1 + int(streams/3)%3 // the state's stream count or another
		var opts []Option
		if fixed > 0 {
			opts = append(opts, WithFixedHistory(int(fixed)))
		}
		mgr, free := NewManager(m, 10, opts...), NewManager(m, 10, opts...)
		free.SetHistory(false)
		ok := restores(t, mgr, st)
		if restores(t, free, st) != ok {
			t.Fatalf("the history-keeping Manager restored: %v, the history-free one: %v", ok, !ok)
		}
		if !ok {
			return
		}
		sameClocks(t, "restored", free, mgr)
		if captured := gobBytes(t, free.State()); !bytes.Equal(gobBytes(t, roundTrip(t, free).State()), captured) {
			t.Fatal("history-free: capture → restore → capture changed the gob bytes")
		}
		got := mgr.State()
		for i, s := range st.Streams {
			if g := got.Streams[i]; !slices.Equal(g.Delays, s.Delays) || !slices.Equal(g.Skews, s.Skews) {
				t.Fatalf("stream %d: State returns other histories than the restored ones", i)
			}
		}
		ref := newRefManager(m, 10, int(fixed), maxHistory)
		ref.Restore(st)
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 1000; n++ {
			src := rng.Intn(m)
			ts := mgr.LocalT(src) + stream.Time(rng.Intn(200)-150)
			e := &stream.Tuple{TS: ts, Src: src, Seq: uint64(n)}
			observeBoth(t, n, mgr, ref, e)
			free.Observe(e)
		}
		sameClocks(t, "1 000 arrivals after the restore", free, mgr)
	})
}

// restores reports whether mgr.Restore(st) returned; a panic other than a
// "stats: restore: …" refusal fails t.
func restores(t *testing.T, mgr *Manager, st State) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if msg := fmt.Sprint(r); !strings.HasPrefix(msg, "stats: restore: ") {
				t.Fatalf("Restore panicked with %q, not a stats: restore: refusal", msg)
			}
		}
	}()
	mgr.Restore(st)
	return true
}
