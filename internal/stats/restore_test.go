package stats

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adwin"
	"repro/internal/gen"
	"repro/internal/stream"
)

// gobBytes returns st's gob encoding.
func gobBytes(t *testing.T, st State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip restores the gob encoding of mgr's state into a fresh Manager.
func roundTrip(t *testing.T, mgr *Manager) *Manager {
	t.Helper()
	var st State
	if err := gob.NewDecoder(bytes.NewReader(gobBytes(t, mgr.State()))).Decode(&st); err != nil {
		t.Fatal(err)
	}
	fresh := NewManager(mgr.M(), mgr.g, WithFixedHistory(mgr.fixed))
	fresh.SetHistory(!mgr.noHist)
	fresh.Restore(st)
	return fresh
}

// TestRestoreAtEveryCut: on a 2-minute x3 feed, a Manager restored from the
// gob bytes of its own state at every arrival that carries an ADWIN cut
// makes the same cuts as the uninterrupted one and holds the same history
// lengths, histogram counts and KSync after every arrival, and capture →
// restore → capture gives identical gob bytes at every cut. The restored
// Manager starts without the history's skip marks and with ADWIN's derived
// state unset: neither may change an answer, nor enter a snapshot.
func TestRestoreAtEveryCut(t *testing.T) {
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 2 * stream.Minute, Seed: 42})
	whole, resumed := NewManager(ds.M, 10), NewManager(ds.M, 10)
	restores := 0
	for n, e := range ds.Arrivals {
		before := resumed.streams[e.Src].ad.Len()
		whole.Observe(e)
		resumed.Observe(e)
		cut := resumed.streams[e.Src].ad.Len() <= before
		if got, want := cut, whole.streams[e.Src].ad.Len() <= before; got != want {
			t.Fatalf("arrival %d: cut = %v, uninterrupted %v", n, got, want)
		}
		for i := range ds.M {
			if resumed.HistoryLen(i) != whole.HistoryLen(i) || !slices.Equal(resumed.Hist(i).Counts(), whole.Hist(i).Counts()) ||
				resumed.KSync(i) != whole.KSync(i) || resumed.streams[i].ad.Len() != whole.streams[i].ad.Len() {
				t.Fatalf("arrival %d stream %d: HistoryLen/KSync/ADWIN length %d/%d/%d, uninterrupted %d/%d/%d, or the histograms differ", n, i,
					resumed.HistoryLen(i), resumed.KSync(i), resumed.streams[i].ad.Len(), whole.HistoryLen(i), whole.KSync(i), whole.streams[i].ad.Len())
			}
		}
		if !cut {
			continue
		}
		captured := gobBytes(t, resumed.State())
		resumed = roundTrip(t, resumed)
		restores++
		if again := gobBytes(t, resumed.State()); !bytes.Equal(again, captured) {
			t.Fatalf("arrival %d: capture → restore → capture changed the gob bytes (%d → %d bytes)", n, len(captured), len(again))
		}
	}
	if restores < 50 {
		t.Fatalf("%d restores: the feed cut too rarely to exercise them", restores)
	}
	t.Logf("%d restores, one per cut", restores)
}

// TestSnapshotFields pins the serialized shape of the statistics: the skip
// marks of the history and ADWIN's cached bounds and carried sums are
// derived state and must not enter a snapshot.
func TestSnapshotFields(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{StreamState{}, []string{"Delays", "Skews", "Adwin", "LocalT", "Seen", "Arrivals", "FirstTS", "MaxDelay"}},
		{adwin.State{}, []string{"Rows", "Total", "Sum", "SumSq", "SinceCut"}},
		{adwin.BucketState{}, []string{"Sum", "SumSq", "Size"}},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := range typ.NumField() {
			got = append(got, typ.Field(i).Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v has fields %v, want %v", typ, got, tc.want)
		}
	}
}

// TestRestoreHistoryFree: a history-free Manager's state carries no history
// and no ADWIN; capture → restore → capture gives identical gob bytes, and
// a state captured from a history-keeping Manager restores into a
// history-free one with the same clocks and without its histories.
func TestRestoreHistoryFree(t *testing.T) {
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 30 * stream.Second, Seed: 42})
	free, full := NewManager(ds.M, 10), NewManager(ds.M, 10)
	free.SetHistory(false)
	for n, e := range ds.Arrivals {
		free.Observe(e)
		full.Observe(e)
		if n%997 != 0 {
			continue
		}
		captured := gobBytes(t, free.State())
		for i, s := range free.State().Streams {
			if s.Delays != nil || s.Skews != nil || s.Adwin != nil {
				t.Fatalf("arrival %d stream %d: a history-free state carries %d delays, %d skews, ADWIN %v", n, i, len(s.Delays), len(s.Skews), s.Adwin != nil)
			}
		}
		free = roundTrip(t, free)
		if again := gobBytes(t, free.State()); !bytes.Equal(again, captured) {
			t.Fatalf("arrival %d: capture → restore → capture changed the gob bytes (%d → %d bytes)", n, len(captured), len(again))
		}
		parent := NewManager(ds.M, 10)
		parent.SetHistory(false)
		parent.Restore(full.State())
		if again := gobBytes(t, parent.State()); !bytes.Equal(again, captured) {
			t.Fatalf("arrival %d: a history-keeping state restored history-free differs from the history-free state", n)
		}
		sameClocks(t, fmt.Sprintf("arrival %d", n), free, full)
	}
}
