package plan

// The migration gate's rule against the uninterrupted flat run, on
// boundaries built to tell the rule from its near misses. A boundary's
// filter suppresses a result iff every member is a replayed pre-boundary
// arrival and no sub-assignment the old shape held is contained in it
// (gate.go); the reference is the flat run's result multiset.
//
// Recorded mutations:
//   - Delivering any result with a held member (filter.sealed returning
//     false for every member that anchors a held sub-assignment, contained
//     or not) fails TestMigrationHeldPartial: the tree delivered (a, b′, c)
//     while its root held (a, b), and the flat replay delivers (a, b′, c)
//     again.
//   - Keeping only the newest filter (gate.begin opening just f) fails
//     TestMigrationFiltersCompose: the tree's replay defers (a, b, c), which
//     the flat shape delivered before the first boundary, past the second,
//     where only the first boundary's filter seals it.
//   - Keeping what an interrupted migration's replay owed (gate.rewind not
//     clearing owed) fails TestMigrationInterruptedReplay: the recovered old
//     shape delivers those results, and the retried migration's commit
//     delivers them again.

import (
	"errors"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

// tup is a hand-placed arrival of key k; Seq numbers the feed.
func tup(src int, ts stream.Time, k float64, seq uint64) *stream.Tuple {
	return &stream.Tuple{Src: src, TS: ts, Seq: seq, Attrs: []float64{k}}
}

// scheduled is a Replanner that migrates to at[n] after the nth arrival and
// prunes once per period.
type scheduled struct {
	t      *testing.T
	at     map[int]*Graph
	period stream.Time
	n      int
	peak   int // the most filters open at once
}

func (r *scheduled) Step(s *Supervised, _ *stream.Tuple, _ bool) {
	r.n++
	if g := r.at[r.n]; g != nil {
		if _, err := s.Migrate(g); err != nil {
			r.t.Fatalf("migrate after arrival %d: %v", r.n, err)
		}
	}
	r.peak = max(r.peak, len(s.gate.filters))
}

func (r *scheduled) Period() stream.Time { return r.period }

// heldSharing reports whether a held sub-assignment of two or more members
// shares a member with a delivered result it is not contained in.
func heldSharing(held []heldPart, delivered []stream.Result) bool {
	for _, p := range held {
		if len(p) < 2 {
			continue
		}
		for _, r := range delivered {
			for _, m := range p {
				if t := r.Tuples[m.src]; t != nil && t.Seq == m.seq && !p.in(r) {
					return true
				}
			}
		}
	}
	return false
}

// TestMigrationHeldPartial migrates tree → flat at a boundary where the
// root stage's synchronizer holds the partial (a, b) while the tree already
// delivered (a, b′, c): the flat replay must seal (a, b′, c) and deliver
// (a, b, c), which the held partial keeps in flight.
func TestMigrationHeldPartial(t *testing.T) {
	w := []stream.Time{1000, 1000, 1000}
	in := stream.Batch{
		tup(0, 100, 1, 1), // a
		tup(1, 100, 1, 2), // b′
		tup(2, 150, 1, 3), // c
		tup(1, 200, 1, 4), // b: (a, b) waits at the root for stream 2
		tup(0, 250, 9, 5), // advances stream 0 past b
		tup(2, 300, 1, 6),
		tup(0, 320, 1, 7),
		tup(1, 340, 1, 8),
	}
	const boundary = 5
	want := difftest.Flat(join.EquiChain(3, 0), w, 0, in.Clone())
	for _, unsupervised := range []bool{true, false} {
		graphs := parseAll(t, []string{"tree", "flat"}, join.EquiChain(3, 0), w)
		got := difftest.NewRun()
		var delivered []stream.Result
		s := NewSupervised(graphs[0], ExecConfig{Policy: PolicyStatic, StaticK: 0, Emit: func(r stream.Result) {
			got.Emit(r)
			delivered = append(delivered, r)
		}}, SuperviseConfig{Unsupervised: unsupervised, Backoff: testBackoff(1), Replan: fixedLog{}})
		for i, e := range in.Clone() {
			s.Push(e)
			if i+1 != boundary {
				continue
			}
			st := Checkpoint(s.g, s.cfg, s.ex)
			if _, held := migrationHorizon(st.Flat, st.Tuples, s.g); !heldSharing(held, delivered) {
				t.Fatalf("boundary holds no partial sharing a member with the %d delivered results: the test exercises nothing", len(delivered))
			}
			if _, err := s.Migrate(graphs[1]); err != nil {
				t.Fatal(err)
			}
		}
		s.Finish()
		difftest.Compare(t, "tree→flat held partial", want, got)
	}
}

// TestMigrationFiltersCompose: two migrations inside one filter's lifetime
// under a real re-planning period. Flat delivers (a, b, c) before the first
// boundary; the tree's replay of it holds c at its root synchronizer past
// the second boundary, so the second filter keeps (a, b, c) in flight and
// only the first seals it. The tail then prunes every filter closed.
func TestMigrationFiltersCompose(t *testing.T) {
	w := []stream.Time{1000, 1000, 1000}
	in := stream.Batch{
		tup(0, 100, 1, 1), // a
		tup(1, 150, 1, 2), // b
		tup(2, 200, 1, 3), // c
		tup(0, 400, 11, 4),
		tup(1, 420, 12, 5), // flat releases c: (a, b, c) delivered
		tup(2, 430, 13, 6),
	}
	for i := 0; i < 150; i++ { // one result per triple, none across triples
		in = append(in, tup(i%3, 500+stream.Time(i)*40, float64(100+i/3), uint64(7+i)))
	}
	want := difftest.Flat(join.EquiChain(3, 0), w, 0, in.Clone())
	for _, unsupervised := range []bool{true, false} {
		graphs := parseAll(t, []string{"flat", "tree"}, join.EquiChain(3, 0), w)
		r := &scheduled{t: t, at: map[int]*Graph{6: graphs[1], 7: graphs[0]}, period: 1000}
		got := difftest.NewRun()
		s := NewSupervised(graphs[0], ExecConfig{Policy: PolicyStatic, StaticK: 0, Emit: got.Emit},
			SuperviseConfig{Unsupervised: unsupervised, Backoff: testBackoff(1), Replan: r})
		for _, e := range in.Clone() {
			s.Push(e)
		}
		s.Finish()
		difftest.Compare(t, "flat→tree→flat", want, got)
		if s.Migrations() != 2 || r.peak != 2 {
			t.Fatalf("%d migrations, at most %d filters open at once; want 2 and 2", s.Migrations(), r.peak)
		}
		if n := len(s.gate.filters); n != 0 {
			t.Fatalf("%d filters still open after the tail", n)
		}
	}
}

// TestMigrationInterruptedReplay: a fault in the middle of a migration's
// replay, after it owed results, recovers the old shape under supervision.
// The migration must drop its filter and what it owed, the old shape
// delivers those results itself, and the retried migration completes. A
// fresh adaptive flat shape replays at a smaller K than the tree it
// replaces held, so its replay delivers in-flight results; as in
// TestMigrationAdaptive, none may be delivered more often than the
// full-coverage reference has it.
func TestMigrationInterruptedReplay(t *testing.T) {
	in := difftest.MixWorkload(3, 420, 43, 14)
	maxD, _ := in.MaxDelay()
	w := []stream.Time{700, 700, 700}
	armed := false // fault the next predicate evaluation once a replay owes results
	var s *Supervised
	mk := func() *join.Condition {
		return join.EquiChain(3, 0).Where([]int{0, 2}, func(a []*stream.Tuple) bool {
			if armed && len(s.gate.owed) >= 3 {
				armed = false
				panic(errors.New("injected predicate fault"))
			}
			return a[0].Attr(1) <= a[2].Attr(1)+40
		})
	}
	want := difftest.Flat(mk(), w, maxD, in.Clone())
	graphs := parseAll(t, []string{"flat", "tree"}, mk(), w)
	got := difftest.NewRun()
	s = NewSupervised(graphs[0], ExecConfig{Policy: PolicyMaxK, Emit: got.Emit},
		SuperviseConfig{Backoff: testBackoff(1), Replan: fixedLog{}})
	third := len(in) / 3
	for i, e := range in.Clone() {
		s.Push(e)
		switch i + 1 {
		case third:
			if _, err := s.Migrate(graphs[1]); err != nil {
				t.Fatal(err)
			}
		case 2 * third:
			armed = true
			if _, err := s.Migrate(graphs[0]); !errors.Is(err, ErrMigrationInterrupted) || armed {
				t.Fatalf("migration with an armed fault: %v (fault fired: %v), want ErrMigrationInterrupted", err, !armed)
			}
			if len(s.gate.filters) != 1 || s.gate.owed != nil || s.Graph() != graphs[1] {
				t.Fatalf("after the interrupt: %d filters open, %d results owed, shape %s",
					len(s.gate.filters), len(s.gate.owed), ShapeString(s.Graph()))
			}
			if _, err := s.Migrate(graphs[0]); err != nil {
				t.Fatalf("retried migration: %v", err)
			}
		}
	}
	s.Finish()
	if s.Restarts() != 1 || s.Migrations() != 2 {
		t.Fatalf("%d restarts and %d migrations, want 1 and 2", s.Restarts(), s.Migrations())
	}
	difftest.Within(t, "interrupted migrating run", want, got)
}
