package qdhj

// Public-surface tests of the fault-tolerant runtime: checkpoint round
// trips across every plannable shape (results, K trajectory and AvgK
// bit-for-bit, through the gob wire format), supervised crash recovery,
// typed errors, bounded ingest, and restore-mismatch refusal. CI runs
// these under -race.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/leakcheck"
)

// faultTrace accumulates the observable behavior a round trip must pin:
// the results and the adaptation (K) trajectory.
type faultTrace struct {
	*difftest.Run
	mute    bool   // stop recording (the abandoned half of an interrupted run)
	onAdapt func() // extra per-adaptation callback (boundary detection)
}

func newFaultTrace() *faultTrace {
	tr := &faultTrace{Run: difftest.NewRun()}
	tr.Ks = []difftest.KStep{}
	return tr
}

func (tr *faultTrace) opts() []JoinOption {
	return []JoinOption{
		WithResults(func(r Result) {
			if !tr.mute {
				tr.Emit(r)
			}
		}),
		WithAdaptHook(func(ev AdaptEvent) {
			if !tr.mute {
				tr.Adapt(difftest.KStep(ev))
			}
			if tr.onAdapt != nil {
				tr.onAdapt()
			}
		}),
	}
}

// mix3 is an equi + generic condition: an equi chain with a deterministic
// arbitrary-code predicate on top.
func mix3() *Condition {
	return Cross(3).Equi(0, 0, 1, 0).Equi(1, 0, 2, 0).
		Where([]int{1, 2}, func(assign []*Tuple) bool {
			return assign[1].Attr(1) <= assign[2].Attr(1)+120
		})
}

// mix4 is an equi + band condition over four streams.
func mix4() *Condition {
	return Cross(4).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8).Equi(2, 0, 3, 0)
}

// planFor compiles spec for the condition built by mk.
func planFor(t *testing.T, spec string, mk func() *Condition, windows []Time) (*Condition, *Plan) {
	t.Helper()
	cond := mk()
	p, err := ParsePlan(spec, cond, windows, 0)
	if err != nil {
		t.Fatalf("plan %q: %v", spec, err)
	}
	return cond, p
}

// TestJoinCheckpointRoundTrip: for every plannable shape, pushing half the
// feed, checkpointing through the gob wire format, restoring, and pushing
// the rest reproduces the uninterrupted run bit-for-bit — result multiset,
// K trajectory, AvgK and Results. Adaptive shapes checkpoint at an
// adaptation boundary (where tree captures are trajectory-exact); the
// static-K shape checkpoints mid-stream.
func TestJoinCheckpointRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)
	type tc struct {
		name    string
		spec    string
		mk      func() *Condition
		m       int
		opt     Options
		rounds  int
		seed    int64
		domain  int
		atAdapt bool // checkpoint at an adaptation boundary
	}
	adaptive := Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond}
	cases := []tc{
		{"flat-equi3", "flat", mix3, 3, adaptive, 1200, 17, 14, true},
		{"shard4-equi3", "shard:4", mix3, 3, adaptive, 1200, 17, 14, true},
		{"shard8-equi3", "shard:8", mix3, 3, adaptive, 1000, 19, 14, true},
		{"tree-equi3", "tree", mix3, 3, adaptive, 1200, 17, 14, true},
		{"treeshard2-equi3", "tree-shard:2", mix3, 3, adaptive, 1200, 17, 14, true},
		{"shard2-mix4", "shard:2", mix4, 4, adaptive, 900, 23, 12, true},
		{"tree-mix4", "tree", mix4, 4, adaptive, 900, 23, 12, true},
		{"bushy-mix4", "((0 1)x2 (2 3))x2", mix4, 4, adaptive, 900, 23, 12, true},
		{"static-tree-mix4", "tree-shard:2", mix4, 4,
			Options{Policy: StaticSlack, StaticK: 1600}, 700, 29, 12, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer leakcheck.Check(t)
			windows := difftest.Windows(c.m, 700)
			in := difftest.MixWorkload(c.m, c.rounds, c.seed, c.domain)

			// Reference: one uninterrupted run.
			ref := newFaultTrace()
			cond, p := planFor(t, c.spec, c.mk, windows)
			jr := NewJoin(cond, windows, c.opt, append(ref.opts(), WithPlan(p))...)
			pushAll(jr, in)
			ref.Count, ref.AvgK = jr.Results(), jr.AvgK()

			// Interrupted run: checkpoint after half the feed (at the next
			// adaptation boundary on adaptive shapes), round-trip the
			// snapshot through gob, restore, push the rest.
			got := newFaultTrace()
			cond, p = planFor(t, c.spec, c.mk, windows)
			boundary := false
			got.onAdapt = func() { boundary = true }
			j1 := NewJoin(cond, windows, c.opt, append(got.opts(), WithPlan(p))...)
			cut := -1
			for i, e := range in {
				j1.Push(e)
				if i >= len(in)/2 && (!c.atAdapt || boundary) {
					cut = i + 1
					break
				}
			}
			if cut < 0 {
				t.Fatal("no checkpoint point reached")
			}
			snap, err := j1.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			var buf bytes.Buffer
			if err := snap.Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			snap2, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if snap2.Signature() != snap.Signature() {
				t.Fatalf("signature changed over the wire: %q vs %q", snap2.Signature(), snap.Signature())
			}
			got.mute = true // the abandoned original's flush must not record
			j1.Close()
			got.mute = false

			cond2, p2 := planFor(t, c.spec, c.mk, windows)
			j2, err := Restore(snap2, cond2, windows, c.opt, append(got.opts(), WithPlan(p2))...)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			pushAll(j2, in[cut:])
			got.Count, got.AvgK = j2.Results(), j2.AvgK()
			difftest.Compare(t, c.name, ref.Run, got.Run)
		})
	}
}

// fastBackoff is a test restart schedule with no real sleeping.
func fastBackoff(retries int) Backoff {
	return Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond,
		Retries: retries, Seed: 7, Sleep: func(time.Duration) {}}
}

// TestJoinSupervisedRecovery: a supervised join whose workers are killed by
// the deterministic injector recovers from its boundary checkpoints and
// still delivers the healthy run's results and K trajectory exactly once.
func TestJoinSupervisedRecovery(t *testing.T) {
	defer leakcheck.Check(t)
	opt := Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond}
	windows := []Time{700, 700, 700}
	in := difftest.MixWorkload(3, 1200, 17, 14)
	for _, spec := range []string{"shard:4", "tree-shard:2"} {
		t.Run(spec, func(t *testing.T) {
			defer leakcheck.Check(t)
			ref := newFaultTrace()
			cond, p := planFor(t, spec, mix3, windows)
			jr := NewJoin(cond, windows, opt, append(ref.opts(), WithPlan(p))...)
			pushAll(jr, in)

			got := newFaultTrace()
			cond, p = planFor(t, spec, mix3, windows)
			inj := NewInjector().PanicAt(0, 400).PanicAt(1, 2500)
			j := NewJoin(cond, windows, opt, append(got.opts(),
				WithPlan(p),
				WithInjector(inj),
				WithSupervision(Supervision{Backoff: fastBackoff(3)}))...)
			pushAll(j, in)
			if err := j.Err(); err != nil {
				t.Fatalf("terminal error: %v", err)
			}
			if j.Restarts() == 0 {
				t.Fatal("injector fired but no restarts happened")
			}
			difftest.Compare(t, spec, ref.Run, got.Run)
		})
	}
}

// TestJoinTerminalError: when the retry budget is exhausted, the join goes
// terminal with a typed *JoinError chain instead of crashing, and every
// subsequent operation reports it.
func TestJoinTerminalError(t *testing.T) {
	defer leakcheck.Check(t)
	cond, p := planFor(t, "shard:2", mix3, []Time{700, 700, 700})
	inj := NewInjector().PanicAt(0, 200)
	j := NewJoin(cond, []Time{700, 700, 700},
		Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond},
		WithPlan(p), WithInjector(inj),
		WithSupervision(Supervision{Backoff: Backoff{Base: time.Millisecond, Retries: 0, Sleep: func(time.Duration) {}}}))
	in := difftest.MixWorkload(3, 400, 17, 14)
	for _, e := range in {
		j.Push(e) // must not panic; goes terminal mid-stream
	}
	err := j.Err()
	if err == nil {
		t.Fatal("retry budget 0 with an injected panic: want a terminal error")
	}
	var je *JoinError
	if !errors.As(err, &je) {
		t.Fatalf("Err() = %T, want *JoinError", err)
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("cause chain %v carries no *WorkerError", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("cause chain %v does not reach the injected fault", err)
	}
	if perr := j.TryPush(in[0]); !errors.Is(perr, err) {
		t.Fatalf("TryPush after terminal = %v, want the terminal error", perr)
	}
	if _, cerr := j.Checkpoint(); cerr == nil {
		t.Fatal("Checkpoint after terminal must fail")
	}
	j.Close() // no-op, must not panic
}

// TestJoinIngestPolicies: the public ingest bound enforces occupancy, types
// its refusals, and keeps the recall estimate consistent under shedding.
func TestJoinIngestPolicies(t *testing.T) {
	defer leakcheck.Check(t)
	windows := []Time{700, 700, 700}
	opt := Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond}
	in := difftest.MixWorkload(3, 900, 31, 14)

	t.Run("error", func(t *testing.T) {
		defer leakcheck.Check(t)
		cond, p := planFor(t, "shard:2", mix3, windows)
		j := NewJoin(cond, windows, opt, WithPlan(p), WithIngestBound(40, IngestError))
		refused := int64(0)
		for _, e := range in {
			if err := j.TryPush(e); err != nil {
				if !errors.Is(err, ErrOverload) {
					t.Fatalf("TryPush = %v, want ErrOverload", err)
				}
				refused++
			}
			if n := j.BufferedTuples(); n > 40 {
				t.Fatalf("occupancy %d over the bound", n)
			}
		}
		if refused == 0 {
			t.Fatal("bound 40 never refused anything")
		}
		if j.Dropped() != refused {
			t.Fatalf("Dropped = %d, want %d", j.Dropped(), refused)
		}
		j.Close()
	})

	t.Run("shed", func(t *testing.T) {
		defer leakcheck.Check(t)
		// The unbounded run is the shed run's denominator: with ample K the
		// estimator's cumulative true-size tracking is shared, so the delta
		// between the two result counts is what shedding actually cost.
		condU, pU := planFor(t, "shard:2", mix3, windows)
		ju := NewJoin(condU, windows, opt, WithPlan(pU), WithSupervision(Supervision{}))
		for _, e := range in {
			if err := ju.TryPush(e); err != nil {
				t.Fatalf("unbounded: %v", err)
			}
		}
		ju.Close()

		cond, p := planFor(t, "shard:2", mix3, windows)
		j := NewJoin(cond, windows, opt, WithPlan(p), WithIngestBound(30, IngestShed))
		for _, e := range in {
			if err := j.TryPush(e); err != nil {
				t.Fatalf("shed policy refused an arrival: %v", err)
			}
			if n := j.BufferedTuples(); n > 30 {
				t.Fatalf("occupancy %d over the bound", n)
			}
		}
		rec := j.RecallEstimate()
		if rec <= 0 || rec > 1 {
			t.Fatalf("recall estimate %v outside (0,1]", rec)
		}
		if rec == 1 {
			t.Fatal("shedding at bound 30 must show up in the recall estimate")
		}
		// The estimate must stay consistent with what shedding actually
		// delivered: produced-under-shedding over the unbounded run's
		// produced, within the true-size estimator's usual few-percent
		// error (generous 0.15 band against workload noise).
		actual := float64(j.Results()) / float64(ju.Results())
		if d := rec - actual; d < -0.15 || d > 0.15 {
			t.Fatalf("recall estimate %.4f vs actual %.4f (delta %.4f): shed losses not accounted",
				rec, actual, d)
		}
		j.Close()
	})

	t.Run("block", func(t *testing.T) {
		defer leakcheck.Check(t)
		cond, p := planFor(t, "shard:2", mix3, windows)
		j := NewJoin(cond, windows, opt, WithPlan(p), WithIngestBound(30, IngestBlock))
		for _, e := range in {
			if err := j.TryPush(e); err != nil {
				t.Fatalf("block policy refused an arrival: %v", err)
			}
		}
		if j.Dropped() != 0 {
			t.Fatal("block policy must not drop")
		}
		j.Close()
	})
}

// TestJoinTryPushClosed: TryPush reports ErrClosed after Close while Push
// keeps the documented lifecycle panic.
func TestJoinTryPushClosed(t *testing.T) {
	defer leakcheck.Check(t)
	mk := func(jopts ...JoinOption) *Join {
		return NewJoin(EquiChain(2, 0), []Time{Second, Second}, Options{}, jopts...)
	}
	for _, sup := range []bool{false, true} {
		var j *Join
		if sup {
			j = mk(WithSupervision(Supervision{}))
		} else {
			j = mk()
		}
		tp := &Tuple{TS: 1000, Src: 0, Attrs: []float64{1}}
		if err := j.TryPush(tp); err != nil {
			t.Fatalf("healthy TryPush (sup=%v) = %v", sup, err)
		}
		j.Close()
		if err := j.TryPush(tp); !errors.Is(err, ErrClosed) {
			t.Fatalf("TryPush after Close (sup=%v) = %v, want ErrClosed", sup, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Push after Close (sup=%v) must keep the lifecycle panic", sup)
				}
			}()
			j.Push(tp)
		}()
	}
}

// TestRestoreMismatch: a snapshot restores only into its own deployment.
func TestRestoreMismatch(t *testing.T) {
	defer leakcheck.Check(t)
	windows := []Time{700, 700, 700}
	opt := Options{Policy: StaticSlack, StaticK: 1500}
	cond, p := planFor(t, "flat", mix3, windows)
	j := NewJoin(cond, windows, opt, WithPlan(p))
	for _, e := range difftest.MixWorkload(3, 300, 17, 14) {
		j.Push(e)
	}
	snap, err := j.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Different shape.
	cond2, p2 := planFor(t, "shard:2", mix3, windows)
	if _, err := Restore(snap, cond2, windows, opt, WithPlan(p2)); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("restore into a different shape = %v, want ErrRestoreMismatch", err)
	}
	// Different windows.
	w2 := []Time{900, 900, 900}
	cond3, p3 := planFor(t, "flat", mix3, w2)
	if _, err := Restore(snap, cond3, w2, opt, WithPlan(p3)); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("restore with different windows = %v, want ErrRestoreMismatch", err)
	}
	// Garbage bytes.
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("ReadSnapshot on garbage must fail")
	}
}

// TestRestoreIntoSupervised: a snapshot from an unsupervised join restores
// into a supervised one (and doubles as its first recovery point).
func TestRestoreIntoSupervised(t *testing.T) {
	defer leakcheck.Check(t)
	windows := []Time{700, 700, 700}
	opt := Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond}
	in := difftest.MixWorkload(3, 1200, 17, 14)

	ref := newFaultTrace()
	cond, p := planFor(t, "shard:2", mix3, windows)
	jr := NewJoin(cond, windows, opt, append(ref.opts(), WithPlan(p))...)
	pushAll(jr, in)

	got := newFaultTrace()
	cond, p = planFor(t, "shard:2", mix3, windows)
	j1 := NewJoin(cond, windows, opt, append(got.opts(), WithPlan(p))...)
	cut := len(in) / 2
	for _, e := range in[:cut] {
		j1.Push(e)
	}
	snap, err := j1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got.mute = true
	j1.Close()
	got.mute = false

	// Restore under supervision, with a worker kill later in the feed: the
	// restored snapshot is the recovery point until the next boundary.
	cond2, p2 := planFor(t, "shard:2", mix3, windows)
	inj := NewInjector().PanicAt(0, 300)
	j2, err := Restore(snap, cond2, windows, opt, append(got.opts(),
		WithPlan(p2), WithInjector(inj),
		WithSupervision(Supervision{Backoff: fastBackoff(3)}))...)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(j2, in[cut:])
	if err := j2.Err(); err != nil {
		t.Fatalf("terminal: %v", err)
	}
	if j2.Restarts() == 0 {
		t.Fatal("injector fired but no restarts happened")
	}
	difftest.Compare(t, "restore-into-supervised", ref.Run, got.Run)
}

// TestRestoreRefusesLooplessStaticTreeSnapshot: a StaticSlack tree snapshot
// written while static trees ran without a feedback loop carries the tree
// but no loop state (testdata holds one, pushed 60 arrivals deep). Its
// signature still matches, so the restore must refuse the missing state
// with ErrRestoreMismatch, bare and supervised, rather than panic.
func TestRestoreRefusesLooplessStaticTreeSnapshot(t *testing.T) {
	defer leakcheck.Check(t)
	f, err := os.Open("testdata/static-tree-no-loop.snap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	windows := []Time{Second, Second, Second}
	cond, p := planFor(t, "tree", func() *Condition { return EquiChain(3, 0) }, windows)
	opt := Options{Policy: StaticSlack, StaticK: 200}
	for name, jopts := range map[string][]JoinOption{
		"bare":       {WithPlan(p)},
		"supervised": {WithPlan(p), WithSupervision(Supervision{})},
	} {
		j, err := Restore(snap, cond, windows, opt, jopts...)
		if err == nil {
			j.Close()
		}
		if !errors.Is(err, ErrRestoreMismatch) {
			t.Errorf("%s: restore = %v, want ErrRestoreMismatch", name, err)
		}
	}
}

// TestRestoreModelTreeSnapshotV1: testdata/model-tree-v1.snap is a model-
// policy tree snapshot in the layout that stored the tree's loop and
// driver registers beside the tree (ExecState.ATree), captured at the
// fourth adaptation boundary, after arrival 1201 of the feed below.
// Restoring it must either continue exactly like the uninterrupted run —
// the results delivered after the cut, the K trajectory and the result
// count — or be refused with ErrRestoreMismatch, bare and supervised. It
// must never panic.
func TestRestoreModelTreeSnapshotV1(t *testing.T) {
	defer leakcheck.Check(t)
	const cut = 1201
	windows := []Time{Second, Second, Second}
	opt := Options{Gamma: 0.9, Period: 10 * Second, Interval: Second}
	in := gen.SparseEqui3(1500, 37, 100, [3]Time{100, 400, 1500})
	cond, p := planFor(t, "tree", func() *Condition { return EquiChain(3, 0) }, windows)

	ref := newFaultTrace()
	ref.mute = true
	jr := NewJoin(cond, windows, opt, append(ref.opts(), WithPlan(p))...)
	for i, e := range in.Clone() {
		ref.mute = i < cut
		jr.Push(e)
	}
	jr.Close()

	for name, sup := range map[string]bool{"bare": false, "supervised": true} {
		f, err := os.Open("testdata/model-tree-v1.snap")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := newFaultTrace()
		jopts := append(got.opts(), WithPlan(p))
		if sup {
			jopts = append(jopts, WithSupervision(Supervision{}))
		}
		j, err := Restore(snap, cond, windows, opt, jopts...)
		if err != nil {
			if !errors.Is(err, ErrRestoreMismatch) {
				t.Errorf("%s: restore = %v, want success or ErrRestoreMismatch", name, err)
			}
			continue
		}
		pushAll(j, in[cut:].Clone())
		difftest.Compare(t, name, ref.Run, got.Run)
		if j.Results() != jr.Results() {
			t.Errorf("%s: %d results, uninterrupted run %d", name, j.Results(), jr.Results())
		}
	}
}

// TestCheckpointCadenceMatchesEngineDefaults: the supervised shell's
// default cadence — one checkpoint per period, P/L boundaries — uses the
// engines' own normalized P and L. A non-positive Period or Interval, which
// the engines read as their defaults, checkpoints as often as the zero
// Options do, not at every boundary.
func TestCheckpointCadenceMatchesEngineDefaults(t *testing.T) {
	defer leakcheck.Check(t)
	ds := gen.Synthetic3(gen.SynthConfig{Duration: 3 * Minute, Seed: 42})
	run := func(opt Options) (ckpts int, adapts, results int64) {
		j := NewJoin(ds.Cond, ds.Windows, opt, WithSupervision(Supervision{}))
		pushAll(j, ds.Arrivals.Clone())
		return j.Checkpoints(), j.Adaptations(), j.Results()
	}
	wantC, wantA, wantR := run(Options{})
	for _, opt := range []Options{{Interval: -1}, {Period: -5}} {
		if c, a, r := run(opt); c != wantC || a != wantA || r != wantR {
			t.Errorf("%+v: %d checkpoints, %d adaptations, %d results; Options{} took %d, %d, %d",
				opt, c, a, r, wantC, wantA, wantR)
		}
	}
}

// TestInvalidSrcRefused: a tuple whose Src names none of the m streams, or
// whose TS is negative, is refused at the front door on every shape, bare
// and supervised — TryPush with ErrInvalidTuple, Push with its documented
// panic — before any log, buffer or statistics feeder sees it. The join
// stays healthy and its results and K trajectory equal a run that never
// saw the bad tuples.
func TestInvalidSrcRefused(t *testing.T) {
	defer leakcheck.Check(t)
	opt := Options{Gamma: 0.9, Period: Second, Interval: 200 * Millisecond}
	windows := []Time{700, 700, 700}
	in := difftest.MixWorkload(3, 600, 41, 14)
	// refuse feeds the invalid copies of e (Src out of range, TS negative)
	// through TryPush and Push.
	refuse := func(t *testing.T, tryPush func(*Tuple) error, push func(*Tuple), e *Tuple, health func() error) {
		t.Helper()
		for _, bad := range []*Tuple{
			{TS: e.TS, Seq: e.Seq, Src: -1, Attrs: e.Attrs},
			{TS: e.TS, Seq: e.Seq, Src: 3, Attrs: e.Attrs},
			{TS: -1, Seq: e.Seq, Src: e.Src, Attrs: e.Attrs},
			{TS: math.MinInt64, Seq: e.Seq, Src: e.Src, Attrs: e.Attrs},
		} {
			if tryPush != nil {
				if err := tryPush(bad); !errors.Is(err, ErrInvalidTuple) {
					t.Fatalf("TryPush(Src %d, TS %d) = %v, want ErrInvalidTuple", bad.Src, bad.TS, err)
				}
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				push(bad)
				return
			}()
			if !strings.HasPrefix(msg, "qdhj: Push of a tuple whose Src") {
				t.Fatalf("Push(Src %d, TS %d) panicked with %q", bad.Src, bad.TS, msg)
			}
			if err := health(); err != nil {
				t.Fatalf("Err() = %v after a refused Src %d, TS %d", err, bad.Src, bad.TS)
			}
		}
	}
	for _, spec := range []string{"flat", "shard:2", "tree", "tree-shard:2"} {
		for _, supervised := range []bool{false, true} {
			name := spec
			if supervised {
				name += "/supervised"
			}
			t.Run(name, func(t *testing.T) {
				defer leakcheck.Check(t)
				run := func(bad bool) *faultTrace {
					tr := newFaultTrace()
					cond, p := planFor(t, spec, mix3, windows)
					jopts := append(tr.opts(), WithPlan(p))
					if supervised {
						jopts = append(jopts, WithSupervision(Supervision{Backoff: fastBackoff(1)}))
					}
					j := NewJoin(cond, windows, opt, jopts...)
					for i, e := range in {
						if bad && i%150 == 7 {
							refuse(t, j.TryPush, j.Push, e, j.Err)
						}
						j.Push(e)
					}
					j.Close()
					return tr
				}
				difftest.Compare(t, name, run(false).Run, run(true).Run)
			})
		}
	}
	t.Run("MultiJoin", func(t *testing.T) {
		run := func(bad bool) *faultTrace {
			tr := newFaultTrace()
			mj := NewMultiJoin(3)
			var qopts []QueryOption
			for _, o := range tr.opts() {
				qopts = append(qopts, o.(QueryOption))
			}
			mj.Add(mix3(), windows, opt, qopts...)
			for i, e := range in {
				if bad && i%150 == 7 {
					refuse(t, nil, mj.Push, e, func() error { return nil })
				}
				mj.Push(e)
			}
			mj.Close()
			return tr
		}
		difftest.Compare(t, "MultiJoin", run(false).Run, run(true).Run)
	})
}
