package plan

// The fault-injection differential suite: a supervised run with workers
// killed at injected points must reproduce the healthy run bit-for-bit —
// result multiset, result count, and the full adaptation trajectory — on
// every deployment shape, at shard counts 1, 2, 4 and 8. CI runs this
// under -race.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/join"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

var supAdapt = adapt.Config{Gamma: 0.9, P: stream.Second, L: 200 * stream.Millisecond}

// supTrace pins everything the differential compares.
type supTrace struct {
	results int64
	ks      []string
	set     map[string]int
}

func (tr *supTrace) cfg() ExecConfig {
	return ExecConfig{
		Adapt: supAdapt,
		Emit:  func(r stream.Result) { tr.set[difftest.Sig(r.Tuples)]++ },
		OnAdapt: func(ev core.AdaptEvent) {
			tr.ks = append(tr.ks, fmt.Sprintf("%v:%v>%v", ev.Now, ev.PrevK, ev.NewK))
		},
	}
}

// testBackoff never really sleeps and keeps its jitter deterministic.
func testBackoff(retries int) fault.Backoff {
	return fault.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond,
		Retries: retries, Seed: 7, Sleep: func(time.Duration) {}}
}

// runHealthy is the reference: the bare executor, no supervision.
func runHealthy(g *Graph, in stream.Batch) supTrace {
	tr := supTrace{set: map[string]int{}}
	ex := Build(g, tr.cfg())
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	tr.results = ex.Results()
	return tr
}

func runSupervised(t *testing.T, g *Graph, in stream.Batch, scf SuperviseConfig) (*Supervised, supTrace) {
	t.Helper()
	tr := supTrace{set: map[string]int{}}
	s := NewSupervised(g, tr.cfg(), scf)
	for _, e := range in {
		s.Push(e)
	}
	s.Finish()
	if err := s.Err(); err != nil {
		t.Fatalf("supervised run went terminal: %v", err)
	}
	tr.results = s.Results()
	return s, tr
}

func diffSupTraces(t *testing.T, name string, want, got supTrace) {
	t.Helper()
	if got.results != want.results {
		t.Errorf("%s: %d results, want %d", name, got.results, want.results)
	}
	if len(got.ks) != len(want.ks) {
		t.Fatalf("%s: %d adaptations, want %d", name, len(got.ks), len(want.ks))
	}
	for i := range want.ks {
		if got.ks[i] != want.ks[i] {
			t.Fatalf("%s: adaptation %d = %s, want %s", name, i, got.ks[i], want.ks[i])
		}
	}
	sameMultiset(t, name, want.set, got.set)
}

// supShapes is the shape matrix: every engine, shard counts 1/2/4/8, plus
// a stage-sharded tree and a bushy tree when the arity allows.
func supShapes(m int) []string {
	shapes := []string{"flat", "shard:2", "shard:4", "shard:8", "tree", "tree-shard:2"}
	if m == 4 {
		shapes = append(shapes, "((0 1)x4 (2 3))x4")
	}
	return shapes
}

// TestSupervisedRecoveryDifferential kills workers at injected arrival
// counts — twice per run, early and late — and requires the recovered run
// to match the healthy reference exactly.
func TestSupervisedRecoveryDifferential(t *testing.T) {
	conds := []struct {
		name string
		m    int
		mk   func() *join.Condition
	}{
		{"equichain3", 3, func() *join.Condition { return join.EquiChain(3, 0) }},
		{"band-equi-mix4", 4, func() *join.Condition {
			return join.Cross(4).Equi(0, 0, 1, 0).Band(1, 1, 2, 1, 8).Equi(2, 0, 3, 0)
		}},
	}
	for _, tc := range conds {
		in := difftest.MixWorkload(tc.m, 1200, 17, 14)
		w := make([]stream.Time, tc.m)
		for i := range w {
			w[i] = 700
		}
		for _, spec := range supShapes(tc.m) {
			t.Run(fmt.Sprintf("%s/%s", tc.name, spec), func(t *testing.T) {
				leakcheck.Check(t)
				g, err := ParseSpec(spec, tc.mk(), w, 4)
				if err != nil {
					t.Fatal(err)
				}
				want := runHealthy(g, in.Clone())
				if want.results == 0 || len(want.ks) < 4 {
					t.Fatalf("degenerate reference: %d results, %d adaptations", want.results, len(want.ks))
				}

				g2, _ := ParseSpec(spec, tc.mk(), w, 4)
				inj := fault.NewInjector()
				// Worker 0 exists on every shape (worker-less engines check
				// it on the driver thread); the second directive targets the
				// highest shard-local worker id and fires only when sharded.
				inj.PanicAt(0, 400)
				inj.PanicAt(1, 2500)
				// CheckpointEvery 1 pins the strictest mode: a capture at
				// every boundary, so recoveries restore the newest possible
				// checkpoint. (Other tests cover the amortized default.)
				s, got := runSupervised(t, g2, in.Clone(), SuperviseConfig{
					Backoff: testBackoff(3), Inject: inj, CheckpointEvery: 1})
				if s.Restarts() < 1 {
					t.Fatalf("no restart recorded; the injector never fired")
				}
				diffSupTraces(t, spec, want, got)
			})
		}
	}
}

// TestSupervisedHealthyPassThrough: supervision of a run with no faults
// must not perturb it — boundary checkpoints included.
func TestSupervisedHealthyPassThrough(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 900, 5, 12)
	w := []stream.Time{700, 700, 700}
	for _, spec := range []string{"shard:4", "tree-shard:2"} {
		g, _ := ParseSpec(spec, join.EquiChain(3, 0), w, 4)
		want := runHealthy(g, in.Clone())
		g2, _ := ParseSpec(spec, join.EquiChain(3, 0), w, 4)
		s, got := runSupervised(t, g2, in.Clone(),
			SuperviseConfig{Backoff: testBackoff(2), CheckpointEvery: 1})
		if s.Restarts() != 0 {
			t.Fatalf("%s: healthy run restarted %d times", spec, s.Restarts())
		}
		diffSupTraces(t, spec, want, got)
	}
}

// TestSupervisedTerminal: a fault with a zero retry budget surfaces as a
// terminal *fault.JoinError via Err(); Push becomes a silent no-op and
// TryPush returns the error. The injected cause stays recoverable through
// the error chain.
func TestSupervisedTerminal(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 400, 9, 12)
	w := []stream.Time{700, 700, 700}
	g, _ := ParseSpec("shard:2", join.EquiChain(3, 0), w, 4)
	inj := fault.NewInjector()
	inj.PanicAt(0, 200)
	s := NewSupervised(g, ExecConfig{Adapt: supAdapt}, SuperviseConfig{
		Backoff: fault.Backoff{Base: time.Millisecond, Retries: 0, Sleep: func(time.Duration) {}},
		Inject:  inj,
	})
	for _, e := range in {
		s.Push(e)
	}
	err := s.Err()
	if err == nil {
		t.Fatal("no terminal error after an unrecovered fault")
	}
	var je *fault.JoinError
	if !errors.As(err, &je) {
		t.Fatalf("Err() = %T, want *fault.JoinError", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("terminal error does not unwrap to the injected cause: %v", err)
	}
	var we *fault.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("terminal error does not carry the worker identity: %v", err)
	}
	if tp := s.TryPush(in[0]); !errors.As(tp, &je) {
		t.Fatalf("TryPush after terminal failure = %v, want the JoinError", tp)
	}
	s.Finish() // must be a no-op, not a panic
}

// TestSupervisedLifecycleSplit pins the error-model boundary: operational
// faults surface as typed errors, API misuse keeps the documented panics —
// supervision must never swallow the latter.
func TestSupervisedLifecycleSplit(t *testing.T) {
	leakcheck.Check(t)
	w := []stream.Time{700, 700, 700}
	mk := func() *Supervised {
		g, _ := ParseSpec("flat", join.EquiChain(3, 0), w, 4)
		return NewSupervised(g, ExecConfig{Adapt: supAdapt}, SuperviseConfig{Backoff: testBackoff(1)})
	}
	tup := &stream.Tuple{TS: 3000, Src: 0, Attrs: []float64{1, 1}}

	// Typed side: TryPush after Finish is an error, not a panic.
	s := mk()
	s.Push(tup)
	s.Finish()
	if err := s.TryPush(tup); !errors.Is(err, fault.ErrClosed) {
		t.Fatalf("TryPush after Finish = %v, want fault.ErrClosed", err)
	}

	// Panic side: Push after Finish keeps the engine's lifecycle panic.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if _, ok := r.(string); !ok {
				t.Fatalf("%s: panic value %T, want the documented string panic", name, r)
			}
		}()
		f()
	}
	mustPanic("push-after-close", func() { s.Push(tup) })
	mustPanic("double-close", func() { s.Finish() })
	mustPanic("sealed-condition", func() {
		g, _ := ParseSpec("flat", join.EquiChain(3, 0), w, 4)
		Build(g, ExecConfig{Adapt: supAdapt})
		g.Cond.Equi(0, 0, 1, 0)
	})
}

// TestSupervisedIngestError: the Error policy refuses arrivals at the
// bound with fault.ErrOverload, counts them in Dropped, and — because
// refused tuples never enter the join or the log — a crash-recovery run
// admits and refuses exactly the same sequence.
func TestSupervisedIngestError(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 900, 31, 12)
	w := []stream.Time{700, 700, 700}
	ing := IngestConfig{MaxBuffered: 40, Policy: IngestError}

	run := func(inj *fault.Injector) (*Supervised, supTrace, int64) {
		tr := supTrace{set: map[string]int{}}
		g, _ := ParseSpec("shard:4", join.EquiChain(3, 0), w, 4)
		s := NewSupervised(g, tr.cfg(), SuperviseConfig{Backoff: testBackoff(3), Inject: inj, Ingest: ing})
		var drops int64
		for _, e := range in.Clone() {
			if err := s.TryPush(e); errors.Is(err, fault.ErrOverload) {
				drops++
			} else if err != nil {
				t.Fatalf("TryPush: %v", err)
			}
		}
		s.Finish()
		tr.results = s.Results()
		return s, tr, drops
	}

	sWant, want, dropsWant := run(nil)
	if dropsWant == 0 {
		t.Fatal("bound never hit; the test exercises nothing")
	}
	if sWant.Dropped() != dropsWant {
		t.Fatalf("Dropped() = %d, caller counted %d", sWant.Dropped(), dropsWant)
	}

	inj := fault.NewInjector()
	inj.PanicAt(0, 500)
	sGot, got, dropsGot := run(inj)
	if sGot.Restarts() < 1 {
		t.Fatal("injector never fired")
	}
	if dropsGot != dropsWant {
		t.Fatalf("recovered run refused %d arrivals, healthy run refused %d", dropsGot, dropsWant)
	}
	diffSupTraces(t, "ingest-error", want, got)
}

// TestSupervisedIngestShed: the Shed policy keeps occupancy at the bound,
// reduces recall below 1, keeps the estimate consistent after recovery
// (sheds replay deterministically), and the Block policy never drops.
func TestSupervisedIngestShed(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 900, 31, 12)
	w := []stream.Time{700, 700, 700}
	ing := IngestConfig{MaxBuffered: 30, Policy: IngestShed}

	run := func(inj *fault.Injector) (*Supervised, supTrace) {
		tr := supTrace{set: map[string]int{}}
		g, _ := ParseSpec("shard:2", join.EquiChain(3, 0), w, 4)
		s := NewSupervised(g, tr.cfg(), SuperviseConfig{Backoff: testBackoff(3), Inject: inj, Ingest: ing})
		for _, e := range in.Clone() {
			if s.BufferedTuples() > ing.MaxBuffered {
				t.Fatalf("occupancy %d exceeds the bound %d between pushes", s.BufferedTuples(), ing.MaxBuffered)
			}
			if err := s.TryPush(e); err != nil {
				t.Fatalf("TryPush: %v", err)
			}
		}
		s.Finish()
		tr.results = s.Results()
		return s, tr
	}

	sWant, want := run(nil)
	recallWant := sWant.RecallEstimate()
	if recallWant >= 1 || recallWant <= 0 {
		t.Fatalf("shed run recall estimate = %v, want in (0, 1)", recallWant)
	}
	if want.results == 0 {
		t.Fatal("shed run produced nothing; bound too tight for the test")
	}

	inj := fault.NewInjector()
	inj.PanicAt(0, 700)
	sGot, got := run(inj)
	if sGot.Restarts() < 1 {
		t.Fatal("injector never fired")
	}
	diffSupTraces(t, "ingest-shed", want, got)
	if r := sGot.RecallEstimate(); r != recallWant {
		t.Fatalf("recovered shed run recall = %v, healthy = %v", r, recallWant)
	}

	// Block: advisory bound, nothing refused, recall stays 1.
	g, _ := ParseSpec("shard:2", join.EquiChain(3, 0), w, 4)
	s := NewSupervised(g, ExecConfig{Adapt: supAdapt}, SuperviseConfig{
		Backoff: testBackoff(1), Ingest: IngestConfig{MaxBuffered: 30, Policy: IngestBlock}})
	for _, e := range in.Clone() {
		if err := s.TryPush(e); err != nil {
			t.Fatalf("Block policy refused an arrival: %v", err)
		}
	}
	s.Finish()
	if s.Dropped() != 0 {
		t.Fatalf("Block policy dropped %d", s.Dropped())
	}
	if r := s.RecallEstimate(); r != 1 {
		t.Fatalf("Block policy recall = %v, want 1", r)
	}
}

// TestExecStateSignatureMismatch: restoring a snapshot into a different
// deployment is refused with fault.ErrRestoreMismatch.
func TestExecStateSignatureMismatch(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 600, 3, 12)
	w := []stream.Time{700, 700, 700}
	g, _ := ParseSpec("tree", join.EquiChain(3, 0), w, 4)
	cfg := ExecConfig{Adapt: supAdapt}
	ex := Build(g, cfg)
	for _, e := range in {
		ex.Push(e)
	}
	st, err := Checkpoint(g, cfg, ex)
	if err != nil {
		t.Fatal(err)
	}
	ex.Finish()

	// Different shape.
	g2, _ := ParseSpec("shard:2", join.EquiChain(3, 0), w, 4)
	if _, err := Restore(g2, cfg, st); !errors.Is(err, fault.ErrRestoreMismatch) {
		t.Fatalf("restore into a different shape = %v, want ErrRestoreMismatch", err)
	}
	// Different windows.
	g3, _ := ParseSpec("tree", join.EquiChain(3, 0), []stream.Time{700, 700, 800}, 4)
	if _, err := Restore(g3, cfg, st); !errors.Is(err, fault.ErrRestoreMismatch) {
		t.Fatalf("restore under different windows = %v, want ErrRestoreMismatch", err)
	}
	// Same deployment: accepted, and the restored run finishes cleanly.
	g4, _ := ParseSpec("tree", join.EquiChain(3, 0), w, 4)
	ex4, err := Restore(g4, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	ex4.Finish()
}
