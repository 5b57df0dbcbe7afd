package plan

// The supervised runtime shell: a healthy run passes through unperturbed,
// an exhausted retry budget goes terminal with a typed error, misuse keeps
// its panics. The recovery differentials — workers killed at injected
// points on every deployment shape, the recovered run equal to the healthy
// one — are rows of the differential table (internal/difftest/table). CI
// runs these under -race.

import (
	"errors"
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

// traced returns a fresh run and the execution config that captures into
// it: results and the K trajectory, under supAdapt.
func traced() (*difftest.Run, ExecConfig) {
	r := difftest.NewRun()
	r.Ks = []difftest.KStep{}
	return r, ExecConfig{Adapt: supAdapt, Emit: r.Emit,
		OnAdapt: func(ev core.AdaptEvent) { r.Adapt(difftest.KStep(ev)) }}
}

// testBackoff never really sleeps and keeps its jitter deterministic.
func testBackoff(retries int) fault.Backoff {
	return fault.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond,
		Retries: retries, Seed: 7, Sleep: func(time.Duration) {}}
}

// runHealthy is the reference: the bare executor, no supervision.
func runHealthy(g *Graph, in stream.Batch) *difftest.Run {
	r, cfg := traced()
	ex := Build(g, cfg)
	for _, e := range in {
		ex.Push(e)
	}
	ex.Finish()
	r.Count = ex.Results()
	return r
}

func runSupervised(t *testing.T, g *Graph, in stream.Batch, scf SuperviseConfig) (*Supervised, *difftest.Run) {
	t.Helper()
	r, cfg := traced()
	s := NewSupervised(g, cfg, scf)
	for _, e := range in {
		s.Push(e)
	}
	s.Finish()
	if err := s.Err(); err != nil {
		t.Fatalf("supervised run went terminal: %v", err)
	}
	r.Count = s.Results()
	return s, r
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
		difftest.Compare(t, spec, want, got)
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

	run := func(inj *fault.Injector) (*Supervised, *difftest.Run, int64) {
		tr, cfg := traced()
		g, _ := ParseSpec("shard:4", join.EquiChain(3, 0), w, 4)
		s := NewSupervised(g, cfg, SuperviseConfig{Backoff: testBackoff(3), Inject: inj, Ingest: ing})
		var drops int64
		for _, e := range in.Clone() {
			if err := s.TryPush(e); errors.Is(err, fault.ErrOverload) {
				drops++
			} else if err != nil {
				t.Fatalf("TryPush: %v", err)
			}
		}
		s.Finish()
		tr.Count = s.Results()
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
	difftest.Compare(t, "ingest-error", want, got)
}

// TestSupervisedIngestShed: the Shed policy keeps occupancy at the bound,
// reduces recall below 1, keeps the estimate consistent after recovery
// (sheds replay deterministically), and the Block policy never drops.
func TestSupervisedIngestShed(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 900, 31, 12)
	w := []stream.Time{700, 700, 700}
	ing := IngestConfig{MaxBuffered: 30, Policy: IngestShed}

	run := func(inj *fault.Injector) (*Supervised, *difftest.Run) {
		tr, cfg := traced()
		g, _ := ParseSpec("shard:2", join.EquiChain(3, 0), w, 4)
		s := NewSupervised(g, cfg, SuperviseConfig{Backoff: testBackoff(3), Inject: inj, Ingest: ing})
		for _, e := range in.Clone() {
			if s.BufferedTuples() > ing.MaxBuffered {
				t.Fatalf("occupancy %d exceeds the bound %d between pushes", s.BufferedTuples(), ing.MaxBuffered)
			}
			if err := s.TryPush(e); err != nil {
				t.Fatalf("TryPush: %v", err)
			}
		}
		s.Finish()
		tr.Count = s.Results()
		return s, tr
	}

	sWant, want := run(nil)
	recallWant := sWant.RecallEstimate()
	if recallWant >= 1 || recallWant <= 0 {
		t.Fatalf("shed run recall estimate = %v, want in (0, 1)", recallWant)
	}
	if want.Count == 0 {
		t.Fatal("shed run produced nothing; bound too tight for the test")
	}

	inj := fault.NewInjector()
	inj.PanicAt(0, 700)
	sGot, got := run(inj)
	if sGot.Restarts() < 1 {
		t.Fatal("injector never fired")
	}
	difftest.Compare(t, "ingest-shed", want, got)
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
	st := Checkpoint(g, cfg, ex)
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

// TestStaticTreeLogBounded: a supervised StaticSlack tree checkpoints at its
// adaptation boundaries like every other shape, so its arrival log spans one
// checkpoint interval, not the whole feed — the peak log length does not
// grow from two to four units of the same feed.
func TestStaticTreeLogBounded(t *testing.T) {
	leakcheck.Check(t)
	const rounds = 1000 // 10 ms each: 10 s per unit
	unit := difftest.MixWorkload(3, rounds, 5, 12)
	maxD, _ := unit.MaxDelay()
	w := []stream.Time{700, 700, 700}
	run := func(units int) (logPeak, ckpts int) {
		g, _ := ParseSpec("tree", join.EquiChain(3, 0), w, 4)
		s := NewSupervised(g, ExecConfig{Adapt: supAdapt, Policy: PolicyStatic, StaticK: maxD},
			SuperviseConfig{Backoff: testBackoff(1)})
		for u := 0; u < units; u++ {
			for _, e := range unit {
				c := *e
				c.TS += stream.Time(u * rounds * 10)
				c.Seq += uint64(u * len(unit))
				s.Push(&c)
				logPeak = max(logPeak, len(s.log))
			}
		}
		s.Finish()
		if err := s.Err(); err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		return logPeak, s.Checkpoints()
	}
	log2, ckpt2 := run(2)
	log4, ckpt4 := run(4)
	if ckpt2 == 0 || ckpt4 == 0 {
		t.Fatalf("%d and %d checkpoints over 2 and 4 units; a static tree must checkpoint at its boundaries", ckpt2, ckpt4)
	}
	if log4 > log2 {
		t.Fatalf("4 units peak at %d logged arrivals, 2 units at %d", log4, log2)
	}
	t.Logf("peak %d logged arrivals of %d per unit; %d and %d checkpoints", log2, len(unit), ckpt2, ckpt4)
}
