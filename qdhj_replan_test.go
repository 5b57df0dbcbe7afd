package qdhj

// End-to-end online re-planning through the public API: the dense↔sparse
// phase-flipping star workload must make the live plan switch shapes at
// each phase change while the delivered result multiset stays exactly the
// uninterrupted reference's.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/leakcheck"
)

func replanStarCond() *Condition { return Star(4, []int{0, 1, 2}, []int{0, 0, 0}) }

func replanSig(r Result) string {
	parts := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		parts[i] = fmt.Sprintf("%d:%d", t.Src, t.Seq)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestOnlineReplanPhaseFlip drives WithOnlineReplan over the phase-flipping
// star: the plan must migrate at least once per phase change, in both
// directions, delivering the exact reference multiset.
func TestOnlineReplanPhaseFlip(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(4, 500, 23, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	w := []Time{600, 600, 600, 600}
	opt := Options{Policy: StaticSlack, StaticK: maxD}

	want := map[string]int{}
	ref := NewJoin(replanStarCond(), w, opt,
		WithResults(func(r Result) { want[replanSig(r)]++ }))
	for _, e := range in.Clone() {
		ref.Push(e)
	}
	ref.Close()

	got := map[string]int{}
	var events []MigrationEvent
	j := NewJoin(replanStarCond(), w, opt,
		WithResults(func(r Result) { got[replanSig(r)]++ }),
		WithOnlineReplan(ReplanOptions{
			Period: 2000, MinDwell: 3000, Improvement: 1.2,
			OnMigrate: func(ev MigrationEvent) { events = append(events, ev) },
		}))
	startShape := j.CurrentPlan().Explain()
	for _, e := range in {
		j.Push(e)
	}
	j.Close()

	if j.Migrations() < 3 {
		t.Fatalf("3 phase changes, %d migrations — the live plan must switch shapes at least once per change", j.Migrations())
	}
	if len(events) != j.Migrations() {
		t.Fatalf("OnMigrate observed %d events, Migrations() says %d", len(events), j.Migrations())
	}
	var toTree, toFlat bool
	for i, ev := range events {
		if ev.From == ev.To || ev.FromExplain == "" || ev.ToExplain == "" {
			t.Fatalf("event %d incomplete: %+v", i, ev)
		}
		if ev.From == "flat4" {
			toTree = true
		}
		if ev.To == "flat4" {
			toFlat = true
		}
	}
	if !toTree || !toFlat {
		t.Fatalf("want shape switches in both directions, got toTree=%v toFlat=%v", toTree, toFlat)
	}
	if cur := j.CurrentPlan().Explain(); cur == startShape {
		t.Fatalf("CurrentPlan still explains the initial deployment after %d migrations", j.Migrations())
	}

	if len(got) != len(want) {
		t.Fatalf("replanning run delivered %d distinct results, reference %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("result %s delivered ×%d, want ×%d", k, got[k], n)
		}
	}
	if j.Results() != int64(len(want)) {
		t.Fatalf("Results() = %d across migrations, want the gate-delivered %d", j.Results(), len(want))
	}
}

// TestOnlineReplanAdaptive runs the full quality-driven policy under
// re-planning: the loop state transplants across shapes, so adaptations
// keep firing and no result is delivered twice.
func TestOnlineReplanAdaptive(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(4, 500, 31, 12, 600, 200)
	w := []Time{600, 600, 600, 600}

	maxD, _ := in.MaxDelay()
	want := map[string]int{}
	ref := NewJoin(replanStarCond(), w, Options{Policy: StaticSlack, StaticK: maxD},
		WithResults(func(r Result) { want[replanSig(r)]++ }))
	for _, e := range in.Clone() {
		ref.Push(e)
	}
	ref.Close()

	got := map[string]int{}
	j := NewJoin(replanStarCond(), w,
		Options{Gamma: 0.9, Period: 4000, Interval: 1000},
		WithResults(func(r Result) { got[replanSig(r)]++ }),
		WithOnlineReplan(ReplanOptions{Period: 2000, MinDwell: 3000, Improvement: 1.2}))
	for _, e := range in {
		j.Push(e)
	}
	j.Close()

	if j.Migrations() == 0 {
		t.Fatal("adaptive phase-flipping run never migrated")
	}
	if j.Adaptations() == 0 {
		t.Fatal("no adaptation steps across migrations — loop transplant lost")
	}
	for k, n := range got {
		if n > want[k] {
			t.Fatalf("result %s delivered ×%d, full-coverage reference has ×%d — duplicate or spurious", k, n, want[k])
		}
	}
	if len(got) == 0 {
		t.Fatal("adaptive replanning run delivered nothing")
	}
}

// TestOnlineReplanRunChannel: the channel front-end keeps delivering across
// migrations (the gate's inner sink survives executor replacement).
func TestOnlineReplanRunChannel(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(2, 500, 47, 12, 600, 100)
	maxD, _ := in.MaxDelay()
	w := []Time{600, 600, 600, 600}
	j := NewJoin(replanStarCond(), w, Options{Policy: StaticSlack, StaticK: maxD},
		WithOnlineReplan(ReplanOptions{Period: 2000, MinDwell: 2000, Improvement: 1.2}))
	ch := make(chan *Tuple)
	out := j.RunChannel(ch)
	done := make(chan int64)
	go func() {
		var n int64
		for range out {
			n++
		}
		done <- n
	}()
	for _, e := range in {
		ch <- e
	}
	close(ch)
	n := <-done
	if j.Migrations() == 0 {
		t.Fatal("dense→sparse flip never migrated")
	}
	if n == 0 || n != j.Results() {
		t.Fatalf("channel delivered %d results, gate counted %d", n, j.Results())
	}
}

// flipRun is one re-planning pass over the phase-flipping star at a fixed
// K: the delivered multiset, the migration events, and the arrival count at
// each migration.
type flipRun struct {
	set    map[string]int
	events []MigrationEvent
	at     []int
	j      *Join
}

// runFlip feeds in through push (Join.Push or Join.TryPush) into a
// re-planning join built with extra options.
func runFlip(t *testing.T, in []*Tuple, maxD Time, push func(*Join, *Tuple) error, extra ...JoinOption) *flipRun {
	t.Helper()
	r := &flipRun{set: map[string]int{}}
	pushed := 0
	opts := append([]JoinOption{
		WithResults(func(res Result) { r.set[replanSig(res)]++ }),
		WithOnlineReplan(ReplanOptions{
			Period: 2000, MinDwell: 3000, Improvement: 1.2,
			OnMigrate: func(ev MigrationEvent) {
				r.events = append(r.events, ev)
				r.at = append(r.at, pushed)
			},
		})}, extra...)
	r.j = NewJoin(replanStarCond(), []Time{600, 600, 600, 600}, Options{Policy: StaticSlack, StaticK: maxD}, opts...)
	for _, e := range in {
		pushed++
		if err := push(r.j, e); err != nil {
			t.Fatalf("push %d: %v", pushed, err)
		}
	}
	r.j.Close()
	if err := r.j.Err(); err != nil {
		t.Fatalf("terminal: %v", err)
	}
	return r
}

func plainPush(j *Join, e *Tuple) error { j.Push(e); return nil }

// flipReference is the uninterrupted flat run at the fixed K.
func flipReference(in []*Tuple, maxD Time) map[string]int {
	want := map[string]int{}
	ref := NewJoin(replanStarCond(), []Time{600, 600, 600, 600}, Options{Policy: StaticSlack, StaticK: maxD},
		WithResults(func(r Result) { want[replanSig(r)]++ }))
	for _, e := range in {
		ref.Push(e)
	}
	ref.Close()
	return want
}

func sameSet(t *testing.T, name string, want, got map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct results, want %d", name, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: result %s delivered ×%d, want ×%d", name, k, got[k], n)
		}
	}
}

// sameMigrations compares what a migration event pins: shapes, boundary,
// horizon and replay depth.
func sameMigrations(t *testing.T, name string, want, got []MigrationEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d migrations, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.From != w.From || g.To != w.To || g.At != w.At || g.Horizon != w.Horizon || g.Replayed != w.Replayed {
			t.Fatalf("%s: migration %d = %s→%s at %d (horizon %d, replayed %d), want %s→%s at %d (horizon %d, replayed %d)",
				name, i, g.From, g.To, g.At, g.Horizon, g.Replayed, w.From, w.To, w.At, w.Horizon, w.Replayed)
		}
	}
}

// TestOnlineReplanSupervised: re-planning composes with supervision. Worker
// kills armed before the first migration and right after it recover from
// the shell's checkpoints — the second from the fresh checkpoint of the
// migrated-to shape — while the migrations stay those of the unsupervised
// run and the delivered multiset stays the reference's.
func TestOnlineReplanSupervised(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(4, 500, 23, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	want := flipReference(in.Clone(), maxD)
	plain := runFlip(t, in.Clone(), maxD, plainPush)
	if len(plain.events) < 3 {
		t.Fatalf("unsupervised run migrated %d times, want ≥ 3", len(plain.events))
	}

	first := int64(plain.at[0])
	inj := NewInjector().PanicAt(0, first/2).PanicAt(0, first+1)
	var causes []error
	sup := runFlip(t, in.Clone(), maxD, plainPush, WithInjector(inj),
		WithSupervision(Supervision{Backoff: fastBackoff(3), OnRestart: func(_ int, err error) { causes = append(causes, err) }}))
	if sup.j.Restarts() != 2 || len(causes) != 2 {
		t.Fatalf("two kills fired, Restarts() = %d, OnRestart saw %d", sup.j.Restarts(), len(causes))
	}
	for _, err := range causes {
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("recovered from %v, want the injected kills", err)
		}
	}
	sameMigrations(t, "supervised", plain.events, sup.events)
	sameSet(t, "supervised", want, sup.set)
	if sup.j.Results() != int64(len(want)) {
		t.Fatalf("Results() = %d, want %d", sup.j.Results(), len(want))
	}
}

// TestOnlineReplanTryPush: TryPush runs the re-planner exactly like Push —
// the same migrations, the same delivered multiset.
func TestOnlineReplanTryPush(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(4, 500, 23, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	pushed := runFlip(t, in.Clone(), maxD, plainPush)
	tried := runFlip(t, in.Clone(), maxD, (*Join).TryPush)
	if len(pushed.events) == 0 {
		t.Fatal("Push-fed run never migrated")
	}
	sameMigrations(t, "TryPush", pushed.events, tried.events)
	sameSet(t, "TryPush", pushed.set, tried.set)
}

// TestOnlineReplanCheckpointAfterMigration: a snapshot taken after a live
// migration is signed with the deployed plan, so it restores under
// WithPlan(CurrentPlan()); the restored run completes the delivery.
func TestOnlineReplanCheckpointAfterMigration(t *testing.T) {
	leakcheck.Check(t)
	in := gen.PhaseFlipStar4(4, 500, 23, 12, 600, 200)
	maxD, _ := in.MaxDelay()
	w := []Time{600, 600, 600, 600}
	opt := Options{Policy: StaticSlack, StaticK: maxD}
	want := flipReference(in.Clone(), maxD)

	got := map[string]int{}
	mute := false
	sink := WithResults(func(r Result) {
		if !mute {
			got[replanSig(r)]++
		}
	})
	cond := replanStarCond()
	j := NewJoin(cond, w, opt, sink, WithOnlineReplan(ReplanOptions{Period: 2000, MinDwell: 3000, Improvement: 1.2}))
	cut := -1
	for i, e := range in {
		j.Push(e)
		if j.Migrations() == 1 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("the feed never migrated")
	}
	snap, err := j.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	deployed := j.CurrentPlan()
	mute = true // the abandoned original's flush must not record
	j.Close()
	mute = false

	if _, err := Restore(snap, cond, w, opt); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("restoring into the initial flat shape = %v, want ErrRestoreMismatch", err)
	}
	j2, err := Restore(snap, cond, w, opt, sink, WithPlan(deployed))
	if err != nil {
		t.Fatalf("restore under the deployed plan: %v", err)
	}
	for _, e := range in[cut:] {
		j2.Push(e)
	}
	j2.Close()
	sameSet(t, "checkpoint after migration", want, got)
}

// TestAutoPlanFrom: measured statistics flow through the snapshot into the
// planner — a dense measurement keeps the flat shape, a sparse one flips
// the same condition to a tree.
func TestAutoPlanFrom(t *testing.T) {
	leakcheck.Check(t)
	w := []Time{600, 600, 600, 600}
	run := func(domain int) StatsSnapshot {
		in := gen.PhaseFlipStar4(1, 800, 5, domain, domain, 100)
		maxD, _ := in.MaxDelay()
		j := NewJoin(replanStarCond(), w, Options{Policy: StaticSlack, StaticK: maxD})
		for _, e := range in {
			j.Push(e)
		}
		j.Close()
		return j.Snapshot()
	}
	dense := AutoPlanFrom(replanStarCond(), w, PlanHints{}, run(12))
	if s := dense.Explain(); !strings.Contains(s, "flat") {
		t.Fatalf("dense measurement must keep the flat operator, got:\n%s", s)
	}
	sparse := AutoPlanFrom(replanStarCond(), w, PlanHints{}, run(600))
	if s := sparse.Explain(); strings.Contains(s, "flat") {
		t.Fatalf("sparse measurement must flip to a tree, got:\n%s", s)
	}
}
