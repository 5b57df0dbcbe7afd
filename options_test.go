package qdhj

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/plan"
)

// TestOptionMatrix iterates plan.Matrix: every JoinOption alone and every
// pair of them, handed to NewJoin and to Restore, on a condition the
// planner shards flat and on one without a full key class, where it picks
// trees. A cell the matrix refuses panics at construction with exactly
// "qdhj: " + the refusal's message; every other cell constructs and runs a
// few hundred tuples, so no refusal known at construction hides behind a
// later Push. Every row of the matrix must be met by some cell.
func TestOptionMatrix(t *testing.T) {
	leakcheck.Check(t)
	windows := []Time{Second, Second, Second}
	type option struct {
		name string
		// mk returns the option for cond and the deployment features it
		// turns on.
		mk func(cond *Condition) (JoinOption, plan.Feature)
		// static runs the cell under Options{Policy: StaticSlack}.
		static bool
	}
	plain := func(o JoinOption, f plan.Feature) func(*Condition) (JoinOption, plan.Feature) {
		return func(*Condition) (JoinOption, plan.Feature) { return o, f }
	}
	planned := func(p func(*Condition) *Plan) func(*Condition) (JoinOption, plan.Feature) {
		return func(c *Condition) (JoinOption, plan.Feature) {
			pl := p(c)
			if _, flat := pl.g.FlatShards(); !flat {
				return WithPlan(pl), plan.Planned | plan.TreePlanned
			}
			return WithPlan(pl), plan.Planned
		}
	}
	parsed := func(spec string) func(*Condition) *Plan {
		return func(c *Condition) *Plan {
			p, err := ParsePlan(spec, c, windows, 0)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	auto := func(c *Condition) *Plan { return AutoPlan(c, windows, PlanHints{Shards: 2}) }
	// A worker daemon pins the first deployment it serves: each condition
	// gets its own.
	optionsOn := func(workers []string) []option {
		return []option{
			{name: "WithResults", mk: plain(WithResults(func(Result) {}), 0)},
			{name: "WithResultCounts", mk: plain(WithResultCounts(func(Time, int64) {}), 0)},
			{name: "WithAdaptHook", mk: plain(WithAdaptHook(func(AdaptEvent) {}), 0)},
			{name: "WithShards", mk: plain(WithShards(2), plan.Sharded)},
			{name: "WithRemoteWorkers", mk: plain(WithRemoteWorkers(workers...), plan.Remote)},
			{name: "WithFrameBatch", mk: plain(WithFrameBatch(7), 0)},
			{name: "WithPlan(shard:2)", mk: planned(parsed("shard:2"))},
			{name: "WithPlan(tree)", mk: planned(parsed("tree"))},
			{name: "WithPlan(tree, StaticSlack)", mk: planned(parsed("tree")), static: true},
			{name: "WithPlan(AutoPlan(Shards 2))", mk: planned(auto)},
			{name: "WithSupervision", mk: plain(WithSupervision(Supervision{}), 0)},
			{name: "WithIngestBound", mk: plain(WithIngestBound(100, IngestError), 0)},
			{name: "WithInjector", mk: plain(WithInjector(NewInjector()), plan.Injected)},
			{name: "WithOnlineReplan", mk: plain(WithOnlineReplan(ReplanOptions{}), plan.Replanned)},
		}
	}
	feed := func(from, to int) []*Tuple {
		var out []*Tuple
		for i := from; i < to; i++ {
			out = append(out, &Tuple{TS: Time(i * 10), Seq: uint64(i), Src: i % 3, Attrs: []float64{float64(i % 7), float64(i % 5)}})
		}
		return out
	}
	run := func(j *Join, in []*Tuple) {
		for _, e := range in {
			j.Push(e)
		}
	}
	star := func() *Condition { return Star(3, []int{0, 1}, []int{0, 0}) }
	if _, f := planned(auto)(star()); f&plan.TreePlanned == 0 {
		t.Fatal("Star(3, {0, 1}, {0, 0}) has no full key class; AutoPlan at two shards must pick a tree")
	}

	// build constructs one cell, runs it and closes it. Restore's snapshot
	// comes from NewJoin on the cell's options without the re-planner, or
	// from a plain join when the cell is refused.
	build := func(restore, refused bool, cond *Condition, cell []option) error {
		var jo, source []JoinOption
		var opt Options
		for _, o := range cell {
			op, _ := o.mk(cond)
			jo = append(jo, op)
			if o.name != "WithOnlineReplan" && !refused {
				source = append(source, op)
			}
			if o.static {
				opt = Options{Policy: StaticSlack, StaticK: Second}
			}
		}
		if !restore {
			j := NewJoin(cond, windows, opt, jo...)
			run(j, feed(0, 300))
			j.Close()
			return nil
		}
		src := NewJoin(cond, windows, opt, source...)
		run(src, feed(0, 150))
		snap, err := src.Checkpoint()
		src.Close()
		if err != nil {
			return err
		}
		j, err := Restore(snap, cond, windows, opt, jo...)
		if err != nil {
			return err
		}
		run(j, feed(150, 300))
		j.Close()
		return nil
	}

	met := map[*plan.Refusal]bool{}
	for cname, cond := range map[string]func() *Condition{"EquiChain": func() *Condition { return EquiChain(3, 0) }, "Star": star} {
		options := optionsOn(startNetWorkers(t, 2, 0, nil))
		for _, restore := range []bool{false, true} {
			host := "NewJoin"
			var base plan.Feature
			if restore {
				host, base = "Restore", plan.Restored
			}
			for i, a := range options {
				for _, b := range options[i:] {
					c := cond()
					cell := fmt.Sprintf("%s(%s, %s, %s)", host, cname, a.name, b.name)
					pair := []option{a, b}
					switch {
					case b.name == a.name:
						pair = pair[:1]
					case strings.HasPrefix(a.name, "WithPlan") && strings.HasPrefix(b.name, "WithPlan"):
						// A second plan replaces the first, as any option given
						// twice does; there is no pair to judge.
						continue
					}
					set := base
					for _, o := range pair {
						_, f := o.mk(c)
						set |= f
					}
					want := set.Refuse(0, 0)
					var refusal string
					err := func() (err error) {
						defer func() {
							if r := recover(); r != nil {
								refusal = fmt.Sprint(r)
							}
						}()
						return build(restore, want != nil, c, pair)
					}()
					switch {
					case want == nil && refusal != "":
						t.Errorf("%s: must construct and run, panicked: %s", cell, refusal)
					case want == nil && err != nil:
						t.Errorf("%s: must construct, returned: %v", cell, err)
					case want != nil && refusal != "qdhj: "+want.Message(plan.API):
						t.Errorf("%s: want the construction-time panic %q, got %q", cell, "qdhj: "+want.Message(plan.API), refusal)
					}
					met[want] = true
				}
			}
		}
	}
	for i := range plan.Matrix {
		if r := &plan.Matrix[i]; !met[r] {
			t.Errorf("no cell met the matrix row %s", r.Message(plan.API))
		}
	}

	// A shard count must match the worker addresses, whichever option set it.
	cond, workers := EquiChain(3, 0), []string{"127.0.0.1:1", "127.0.0.1:2"}
	four, err := ParsePlan("shard:4", cond, windows, 0)
	if err != nil {
		t.Fatal(err)
	}
	for by, o := range map[plan.Feature]JoinOption{plan.Sharded: WithShards(4), plan.Planned: WithPlan(four)} {
		want := "qdhj: " + by.Refuse(4, 2).Message(plan.API)
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != want {
					t.Errorf("%s × two workers: want the panic %q, got %v", by.Name(plan.API), want, r)
				}
			}()
			NewJoin(cond, windows, Options{}, o, WithRemoteWorkers(workers...)).Close()
		}()
	}

	// The fixed-K tree runs the feedback loop like every other shape: its
	// hook fires at every boundary and reports K held at StaticK.
	var events []AdaptEvent
	tree, _ := planned(parsed("tree"))(cond)
	j := NewJoin(cond, windows, Options{Policy: StaticSlack, StaticK: Second}, tree,
		WithAdaptHook(func(ev AdaptEvent) { events = append(events, ev) }))
	run(j, feed(0, 600))
	j.Close()
	if len(events) < 4 {
		t.Fatalf("WithPlan(tree, StaticSlack) × WithAdaptHook: %d adaptation events over 6 s at L = 1 s", len(events))
	}
	for _, ev := range events {
		if ev.PrevK != Second || ev.NewK != Second {
			t.Fatalf("WithPlan(tree, StaticSlack) × WithAdaptHook: event %+v, want PrevK = NewK = StaticK", ev)
		}
	}
}

// TestOptionsGammaChecked: every constructor that takes Options refuses a Γ
// outside (0, 1] at construction — NaN used to run as almost Γ = 1 and a
// negative Γ as No-K-slack — while 0 keeps selecting the default.
func TestOptionsGammaChecked(t *testing.T) {
	windows := []Time{Second, Second, Second}
	cond := EquiChain(3, 0)
	src := NewJoin(cond, windows, Options{})
	snap, err := src.Checkpoint()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]func(Options){
		"NewJoin": func(o Options) { NewJoin(cond, windows, o).Close() },
		"Restore": func(o Options) {
			j, err := Restore(snap, cond, windows, o)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
		},
		"MultiJoin.Add": func(o Options) {
			mj := NewMultiJoin(3)
			defer mj.Close()
			mj.Add(cond, windows, o)
		},
	}
	for host, build := range hosts {
		for _, gamma := range []float64{0, 0.5, 0.95, 1, math.NaN(), -0.5, math.Inf(-1), 1.5, math.Inf(1)} {
			var refusal string
			func() {
				defer func() {
					if r := recover(); r != nil {
						refusal = fmt.Sprint(r)
					}
				}()
				build(Options{Gamma: gamma})
			}()
			valid := gamma >= 0 && gamma <= 1
			switch {
			case valid && refusal != "":
				t.Errorf("%s(Gamma %v): must construct, panicked: %s", host, gamma, refusal)
			case !valid && !strings.HasPrefix(refusal, "qdhj: Options.Gamma"):
				t.Errorf("%s(Gamma %v): want a construction-time panic naming Options.Gamma, got %q", host, gamma, refusal)
			}
		}
	}
}

// TestRestoreAcrossOperatorAndWorkerRefused: the unsharded flat shape and a
// single remote worker share a deployment signature but not a state layout;
// restoring one into the other is ErrRestoreMismatch (it was a nil
// dereference).
func TestRestoreAcrossOperatorAndWorkerRefused(t *testing.T) {
	leakcheck.Check(t)
	windows := []Time{Second, Second, Second}
	worker := startNetWorkers(t, 1, 0, nil)
	cond := EquiChain(3, 0)
	build := map[string][]JoinOption{"in process": nil, "one worker": {WithRemoteWorkers(worker...)}}
	for from, source := range build {
		for to, target := range build {
			src := NewJoin(cond, windows, Options{}, source...)
			snap, err := src.Checkpoint()
			src.Close()
			if err != nil {
				t.Fatal(err)
			}
			j, err := Restore(snap, cond, windows, Options{}, target...)
			if err == nil {
				j.Close()
			}
			if (from == to) != (err == nil) || (err != nil && !errors.Is(err, ErrRestoreMismatch)) {
				t.Errorf("%s snapshot restored %s: %v", from, to, err)
			}
		}
	}
}
