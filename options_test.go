package qdhj

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// TestOptionMatrix pins joinOpts.validate: every JoinOption alone and every
// pair of them, handed to each of the three constructors that take options.
// A cell either constructs, or panics at construction with a message that
// names what does not fit — the option and its host, or both options. No
// cell may be accepted and ignored, and none may construct a join whose
// first Push panics for a reason known at construction.
func TestOptionMatrix(t *testing.T) {
	leakcheck.Check(t)
	windows := []Time{Second, Second, Second}
	workers := startNetWorkers(t, 2, 0, nil)
	type option struct {
		name string
		// refusedAs is the name a refusal uses: WithIngestBound and
		// WithInjector imply, and are refused as, WithSupervision; both plan
		// rows are WithPlan.
		refusedAs string
		multiOK   bool
		mk        func(*Condition) JoinOption
	}
	plain := func(o JoinOption) func(*Condition) JoinOption {
		return func(*Condition) JoinOption { return o }
	}
	planned := func(spec string) func(*Condition) JoinOption {
		return func(c *Condition) JoinOption {
			p, err := ParsePlan(spec, c, windows, 0)
			if err != nil {
				t.Fatal(err)
			}
			return WithPlan(p)
		}
	}
	options := []option{
		{name: "WithResults", multiOK: true, mk: plain(WithResults(func(Result) {}))},
		{name: "WithResultCounts", multiOK: true, mk: plain(WithResultCounts(func(Time, int64) {}))},
		{name: "WithAdaptHook", multiOK: true, mk: plain(WithAdaptHook(func(AdaptEvent) {}))},
		{name: "WithShards", mk: plain(WithShards(2))},
		{name: "WithRemoteWorkers", mk: plain(WithRemoteWorkers(workers...))},
		{name: "WithFrameBatch", mk: plain(WithFrameBatch(7))},
		{name: "WithPlan", mk: planned("shard:2")},
		{name: "WithPlan(tree)", refusedAs: "WithPlan", mk: planned("tree")},
		{name: "WithAutoPlan", mk: plain(WithAutoPlan())},
		{name: "WithSupervision", mk: plain(WithSupervision(Supervision{}))},
		{name: "WithIngestBound", refusedAs: "WithSupervision", mk: plain(WithIngestBound(100, IngestError))},
		{name: "WithInjector", refusedAs: "WithSupervision", mk: plain(WithInjector(NewInjector()))},
		{name: "WithOnlineReplan", mk: plain(WithOnlineReplan(ReplanOptions{}))},
	}
	for i := range options {
		if options[i].refusedAs == "" {
			options[i].refusedAs = options[i].name
		}
	}

	// want returns what a cell's refusal must name — every string of all and
	// one of any — or nothing when the cell must construct.
	want := func(host string, a, b option) (all, any []string) {
		replan := a.name == "WithOnlineReplan" || b.name == "WithOnlineReplan"
		other := a
		if a.name == "WithOnlineReplan" {
			other = b
		}
		cellOf := func(x, y string) bool {
			return a.name == x && b.name == y || a.name == y && b.name == x
		}
		withPlan := a.refusedAs == "WithPlan" || b.refusedAs == "WithPlan"
		shaped := a
		if a.refusedAs == "WithPlan" {
			shaped = b
		}
		switch {
		case host == hostMultiAdd:
			for _, o := range []option{a, b} {
				if !o.multiOK {
					all, any = []string{"MultiJoin"}, append(any, o.refusedAs)
				}
			}
		case host == hostRestore && replan:
			all = []string{"WithOnlineReplan", "Restore"}
		case replan && other.name == "WithRemoteWorkers":
			all = []string{"WithOnlineReplan", "WithRemoteWorkers"}
		case withPlan && (shaped.name == "WithShards" || shaped.name == "WithAutoPlan"):
			all = []string{"WithPlan", shaped.name}
		case cellOf("WithPlan(tree)", "WithRemoteWorkers"):
			all = []string{"WithPlan", "WithRemoteWorkers"}
		}
		return all, any
	}

	// build constructs one cell and closes it again. Restore's snapshot
	// comes from the same deployment without the re-planner.
	build := func(host string, cond *Condition, cell []option) error {
		var jo, source []JoinOption
		for _, o := range cell {
			jo = append(jo, o.mk(cond))
			if o.name != "WithOnlineReplan" {
				source = append(source, o.mk(cond))
			}
		}
		switch host {
		case hostNewJoin:
			NewJoin(cond, windows, Options{}, jo...).Close()
		case hostRestore:
			src := NewJoin(cond, windows, Options{}, source...)
			snap, err := src.Checkpoint()
			src.Close()
			if err != nil {
				return err
			}
			j, err := Restore(snap, cond, windows, Options{}, jo...)
			if err != nil {
				return err
			}
			j.Close()
		default:
			mj := NewMultiJoin(3)
			defer mj.Close()
			mj.Add(cond, windows, Options{}, jo...)
		}
		return nil
	}

	for _, host := range []string{hostNewJoin, hostRestore, hostMultiAdd} {
		for i, a := range options {
			for _, b := range options[i:] {
				cell := fmt.Sprintf("%s(%s, %s)", host, a.name, b.name)
				pair := []option{a, b}
				switch {
				case b.name == a.name:
					pair = pair[:1]
				case b.refusedAs == "WithPlan" && a.refusedAs == "WithPlan":
					// A second plan replaces the first, as any option given
					// twice does; there is no pair to judge.
					continue
				}
				var refusal string
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							refusal = fmt.Sprint(r)
						}
					}()
					return build(host, EquiChain(3, 0), pair)
				}()
				all, any := want(host, a, b)
				named := func(n string) bool { return strings.Contains(refusal, n) }
				switch {
				case all == nil && refusal != "":
					t.Errorf("%s: must construct, panicked: %s", cell, refusal)
				case all == nil && err != nil:
					t.Errorf("%s: must construct, returned: %v", cell, err)
				case all != nil && refusal == "":
					t.Errorf("%s: constructed; want a construction-time panic naming %v %v", cell, all, any)
				case all != nil && slices.ContainsFunc(all, func(n string) bool { return !named(n) }),
					any != nil && !slices.ContainsFunc(any, named):
					t.Errorf("%s: want a panic naming %v %v, got: %s", cell, all, any, refusal)
				}
			}
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
		hostNewJoin: func(o Options) { NewJoin(cond, windows, o).Close() },
		hostRestore: func(o Options) {
			j, err := Restore(snap, cond, windows, o)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
		},
		hostMultiAdd: func(o Options) {
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
