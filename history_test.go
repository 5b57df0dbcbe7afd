package qdhj

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/leakcheck"
)

// TestBaselinesKeepNoHistory: under NoSlack, StaticSlack and MaxSlack no
// policy reads the delay history, so the Statistics Manager keeps none —
// Snapshot's HistoryLen, MaxDelayRecent and KSync read 0 on the flat, tree
// and shard:2 shapes while GlobalT and MaxDelayAllTime still move — and
// every shape still matches difftest.Flat, on a MultiJoin too: NoSlack at
// K = 0 and StaticSlack at a K covering the feed's disorder result for
// result; MaxSlack, whose K grows as record delays arrive, and the tree
// under NoSlack lose results but never repeat one. The Model policy keeps
// the history on the same shapes. Keeping the history under NoSlack fails
// the "nok" rows.
func TestBaselinesKeepNoHistory(t *testing.T) {
	leakcheck.Check(t)
	in := difftest.MixWorkload(3, 600, 5, 14)
	maxD, _ := in.MaxDelay()
	w := difftest.Windows(3, 700)
	cond := func() *Condition { return EquiChain(3, 0) }
	shapes := map[string]func(*Condition) []JoinOption{
		"flat":    func(*Condition) []JoinOption { return nil },
		"shard:2": func(*Condition) []JoinOption { return []JoinOption{WithShards(2)} },
		"tree": func(c *Condition) []JoinOption {
			p, err := ParsePlan("tree", c, w, 0)
			if err != nil {
				t.Fatal(err)
			}
			return []JoinOption{WithPlan(p)}
		},
	}
	full := difftest.Flat(cond(), w, maxD, in.Clone())
	for _, pc := range []struct {
		name  string
		opt   Options
		exact bool // Compare with the reference at K = opt.StaticK, else Within full
	}{
		{"nok", Options{Policy: NoSlack}, true},
		{"static", Options{Policy: StaticSlack, StaticK: maxD}, true},
		{"maxk", Options{Policy: MaxSlack}, false},
		{"model", Options{Gamma: 0.9, Period: 5 * Second, Interval: Second}, false},
	} {
		want := difftest.Flat(cond(), w, pc.opt.StaticK, in.Clone())
		check := func(t *testing.T, name string, got *difftest.Run, exact bool) {
			if exact {
				difftest.Compare(t, name, want, got)
			} else {
				difftest.Within(t, name, full, got)
			}
		}
		for sname, opts := range shapes {
			t.Run(pc.name+"/"+sname, func(t *testing.T) {
				got := difftest.NewRun()
				c := cond()
				j := NewJoin(c, w, pc.opt, append(opts(c), WithResults(got.Emit))...)
				pushAll(j, in.Clone())
				got.Count = j.Results()
				snap := j.Snapshot()
				if snap.GlobalT == 0 || snap.MaxDelayAllTime == 0 {
					t.Fatalf("GlobalT %v, MaxDelayAllTime %v: the clocks did not move", snap.GlobalT, snap.MaxDelayAllTime)
				}
				for i, s := range snap.Streams {
					free := s.HistoryLen == 0 && s.MaxDelayRecent == 0 && s.KSync == 0
					if free != (pc.name != "model") || s.Rate == 0 {
						t.Fatalf("stream %d: HistoryLen %d, MaxDelayRecent %v, KSync %v, Rate %v", i, s.HistoryLen, s.MaxDelayRecent, s.KSync, s.Rate)
					}
				}
				// A tree stage's own Synchronizer loses other results than the
				// flat one at K = 0.
				check(t, pc.name+"/"+sname, got, pc.exact && (sname != "tree" || pc.opt.StaticK > 0))
			})
		}
		if pc.name == "model" {
			continue
		}
		t.Run(pc.name+"/MultiJoin", func(t *testing.T) {
			mj := NewMultiJoin(3)
			got := []*difftest.Run{difftest.NewRun(), difftest.NewRun()}
			qs := []*MultiQuery{
				mj.Add(cond(), w, pc.opt, WithResults(got[0].Emit)),
				mj.Add(cond(), w, pc.opt, WithResults(got[1].Emit)),
			}
			pushAll(mj, in.Clone())
			for i, q := range qs {
				got[i].Count = q.Results()
				check(t, fmt.Sprintf("%s/MultiJoin/q%d", pc.name, i), got[i], pc.exact)
			}
		})
	}
}

// TestShardedBaselineStartsNoFeeder: a sharded model join observes its
// statistics on a feeder goroutine; a sharded NoSlack join, whose manager
// keeps no history, starts none.
func TestShardedBaselineStartsNoFeeder(t *testing.T) {
	leakcheck.Check(t)
	feeders := func() int {
		buf := make([]byte, 1<<20)
		n := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "feedback.newFeeder") {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		opt  Options
		want int
	}{{Options{}, 1}, {Options{Policy: NoSlack}, 0}} {
		before := feeders()
		j := NewJoin(EquiChain(2, 0), []Time{Second, Second}, tc.opt, WithShards(2))
		for _, e := range feed(50, 1) {
			j.Push(e)
		}
		if got := feeders() - before; got != tc.want {
			t.Errorf("policy %v: %d feeder goroutines mid-run, want %d", tc.opt.Policy, got, tc.want)
		}
		j.Close()
	}
}
