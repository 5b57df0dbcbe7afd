package difftest_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/join"
	"repro/internal/stream"
)

func tup(src int, seq uint64) *stream.Tuple { return &stream.Tuple{Src: src, Seq: seq} }

// sigString is the string key results had before Key: one src:seq pair per
// bound member, each followed by a comma.
func sigString(tuples []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range tuples {
		if t != nil {
			fmt.Fprintf(&b, "%d:%d,", t.Src, t.Seq)
		}
	}
	return b.String()
}

// TestKey: results that differ in one member's Src or Seq, or in which
// slot is unbound, have different keys; an unbound slot is not member 0:0;
// a key renders as the string key it replaced; a result wider than
// KeyWidth, or a member whose Src or Seq does not fit its word, panics
// naming the limit.
func TestKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b []*stream.Tuple
	}{
		{"src", []*stream.Tuple{tup(0, 5), tup(1, 7)}, []*stream.Tuple{tup(0, 5), tup(2, 7)}},
		{"seq", []*stream.Tuple{tup(0, 5), tup(1, 7)}, []*stream.Tuple{tup(0, 5), tup(1, 8)}},
		{"unbound slot", []*stream.Tuple{tup(0, 5), tup(1, 7), nil}, []*stream.Tuple{tup(0, 5), nil, tup(2, 7)}},
		{"unbound is not 0:0", []*stream.Tuple{tup(0, 0), nil}, []*stream.Tuple{nil, nil}},
		{"member count", []*stream.Tuple{tup(0, 5)}, []*stream.Tuple{tup(0, 5), tup(0, 0)}},
	} {
		if difftest.KeyOf(tc.a) == difftest.KeyOf(tc.b) {
			t.Errorf("%s: %s and %s share a key", tc.name, sigString(tc.a), sigString(tc.b))
		}
	}

	for _, r := range [][]*stream.Tuple{
		nil,
		{nil, nil},
		{tup(0, 0)},
		{tup(0, 5), nil, tup(2, 7)},
		{nil, tup(1, 12), tup(2, 0), nil},
		{tup(0, 1<<60-1), tup(1, 1<<40), tup(2, 3), tup(14, 9)},
	} {
		if got, want := difftest.KeyOf(r).String(), sigString(r); got != want {
			t.Errorf("key renders %q, want %q", got, want)
		}
	}

	wide := make([]*stream.Tuple, difftest.KeyWidth+1)
	for i := range wide {
		wide[i] = tup(i, uint64(i))
	}
	for _, tc := range []struct {
		r    []*stream.Tuple
		want string
	}{
		{wide, fmt.Sprintf("KeyWidth = %d", difftest.KeyWidth)},
		{[]*stream.Tuple{tup(0, 1), tup(15, 2)}, "member 15:2 does not fit a Key word (Src < 15, Seq < 2^60)"},
		{[]*stream.Tuple{tup(2, 1<<60)}, "member 2:1152921504606846976 does not fit"},
		{[]*stream.Tuple{tup(-1, 0)}, "member -1:0 does not fit"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("KeyOf(%s): recovered %v, want a panic naming %q", sigString(tc.r), r, tc.want)
				}
			}()
			difftest.KeyOf(tc.r)
		}()
	}
}

// recorder is a testing.TB that records what Compare and Within report; a
// Fatalf ends the calling goroutine, as testing's does.
type recorder struct {
	testing.TB
	errs  []string
	fatal bool
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	r.fatal = true
	runtime.Goexit()
}

// record runs check against a recorder on its own goroutine, so a Fatalf
// ends only the check.
func record(check func(testing.TB)) *recorder {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(r)
	}()
	<-done
	return r
}

// streams are what a run captures of every stream Compare checks.
type streams struct {
	res  [][]*stream.Tuple // results, in delivery order
	ts   []stream.Time     // their TS when set, else 0: every member's is 0
	rec  []difftest.Record
	ooo  []stream.Time
	ks   []difftest.KStep
	avgK float64
}

// captured builds a run from the streams of results a, b, c (a 3-way
// result, a tree partial, a 2-way result) in that order, two records, one
// out-of-order delay and two adaptation steps, after mutate edits them.
func captured(mutate func(*streams)) *difftest.Run {
	s := streams{
		res: [][]*stream.Tuple{
			{tup(0, 1), tup(1, 2), tup(2, 3)},
			{tup(0, 4), nil, tup(2, 6)},
			{tup(0, 4), tup(1, 5)},
		},
		rec:  []difftest.Record{{TS: 10, Delay: 1, NCross: 4, NOn: 1}, {TS: 12, Delay: 0, NCross: 6, NOn: 2}},
		ooo:  []stream.Time{7},
		ks:   []difftest.KStep{{Now: 100, OutT: 90, PrevK: 0, NewK: 20, GammaPrime: 0.9}, {Now: 200, OutT: 180, PrevK: 20, NewK: 30, GammaPrime: 0.95}},
		avgK: 25,
	}
	if mutate != nil {
		mutate(&s)
	}
	r := difftest.NewRun()
	r.Order = []difftest.Key{}
	for i, ts := range s.res {
		res := stream.Result{Tuples: ts}
		if s.ts != nil {
			res.TS = s.ts[i]
		}
		r.Emit(res)
	}
	r.Records, r.OutOfOrder, r.Ks, r.AvgK = s.rec, s.ooo, s.ks, s.avgK
	return r
}

// TestCompareReports: Compare reports each kind of difference it checks,
// first from the check that owns it, and nothing on an identical run; Within
// stops at a duplicate or spurious result but lets a lost one pass.
func TestCompareReports(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*streams)
		want   string // the start of the first reported error, after the run's name
	}{
		{"identical", nil, ""},
		{"missing result", func(s *streams) {
			s.res = s.res[:2]
		}, "result 0:4,1:5, ×0, want ×1"},
		{"spurious result", func(s *streams) {
			s.res = append(s.res, []*stream.Tuple{tup(1, 9), tup(2, 9)})
		}, "unexpected result 1:9,2:9, ×1"},
		{"duplicate", func(s *streams) {
			s.res = append(s.res, s.res[1])
		}, "result 0:4,2:6, ×2, want ×1"},
		{"order swap", func(s *streams) {
			s.res[0], s.res[1] = s.res[1], s.res[0]
		}, "delivered result 0 = 0:4,2:6,"},
		{"record", func(s *streams) {
			s.rec[1].NOn++
		}, "record 1 = "},
		{"out-of-order delay", func(s *streams) {
			s.ooo[0]++
		}, "out-of-order delay 0 = "},
		{"K step", func(s *streams) {
			s.ks[1].NewK++
		}, "adaptation 1 = "},
		{"Γ′", func(s *streams) {
			s.ks[1].GammaPrime = math.Nextafter(s.ks[1].GammaPrime, 1)
		}, "adaptation 1 = "},
		{"AvgK", func(s *streams) {
			s.avgK = math.Nextafter(s.avgK, 0)
		}, "AvgK 24.999999999999996, want 25"},
		{"result TS", func(s *streams) {
			s.ts = []stream.Time{0, 0, 5}
		}, "result 0:4,1:5, stamped TS 5, its members' maximum is 0"},
		{"borrowed result kept", func(s *streams) {
			s.res[1][0] = join.Poisoned
		}, "delivered result 2 reads join.Poisoned"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := captured(nil), captured(tc.mutate)
			got.Count = want.Count // the count check is its own case
			r := record(func(tb testing.TB) { difftest.Compare(tb, "run", want, got) })
			switch {
			case tc.want == "" && len(r.errs) > 0:
				t.Fatalf("identical runs reported %q", r.errs)
			case tc.want != "" && (len(r.errs) == 0 || !strings.HasPrefix(r.errs[0], "run: "+tc.want)):
				t.Fatalf("reported %q, want a first error starting %q", r.errs, "run: "+tc.want)
			}
		})
	}

	t.Run("count", func(t *testing.T) {
		want, got := captured(nil), captured(nil)
		got.Count++
		r := record(func(tb testing.TB) { difftest.Compare(tb, "run", want, got) })
		if len(r.errs) != 1 || r.errs[0] != "run: 4 results, want 3" {
			t.Fatalf("reported %q, want the count mismatch alone", r.errs)
		}
	})
	t.Run("degenerate reference", func(t *testing.T) {
		r := record(func(tb testing.TB) { difftest.Compare(tb, "run", difftest.NewRun(), captured(nil)) })
		if !r.fatal {
			t.Fatalf("a reference without results was not fatal: %q", r.errs)
		}
	})

	for _, tc := range []struct {
		name   string
		mutate func(*streams)
		fatal  bool
	}{
		{"within/identical", nil, false},
		{"within/missing result", func(s *streams) {
			s.res = s.res[1:]
		}, false},
		{"within/spurious result", func(s *streams) {
			s.res = append(s.res, []*stream.Tuple{tup(1, 9), tup(2, 9)})
		}, true},
		{"within/duplicate", func(s *streams) {
			s.res = append(s.res, s.res[0])
		}, true},
		{"within/nothing delivered", func(s *streams) {
			s.res = nil
		}, true},
		{"within/result TS", func(s *streams) {
			s.ts = []stream.Time{7, 0, 0}
		}, true},
		{"within/borrowed result kept", func(s *streams) {
			s.res[2][1] = join.Poisoned
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := captured(nil), captured(tc.mutate)
			r := record(func(tb testing.TB) { difftest.Within(tb, "run", want, got) })
			if r.fatal != tc.fatal {
				t.Fatalf("fatal = %v (%q), want %v", r.fatal, r.errs, tc.fatal)
			}
		})
	}
}

// TestHashEmitAllocs: hashing a delivered result allocates nothing.
func TestHashEmitAllocs(t *testing.T) {
	h := difftest.NewHash()
	res := stream.Result{Tuples: []*stream.Tuple{tup(0, 1), tup(1, 2), tup(2, 3)}}
	if n := testing.AllocsPerRun(100, func() { h.Emit(res) }); n != 0 {
		t.Fatalf("Hash.Emit: %v allocations per result, want 0", n)
	}
}
