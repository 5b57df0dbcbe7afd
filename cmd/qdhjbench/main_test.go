package main

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestExpSmoke runs every -exp name, and all, end to end at a tiny horizon
// on one dataset: exit 0, a titled table on stdout, and under `all` every
// experiment's table in dispatch order.
func TestExpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment end to end")
	}
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-exp", name, "-minutes", "0.1", "-datasets", "x3"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			want := 1
			if name == "all" {
				want = len(experiments)
			}
			out := stdout.String()
			if got := strings.Count("\n"+out, "\n== "); got != want {
				t.Errorf("%d table titles, want %d:\n%s", got, want, out)
			}
			if !strings.Contains(out, "Dsyn-x3") {
				t.Errorf("no Dsyn-x3 row in the output:\n%s", out)
			}
			if !strings.Contains(stderr.String(), "preparing x3 (0.1 min, seed 42)") {
				t.Errorf("stderr lacks the preparation line:\n%s", stderr.String())
			}
		})
	}
}

// TestFlagValidation pins that bad -exp/-datasets/-minutes values are
// rejected with errBadFlag, and that run turns that into exit 2 with the
// error and a usage line before any dataset is prepared.
func TestFlagValidation(t *testing.T) {
	bad := []struct {
		name, exp, datasets string
		minutes             float64
		want                string
	}{
		{"unknown dataset", "all", "foo", 5, `unknown dataset key "foo"`},
		{"unknown dataset after a good one", "fig6", "x3,real", 5, `unknown dataset key "real"`},
		{"empty datasets", "all", "", 5, "names no dataset"},
		{"only separators", "all", " , ,", 5, "names no dataset"},
		{"unknown experiment", "bogus", "x3", 5, `unknown experiment "bogus"`},
		{"zero minutes", "all", "x3", 0, "-minutes 0"},
		{"negative minutes", "all", "x3", -1, "-minutes -1"},
		{"NaN minutes", "all", "x3", math.NaN(), "-minutes NaN"},
	}
	for _, c := range bad {
		_, _, err := parseFlags(c.exp, c.datasets, c.minutes)
		if !errors.Is(err, errBadFlag) {
			t.Errorf("%s: err %v, want errBadFlag", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}

	exps, keys, err := parseFlags("fig9", " x4 ,x2", 0.5)
	if err != nil || len(exps) != 1 || exps[0].name != "fig9" || strings.Join(keys, ",") != "x4,x2" {
		t.Errorf("parseFlags(fig9, \" x4 ,x2\") = %v, %v, %v", exps, keys, err)
	}
	if exps, _, err := parseFlags("all", "x3", 1); err != nil || len(exps) != len(experiments) {
		t.Errorf("parseFlags(all) = %d experiments, %v", len(exps), err)
	}

	for _, args := range [][]string{
		{"-datasets", "foo"},
		{"-exp", "bogus", "-minutes", "25"},
		{"-minutes", "0"},
		{"-datasets", ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "qdhjbench: invalid flag: ") || !strings.Contains(msg, "\nusage: qdhjbench ") {
			t.Errorf("%v: stderr is not an error line plus a usage line:\n%s", args, msg)
		}
		if strings.Contains(msg, "preparing") || strings.Contains(msg, "goroutine") || stdout.Len() != 0 {
			t.Errorf("%v: work was done or a stack printed before the rejection:\nstdout: %s\nstderr: %s", args, stdout.String(), msg)
		}
	}
}

// TestPickByKey pins pick's contract: datasets are selected by the key they
// were prepared from, and the fallback is everything prepared.
func TestPickByKey(t *testing.T) {
	dss := []prepared{{key: "x2"}, {key: "x3"}, {key: "x4"}}
	if got := pick(dss, []string{"x2", "x3"}); len(got) != 2 {
		t.Errorf("pick(x2,x3) kept %d of x2,x3,x4, want 2", len(got))
	}
	if got := pick(dss[2:], []string{"x2", "x3"}); len(got) != 1 {
		t.Errorf("pick(x2,x3) over x4 alone kept %d, want the fallback 1", len(got))
	}
	if got := pick(dss, nil); len(got) != 3 {
		t.Errorf("pick(nil) kept %d, want all 3", len(got))
	}
}
