package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseQuerySpecs: a -queries file parses into one spec per query line,
// defaults filled in, comments and blank lines skipped; a bad line is an
// error naming its file and line, never a spec the engine panics on.
func TestParseQuerySpecs(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		want       []querySpec // nil: an error is wanted
		err        string      // the error's text after "<file>"
	}{
		{name: "good lines, comments and blanks",
			file: "# shared lane\nx3\n\n  x3 policy=nok\nx3 policy=static k=1.5\n# Γ override\nequichain gamma=0.9 policy=maxk\nx4 gamma=1 k=0\n",
			want: []querySpec{
				{line: 2, query: "x3", policy: "model", gamma: 0.95, staticK: 2},
				{line: 4, query: "x3", policy: "nok", gamma: 0.95, staticK: 2},
				{line: 5, query: "x3", policy: "static", gamma: 0.95, staticK: 1.5},
				{line: 7, query: "equichain", policy: "maxk", gamma: 0.9, staticK: 2},
				{line: 8, query: "x4", policy: "model", gamma: 1, staticK: 0},
			}},
		{name: "not key=value", file: "x3 nok\n", err: `:1: expected key=value, got "nok"`},
		{name: "unknown key", file: "x3\nx3 window=5\n", err: `:2: unknown key "window" (want policy|gamma|k)`},
		{name: "unknown policy", file: "x3 policy=fifo\n", err: `:1: unknown policy "fifo"`},
		{name: "unparsable gamma", file: "x3 gamma=high\n", err: `:1: bad gamma "high"`},
		{name: "zero gamma", file: "x3 gamma=0\n", err: `:1: bad gamma "0"`},
		{name: "gamma above one", file: "x3 gamma=1.5\n", err: `:1: bad gamma "1.5"`},
		{name: "NaN gamma", file: "x3 gamma=NaN\n", err: `:1: bad gamma "NaN"`},
		{name: "negative k", file: "x3 policy=static k=-1\n", err: `:1: bad k "-1"`},
		{name: "NaN k", file: "x3 policy=static k=NaN\n", err: `:1: bad k "NaN"`},
		{name: "empty file", file: "", err: `: no queries`},
		{name: "only comments", file: "# nothing\n\n", err: `: no queries`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "q.txt")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := parseQuerySpecs(path, "model", 0.95, 2)
			if tc.want == nil {
				if err == nil || err.Error() != path+tc.err {
					t.Fatalf("error %v, want %q", err, path+tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("specs\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}
	if _, err := parseQuerySpecs(filepath.Join(t.TempDir(), "missing"), "model", 0.95, 0); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("a missing file: error %v", err)
	}
}
