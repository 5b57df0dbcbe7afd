package gen

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stream"
)

func TestCSVRoundTrip(t *testing.T) {
	ds := Synthetic3(SynthConfig{Duration: 5 * stream.Second, Seed: 11})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.M != ds.M {
		t.Fatalf("metadata mismatch: %q/%d vs %q/%d", got.Name, got.M, ds.Name, ds.M)
	}
	if len(got.Windows) != len(ds.Windows) || got.Windows[0] != ds.Windows[0] {
		t.Fatalf("windows mismatch: %v vs %v", got.Windows, ds.Windows)
	}
	if len(got.Arrivals) != len(ds.Arrivals) {
		t.Fatalf("tuple count: %d vs %d", len(got.Arrivals), len(ds.Arrivals))
	}
	for i := range got.Arrivals {
		a, b := got.Arrivals[i], ds.Arrivals[i]
		if a.TS != b.TS || a.Src != b.Src || a.Seq != b.Seq {
			t.Fatalf("tuple %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Attrs) != len(b.Attrs) {
			t.Fatalf("tuple %d attrs length", i)
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Fatalf("tuple %d attr %d: %v vs %v", i, j, a.Attrs[j], b.Attrs[j])
			}
		}
	}
	if got.Cond != nil {
		t.Fatal("conditions must not round-trip (they contain code)")
	}
}

func TestCSVRoundTripSoccerFloats(t *testing.T) {
	ds := Soccer(SoccerConfig{Duration: 2 * stream.Second, Seed: 12})
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Float coordinates must survive exactly ('g', -1 formatting).
	for i := range got.Arrivals {
		if got.Arrivals[i].Attr(1) != ds.Arrivals[i].Attr(1) {
			t.Fatalf("x coordinate drifted at %d", i)
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not a dataset": "a,b,c\n1,2,3\n",
		"bad m":         "#qdhj,x,notanumber,5\n",
		"window count":  "#qdhj,x,2,5\n",
		"bad window":    "#qdhj,x,1,abc\n",
		"bad src":       "#qdhj,x,1,5\n9,0,1\n",
		"bad seq":       "#qdhj,x,1,5\n0,xx,1\n",
		"bad ts":        "#qdhj,x,1,5\n0,0,zz\n",
		"negative ts":   "#qdhj,x,1,5\n0,0,-1\n",
		"bad attr":      "#qdhj,x,1,5\n0,0,1,nan-ish???\n",
		"short record":  "#qdhj,x,1,5\n0,0\n",
		"empty":         "",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}
