package plan

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestDesignRendersMatrix: DESIGN.md §9 carries the option matrix as
// rendered from Matrix, between its two markers.
func TestDesignRendersMatrix(t *testing.T) {
	const begin, end = "<!-- option matrix: rendered from internal/plan.Matrix -->\n", "<!-- end of option matrix -->\n"
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the markers %q and %q", begin, end)
	}
	var want strings.Builder
	want.WriteString("| Feature | Refused beside | Reason |\n|---|---|---|\n")
	name := func(f Feature) string { return fmt.Sprintf("%s (%s)", f.Name(API), f.Name(CLI)) }
	for _, r := range Matrix {
		fmt.Fprintf(&want, "| %s | %s | %s |\n", name(r.A), name(r.B), r.Reason)
	}
	if got != want.String() {
		t.Errorf("DESIGN.md's option matrix differs from Matrix; between the markers put:\n%s", want.String())
	}
}
