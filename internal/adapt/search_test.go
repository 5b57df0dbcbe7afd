package adapt

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// TestBinarySearchMatchesLinear: under the monotone EqSel model, binary and
// linear search must agree exactly for random delay profiles.
func TestBinarySearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		frac := 0.1 + 0.6*rng.Float64()
		d := stream.Time(50 + rng.Intn(400))
		st := buildStats(2, 10, frac, d, 1500)
		gamma := []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999}[rng.Intn(6)]

		lin, _ := modelWith(st, []stream.Time{5000, 5000},
			Config{Gamma: gamma, NoCalibration: true, Search: LinearSearch})
		bin, _ := modelWith(st, []stream.Time{5000, 5000},
			Config{Gamma: gamma, NoCalibration: true, Search: BinarySearch})
		kl := lin.Decide(0, nil)
		kb := bin.Decide(0, nil)
		if kl != kb {
			t.Fatalf("trial %d (Γ=%v frac=%.2f d=%d): linear %d vs binary %d",
				trial, gamma, frac, d, kl, kb)
		}
	}
}

// TestBinarySearchFewerIterations: the point of the extension — far fewer
// model evaluations per adaptation step than Alg. 3's plain scan when k* is
// large. The bounded scan, which skips blocks of candidates, sits between.
func TestBinarySearchFewerIterations(t *testing.T) {
	st := buildStats(2, 10, 0.5, 2000, 3000)
	lin, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0.999, NoCalibration: true, G: 10, Search: LinearSearch})
	bin, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0.999, NoCalibration: true, G: 10, Search: BinarySearch})
	lin.Decide(0, nil)
	bin.Decide(0, nil)
	_, plain := lin.Alg3(nil, 0.999)
	_, li, _ := lin.AdaptStats()
	_, bi, _ := bin.AdaptStats()
	if plain < 10*bi {
		t.Fatalf("binary search should cut iterations ≥10×: the plain scan %d vs binary %d", plain, bi)
	}
	if li >= plain {
		t.Fatalf("the bounded scan evaluated %d times, the plain scan %d", li, plain)
	}
	t.Logf("evaluations: plain scan %d, bounded scan %d, binary %d", plain, li, bi)
}

// TestBinarySearchBoundaries: degenerate requirements hit the boundary fast.
func TestBinarySearchBoundaries(t *testing.T) {
	st := buildStats(2, 10, 0.4, 300, 1000)
	zero, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 0, NoCalibration: true, Search: BinarySearch})
	if k := zero.Decide(0, nil); k != 0 {
		t.Fatalf("Γ=0 binary search returned %d", k)
	}
	one, _ := modelWith(st, []stream.Time{5000, 5000},
		Config{Gamma: 1, NoCalibration: true, Search: BinarySearch})
	if k := one.Decide(0, nil); k > 300 {
		t.Fatalf("Γ=1 binary search exceeded MaxDH: %d", k)
	}
}

// TestSearchString covers the Stringer.
func TestSearchString(t *testing.T) {
	if LinearSearch.String() != "linear" || BinarySearch.String() != "binary" {
		t.Fatal("Search.String")
	}
}
