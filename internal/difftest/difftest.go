// Package difftest holds the workload generators and the result signature
// the differential tests share: every deployment shape is compared against
// the flat reference on the same feeds, keyed the same way, so the feeds
// and the key live once. Plain functions, no assertions; the sequences are
// pure functions of their arguments and the tests' expectations depend on
// them — change one and every differential that names it moves.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/stream"
)

// MixWorkload builds an m-stream feed with bounded disorder and two
// attributes per tuple (an integer-ish key and a continuous value).
func MixWorkload(m, rounds int, seed int64, domain int) stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	var out stream.Batch
	var seq uint64
	ts := stream.Time(3000)
	for i := 0; i < rounds; i++ {
		ts += 10
		for src := 0; src < m; src++ {
			t := ts
			if rng.Intn(4) == 0 {
				t -= stream.Time(rng.Intn(1500))
			}
			out = append(out, &stream.Tuple{TS: t, Seq: seq, Src: src,
				Attrs: []float64{float64(rng.Intn(domain)), float64(rng.Intn(200))}})
			seq++
		}
	}
	return out
}

// GenSeq builds a synchronized-stream-like sequence: mostly ordered with a
// disordered residue, attrs drawn from small domains so all three
// predicate kinds fire.
func GenSeq(rng *rand.Rand, m, n int, w stream.Time) []*stream.Tuple {
	var out []*stream.Tuple
	ts := stream.Time(1000)
	for i := 0; i < n; i++ {
		ts += stream.Time(rng.Intn(20))
		e := &stream.Tuple{
			TS:  ts,
			Seq: uint64(i),
			Src: rng.Intn(m),
			Attrs: []float64{
				float64(rng.Intn(8)),
				float64(rng.Intn(50)) / 2,
				rng.Float64() * 10,
			},
		}
		if rng.Intn(5) == 0 { // out-of-order residue, occasionally in scope
			e.TS -= stream.Time(rng.Intn(int(2 * w)))
			if e.TS < 0 {
				e.TS = 0
			}
		}
		e.Delay = stream.Time(rng.Intn(100))
		out = append(out, e)
	}
	return out
}

// Sig renders a result's identity, the key of a result multiset: one
// src:seq pair per constituent in stream order, unbound slots (a tree
// partial's nil parts) skipped.
func Sig(tuples []*stream.Tuple) string {
	var b strings.Builder
	for _, t := range tuples {
		if t != nil {
			fmt.Fprintf(&b, "%d:%d,", t.Src, t.Seq)
		}
	}
	return b.String()
}
