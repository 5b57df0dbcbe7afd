package plan

// The gate's identity key against the string identity it replaced: two
// results share a key exactly when their reference strings are equal —
// each member's src:seq in position order, a nil member as ';'.
//
// Recorded mutation: packKey skipping the last member (the loop over
// r.Tuples[:len(r.Tuples)-1]) fails this test and
// TestMigrationDifferentialPairs — results differing only in their last
// member then share a record, and a migration suppresses in-flight ones.
// A key ignoring Src fails this test only: the differentials' feeds number
// Seq across all streams.

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stream"
)

// resultIdentity is the gate's former key: source:sequence of every member
// tuple, built as a string per result.
func resultIdentity(r stream.Result) string {
	var b strings.Builder
	for _, t := range r.Tuples {
		if t == nil {
			b.WriteByte(';')
			continue
		}
		b.WriteString(strconv.Itoa(t.Src))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(t.Seq, 10))
		b.WriteByte(',')
	}
	return b.String()
}

// identityKey returns the key the gate of an m-stream join files r under.
func identityKey(m int, r stream.Result) any {
	switch ids := newIdentities(m).(type) {
	case *idSet[[5]uint64]:
		k, _ := ids.key(r)
		return k
	case *idSet[[9]uint64]:
		k, _ := ids.key(r)
		return k
	case *idSet[string]:
		k, _ := ids.key(r)
		return k
	}
	panic("unknown identity width")
}

func TestIdentityKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Small domains make collisions of the reference strings common: equal
	// Seq on different Src, nil in different positions, equal members.
	member := func(m int) *stream.Tuple {
		if rng.Intn(4) == 0 {
			return nil
		}
		return &stream.Tuple{Src: rng.Intn(m), Seq: uint64(rng.Intn(3)), TS: stream.Time(rng.Intn(100))}
	}
	result := func(m int) stream.Result {
		r := stream.Result{TS: stream.Time(rng.Intn(100)), Tuples: make([]*stream.Tuple, m)}
		for i := range r.Tuples {
			r.Tuples[i] = member(m)
		}
		return r
	}
	for m := 1; m <= 10; m++ {
		equal := 0
		for trial := 0; trial < 20000; trial++ {
			a := result(m)
			b := result(m)
			if trial%3 == 0 { // b differs from a in one member at most
				b.Tuples = append([]*stream.Tuple(nil), a.Tuples...)
				b.Tuples[rng.Intn(m)] = member(m)
			}
			same := resultIdentity(a) == resultIdentity(b)
			if same {
				equal++
			}
			if got := identityKey(m, a) == identityKey(m, b); got != same {
				t.Fatalf("m=%d: key equality %v, reference %v for %q vs %q", m, got, same, resultIdentity(a), resultIdentity(b))
			}
		}
		if equal == 0 {
			t.Fatalf("m=%d: no equal pair drawn; the test compares nothing", m)
		}
	}
	// A huge Seq and the highest stream index survive the packing.
	a := stream.Result{Tuples: []*stream.Tuple{{Src: 7, Seq: 1<<64 - 1}, nil, {Src: 0, Seq: 1 << 63}}}
	b := stream.Result{Tuples: []*stream.Tuple{{Src: 7, Seq: 1<<64 - 2}, nil, {Src: 0, Seq: 1 << 63}}}
	if identityKey(8, a) == identityKey(8, b) {
		t.Fatal("keys of results differing in one Seq bit collide")
	}
}

// TestIdentityKeyZeroAllocs: matching a result against its record builds
// no key on the heap.
func TestIdentityKeyZeroAllocs(t *testing.T) {
	ids := newIdentities(4)
	tuples := make([]*stream.Tuple, 4)
	for i := range tuples {
		tuples[i] = &stream.Tuple{Src: i, Seq: uint64(i)}
	}
	r := stream.Result{Tuples: tuples}
	ids.suppress(r, false)
	if n := testing.AllocsPerRun(1000, func() { ids.suppress(r, false) }); n != 0 {
		t.Fatalf("suppress allocates %v per result", n)
	}
}
