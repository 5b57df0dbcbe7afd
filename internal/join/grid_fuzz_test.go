package join

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/stream"
)

// FuzzBandGrid: a band grid's probe — the cells it visits plus its exact
// check — returns exactly the stored tuples that Condition.Matches pairs
// with the probe, by brute force over everything stored, for arbitrary key
// bits (NaN, ±Inf, ±0, subnormals, the largest magnitudes) on both sides,
// one or two dimensions, any valid widths, and entries removed again. And
// the fused probe — a fold of the probe's and the candidate's keys (foldOf,
// against the radius r) decided in the grid scan — returns exactly
// AppendBand's list swept by the compiled program; a fold fuses exactly
// when it is centered (each term squares a distinct key's difference from
// the probe's same key) and reads no key a one-dimensional grid does not
// store. The edge-* seeds put keys at |d| = ε and one ulp to either side
// with r = fl(ε²), also where ε² underflows or overflows.
func FuzzBandGrid(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(1, 2, 4.9, 5, 5.0000001, -3, 0.3, 0.1), 0.1, 0.0, 5.0, 5.0, true, 25.0, uint16(qx2Fold))
	f.Add(bits(0.4, 0, math.Copysign(0, -1), 0, math.NaN(), 1, math.Inf(1), 1), 0.1, 0.0, 0.3, 1.0, false, 0.5, uint16(0))
	f.Add(bits(1e9, 1e9, math.Nextafter(1e9, 2e9), 0, -math.MaxFloat64, 5e-324), 1e9, 0.0, 1e-9, 0.0, true, 1e-18, uint16(0x7fff))
	f.Add(bits(math.MaxFloat64, -math.MaxFloat64, 7, 7), 0.0, 7.0, math.MaxFloat64, 0.0, true, math.Inf(1), uint16(0x2a5))
	f.Fuzz(func(t *testing.T, keys []byte, ca, cb, ea, eb float64, twoD bool, r float64, shape uint16) {
		ea, eb = math.Abs(ea), math.Abs(eb)
		if math.IsNaN(ea) || math.IsInf(ea, 0) || math.IsNaN(eb) || math.IsInf(eb, 0) {
			t.Skip("band widths are finite")
		}
		cond := Cross(2).Band(0, 0, 1, 0, ea)
		g := index.NewGrid(stream.Less, ea)
		if twoD {
			cond.Band(0, 1, 1, 1, eb)
			g = index.NewGrid(stream.Less, ea, eb)
		}
		var stored []*stream.Tuple
		for i := 0; i+16 <= len(keys) && len(stored) < 512; i += 16 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(keys[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(keys[i+8:]))
			tu := &stream.Tuple{Src: 1, TS: stream.Time(keys[i] % 8), Seq: uint64(i), Attrs: []float64{a, b}}
			g.Add(a, b, tu)
			stored = append(stored, tu)
		}
		// Take every third entry out again.
		var live []*stream.Tuple
		for i, tu := range stored {
			if i%3 == 2 {
				g.Remove(tu.Attrs[0], tu.Attrs[1], tu)
			} else {
				live = append(live, tu)
			}
		}
		probe := &stream.Tuple{Src: 0, Attrs: []float64{ca, cb}}
		got := map[*stream.Tuple]int{}
		for _, tu := range g.AppendBand(nil, ca, cb) {
			got[tu]++
		}
		n := 0
		for _, tu := range live {
			if cond.Matches([]*stream.Tuple{probe, tu}) {
				n++
				if got[tu] != 1 {
					t.Fatalf("probe (%v, %v) widths (%v, %v): stored (%v, %v) matches, the grid returned it %d times",
						ca, cb, ea, eb, tu.Attrs[0], tu.Attrs[1], got[tu])
				}
			}
		}
		if len(got) != n {
			t.Fatalf("probe (%v, %v) widths (%v, %v): the grid returned %d tuples, %d match", ca, cb, ea, eb, len(got), n)
		}

		fold, centered, readsB := foldOf(shape, r)
		prog := compileStep(fold, 1)
		keyB := -1
		if twoD {
			keyB = 1
		}
		prog.grid = prog.gridFold([2]int{0, keyB}, [2]cref{{0, 0}, {0, 1}}, func(r cref) cref { return r })
		if (prog.grid != nil) != (centered && (twoD || !readsB)) {
			t.Fatalf("%s on a grid keyed (0, %d): fused = %v", fold, keyB, prog.grid != nil)
		}
		if prog.grid == nil {
			return
		}
		assign := []*stream.Tuple{probe, nil}
		want := prog.sweep(assign, 1, g.AppendBand(nil, ca, cb), nil)
		if fused := g.AppendBandFold(nil, ca, cb, prog.gridProbe(assign)); !slices.Equal(fused, want) {
			t.Fatalf("probe (%v, %v) widths (%v, %v), %s: the fused probe kept %d tuples, AppendBand and the sweep %d",
				ca, cb, ea, eb, fold, len(fused), len(want))
		}
	})
}

// qx2Fold is the foldOf shape of Q×2's circle:
// (s0.a − s1.a)² + (s0.b − s1.b)² < r.
const qx2Fold = 1 | 1<<9 | 1<<10

// foldOf builds a fold of the probe's (stream 0) and the candidate's
// (stream 1) keys, attributes 0 and 1, from the bits of shape, low first:
// two for the number of squared differences (1 + n%3), three for the
// comparison with r (Lt, Le, Gt, Ge, Eq, Ne), one for r on the left, and
// per difference three: the probe's key, the candidate's key, and the
// candidate first. centered reports whether each difference is of one key
// of both, no key twice; readsB whether it reads the candidate's b key.
func foldOf(shape uint16, r float64) (e *Expr, centered, readsB bool) {
	take := func(n uint) int {
		v := int(shape & (1<<n - 1))
		shape >>= n
		return v
	}
	terms := 1 + take(2)%3
	cmp := []func(x, y *Expr) *Expr{Lt, Le, Gt, Ge, Eq, Ne}[take(3)%6]
	left := take(1) == 1
	var sum *Expr
	var squared [2]bool
	centered = true
	for range terms {
		p, c := Attr(0, take(1)), Attr(1, take(1))
		readsB = readsB || c.attr == 1
		centered = centered && p.attr == c.attr && !squared[c.attr]
		squared[c.attr] = true
		d := Sub(p, c)
		if take(1) == 1 {
			d = Sub(c, p)
		}
		if sum == nil {
			sum = Mul(d, d)
		} else {
			sum = Add(sum, Mul(d, d))
		}
	}
	if left {
		return cmp(ConstOf(r), sum), centered, readsB
	}
	return cmp(sum, ConstOf(r)), centered, readsB
}
