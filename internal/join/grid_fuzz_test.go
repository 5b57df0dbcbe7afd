package join

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/stream"
)

// FuzzBandGrid: a band grid's probe — the cells it visits plus its exact
// check — returns exactly the stored tuples that Condition.Matches pairs
// with the probe, by brute force over everything stored, for arbitrary key
// bits (NaN, ±Inf, ±0, subnormals, the largest magnitudes) on both sides,
// one or two dimensions, any valid widths, and entries removed again.
func FuzzBandGrid(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(1, 2, 4.9, 5, 5.0000001, -3, 0.3, 0.1), 0.1, 0.0, 5.0, 5.0, true)
	f.Add(bits(0.4, 0, math.Copysign(0, -1), 0, math.NaN(), 1, math.Inf(1), 1), 0.1, 0.0, 0.3, 1.0, false)
	f.Add(bits(1e9, 1e9, math.Nextafter(1e9, 2e9), 0, -math.MaxFloat64, 5e-324), 1e9, 0.0, 1e-9, 0.0, true)
	f.Add(bits(math.MaxFloat64, -math.MaxFloat64, 7, 7), 0.0, 7.0, math.MaxFloat64, 0.0, true)
	f.Fuzz(func(t *testing.T, keys []byte, ca, cb, ea, eb float64, twoD bool) {
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
	})
}
