package net

// Wire-codec tests: round-trip properties on the binary tuple and ack
// layouts (including NaN payloads and ±Inf, compared as IEEE-754 bit
// patterns), a fuzz target over raw frame bytes (the decoder must reject
// truncated frames, oversize length prefixes, and arbitrary garbage
// without panicking or over-reading), and allocation gates proving the
// warm data path — encoders appending to a sized buffer, the frame reader
// on a warm connection — runs allocation-free.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/feedback"
	"repro/internal/shard"
	"repro/internal/stream"
)

// msgEqualBits compares two tuples field-by-field with attribute equality
// at the bit level, so NaN payloads count as equal to themselves.
func msgEqualBits(a, b *stream.Tuple) bool {
	if a.TS != b.TS || a.Seq != b.Seq || a.Src != b.Src || a.Delay != b.Delay || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for i := range a.Attrs {
		if math.Float64bits(a.Attrs[i]) != math.Float64bits(b.Attrs[i]) {
			return false
		}
	}
	return true
}

func TestMsgRoundTripSpecialFloats(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_dead_beef_0001)
	tuples := []*stream.Tuple{
		{TS: 1000, Seq: 7, Src: 2, Delay: 33, Attrs: []float64{1.5, -0.0, math.Inf(1)}},
		{TS: -5, Seq: 1 << 60, Src: 0, Delay: 0, Attrs: []float64{math.NaN(), nanPayload, math.Inf(-1)}},
		{TS: 0, Seq: 0, Src: 9, Delay: -1, Attrs: nil},
	}
	var buf []byte
	for i, e := range tuples {
		kind := byte(wmProbe)
		if i%2 == 1 {
			kind = wmInsert
		}
		buf = appendMsg(buf, kind, e, stream.Time(100+i), 40+i)
	}
	var slab tupleSlab
	off := 0
	for i, want := range tuples {
		kind, got, wm, idx, next, err := decodeMsg(buf, off, &slab)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		wantKind := byte(wmProbe)
		if i%2 == 1 {
			wantKind = wmInsert
		}
		if kind != wantKind || wm != stream.Time(100+i) || idx != 40+i {
			t.Fatalf("msg %d: kind=%d wm=%d idx=%d", i, kind, wm, idx)
		}
		if !msgEqualBits(want, got) {
			t.Fatalf("msg %d: round-trip mismatch: %+v vs %+v", i, want, got)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// ackOut builds a worker accumulator from sparse (idx, n) counts and
// results tagged with their arrival indexes.
func ackOut(counts [][2]int64, resIdx []int, res []stream.Result) *shard.Out[stream.Result] {
	var o shard.Out[stream.Result]
	for _, c := range counts {
		o.Add(int(c[0]), c[1])
	}
	for i, r := range res {
		o.Put(resIdx[i], r)
	}
	return &o
}

// ackFrame encodes an ok ack with raw (idx, n) pairs, unchecked, and no
// results: the hostile-worker form the decoder must refuse.
func ackFrame(seq uint64, pairs ...[2]int64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, seq)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = binary.LittleEndian.AppendUint32(b, uint32(p[0]))
		b = binary.LittleEndian.AppendUint64(b, uint64(p[1]))
	}
	return binary.LittleEndian.AppendUint32(b, 0)
}

// fuzzArrivals is the interval size the fuzz target decodes acks against.
const fuzzArrivals = 64

func TestAckRoundTrip(t *testing.T) {
	counts := [][2]int64{{0, 3}, {5, -1}, {1 << 20, 1 << 40}}
	resIdx := []int{2, 9}
	res := []stream.Result{
		{TS: 77, Tuples: []*stream.Tuple{
			{TS: 70, Seq: 1, Src: 0, Delay: 4, Attrs: []float64{math.NaN(), 2}},
			{TS: 75, Seq: 2, Src: 1, Attrs: []float64{math.Inf(1)}},
		}},
		{TS: -3, Tuples: nil},
	}
	hdr := feedback.BarrierAck{Seq: 42}
	buf := appendAck(nil, hdr, ackOut(counts, resIdx, res))

	var out shard.Out[stream.Result]
	got, err := decodeAck(buf, 1<<20+1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Fatalf("hdr = %+v, want %+v", got, hdr)
	}
	on := out.Counts()
	if len(on) != 1<<20+1 {
		t.Fatalf("counts len = %d", len(on))
	}
	for i, n := range on {
		want := int64(0)
		for _, c := range counts {
			if int(c[0]) == i {
				want = c[1]
			}
		}
		if n != want {
			t.Fatalf("counts[%d] = %d, want %d", i, n, want)
		}
	}
	gotRes, gotIdx := out.Results()
	if len(gotRes) != len(res) {
		t.Fatalf("res len = %d", len(gotRes))
	}
	for i := range res {
		if gotIdx[i] != resIdx[i] || gotRes[i].TS != res[i].TS ||
			len(gotRes[i].Tuples) != len(res[i].Tuples) {
			t.Fatalf("res[%d] header mismatch", i)
		}
		for j := range res[i].Tuples {
			if !msgEqualBits(res[i].Tuples[j], gotRes[i].Tuples[j]) {
				t.Fatalf("res[%d].Tuples[%d] mismatch", i, j)
			}
		}
	}

	fail := feedback.BarrierAck{Seq: 43, Failed: true, Err: "injected: shard 1"}
	if got, err = decodeAck(appendAck(nil, fail, ackOut(counts, nil, nil)), 1, &out); err != nil {
		t.Fatal(err)
	}
	if got != fail || len(out.Counts()) != 0 {
		t.Fatalf("failed hdr = %+v with %d counts, want %+v and none", got, len(out.Counts()), fail)
	}

	// Refusals: an ack must not name an arrival outside the interval,
	// repeat or reorder an index, or carry a zero count — each would make
	// the merge drop the worker's later counts or size an array by it.
	for name, b := range map[string][]byte{
		"index == arrivals": ackFrame(1, [2]int64{1, 2}, [2]int64{10, 1}),
		"index beyond":      ackFrame(1, [2]int64{1 << 20, 1}),
		"descending":        ackFrame(1, [2]int64{5, 1}, [2]int64{3, 1}),
		"duplicated":        ackFrame(1, [2]int64{3, 1}, [2]int64{3, 1}),
		"zero count":        ackFrame(1, [2]int64{3, 0}),
		"result index":      appendAck(nil, feedback.BarrierAck{Seq: 1}, ackOut(nil, []int{10}, res[1:])),
		"result descending": appendAck(nil, feedback.BarrierAck{Seq: 1}, ackOut(nil, []int{4, 3}, res)),
	} {
		if _, err := decodeAck(b, 10, &out); !errors.Is(err, errBadAck) {
			t.Errorf("%s: decodeAck = %v, want errBadAck", name, err)
		}
	}
}

// frameBytes renders a complete frame (length prefix + type + payload).
func frameBytes(ftype byte, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	b = append(b, ftype)
	return append(b, payload...)
}

// FuzzWireFrame feeds arbitrary bytes through the frame reader and, for
// every frame that parses, through the matching payload decoder. The
// property is totality: no panics, no over-reads, and every accepted
// tuple/ack payload re-encodes to the identical bytes.
func FuzzWireFrame(f *testing.F) {
	// Valid single-tuple batch, including a NaN payload and -Inf.
	e := &stream.Tuple{TS: 500, Seq: 3, Src: 1, Delay: 20,
		Attrs: []float64{math.Float64frombits(0x7ff8_0000_0000_0042), math.Inf(-1)}}
	f.Add(frameBytes(ftBatch, appendMsg(nil, wmProbe, e, 480, 12)))
	// Two messages in one frame, the second insert-kind.
	two := appendMsg(nil, wmProbe, e, 480, 12)
	f.Add(frameBytes(ftBatch, appendMsg(two, wmInsert, e, 0, 0)))
	// Barrier, barrier-ack (ok and failed), materialize, close.
	f.Add(frameBytes(ftBarrier, appendBarrier(nil, feedback.BarrierMsg{Seq: 1, OutT: 900})))
	f.Add(frameBytes(ftBarrierAck, appendAck(nil, feedback.BarrierAck{Seq: 1},
		ackOut([][2]int64{{3, 9}}, []int{3}, []stream.Result{{TS: 880, Tuples: []*stream.Tuple{e}}}))))
	f.Add(frameBytes(ftBarrierAck, appendAck(nil,
		feedback.BarrierAck{Seq: 4, Failed: true, Err: "boom"}, nil)))
	// Acks the decoder must refuse: an arrival index out of range,
	// descending, duplicated, or with a zero count.
	f.Add(frameBytes(ftBarrierAck, ackFrame(2, [2]int64{fuzzArrivals, 1})))
	f.Add(frameBytes(ftBarrierAck, ackFrame(2, [2]int64{7, 1}, [2]int64{4, 1})))
	f.Add(frameBytes(ftBarrierAck, ackFrame(2, [2]int64{7, 1}, [2]int64{7, 1})))
	f.Add(frameBytes(ftBarrierAck, ackFrame(2, [2]int64{7, 0})))
	f.Add(frameBytes(ftMaterialize, nil))
	f.Add(frameBytes(ftClose, nil))
	// Truncated frames: header only, short payload, and a cut-off tuple.
	f.Add([]byte{40, 0, 0, 0})
	f.Add([]byte{40, 0, 0, 0, ftBatch, wmProbe, 1})
	full := frameBytes(ftBatch, appendMsg(nil, wmProbe, e, 480, 12))
	f.Add(full[:len(full)-5])
	// Oversize length prefix (must be rejected before any allocation) and
	// a zero-length frame.
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrame+1))
	f.Add([]byte{0, 0, 0, 0})
	// Lying attribute count inside an otherwise valid frame.
	lie := frameBytes(ftBatch, appendMsg(nil, wmProbe, e, 480, 12))
	binary.LittleEndian.PutUint16(lie[5+2:], 60000)
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		var slab tupleSlab
		var out shard.Out[stream.Result]
		for {
			ftype, payload, err := fr.next()
			if err != nil {
				return // any error ends the stream; the property is no panic
			}
			switch ftype {
			case ftBatch:
				off := 0
				for off < len(payload) {
					kind, e, wm, idx, next, err := decodeMsg(payload, off, &slab)
					if err != nil {
						break
					}
					if next <= off || next > len(payload) {
						t.Fatalf("decodeMsg advanced %d -> %d of %d", off, next, len(payload))
					}
					// Accepted messages must re-encode to identical bytes.
					re := appendMsg(nil, kind, e, wm, idx)
					if !bytes.Equal(re, payload[off:next]) {
						t.Fatalf("tuple message did not re-encode canonically")
					}
					off = next
				}
			case ftBarrier:
				if m, err := decodeBarrier(payload); err == nil {
					if !bytes.Equal(appendBarrier(nil, m), payload[:16]) {
						t.Fatalf("barrier did not re-encode canonically")
					}
				}
			case ftBarrierAck:
				// Re-encoding from the dense accumulator emits strictly
				// ascending, nonzero, in-range pairs, so an accepted ack
				// that is not canonical was one the decoder should refuse.
				if hdr, err := decodeAck(payload, fuzzArrivals, &out); err == nil && !hdr.Failed {
					if !bytes.Equal(appendAck(nil, hdr, &out), payload) {
						t.Fatalf("ack did not re-encode canonically")
					}
					_, resIdx := out.Results()
					if len(out.Counts()) > fuzzArrivals || len(resIdx) > 0 && resIdx[len(resIdx)-1] >= fuzzArrivals {
						t.Fatalf("ack accepted an arrival index past the interval's %d", fuzzArrivals)
					}
				}
			}
		}
	})
}

// TestDataPathAllocationFree gates the zero-allocation claim: warm
// encoders appending into a capacity-sized buffer and a warm frame reader
// must not allocate per frame. The slab-backed tuple decode amortizes to
// one allocation per slabTuples tuples, asserted separately.
func TestDataPathAllocationFree(t *testing.T) {
	e := &stream.Tuple{TS: 500, Seq: 3, Src: 1, Delay: 20, Attrs: []float64{1, 2, 3}}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendMsg(buf[:0], wmProbe, e, 480, 12)
	}); n != 0 {
		t.Errorf("appendMsg: %v allocs/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = appendBarrier(buf[:0], feedback.BarrierMsg{Seq: 9, OutT: 100})
	}); n != 0 {
		t.Errorf("appendBarrier: %v allocs/op", n)
	}
	out := ackOut([][2]int64{{1, 5}}, nil, nil)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendAck(buf[:0], feedback.BarrierAck{Seq: 9}, out)
	}); n != 0 {
		t.Errorf("appendAck: %v allocs/op", n)
	}

	// Frame writer: one buffered frame assembled and "written" to a
	// discarding sink per op.
	fw := newFrameWriter(io.Discard)
	fw.begin(ftBatch) // warm the buffer
	if n := testing.AllocsPerRun(200, func() {
		fw.begin(ftBatch)
		fw.buf = appendMsg(fw.buf, wmProbe, e, 480, 12)
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("frameWriter: %v allocs/op", n)
	}

	// Frame reader: replay the same frame stream from a reset reader. The
	// bufio.Reader and payload buffer are reused, so a warm reader reads
	// each frame without allocating.
	frame := frameBytes(ftBatch, appendMsg(nil, wmProbe, e, 480, 12))
	stream10 := bytes.Repeat(frame, 10)
	br := bytes.NewReader(stream10)
	fr := newFrameReader(br)
	if _, _, err := fr.next(); err != nil { // warm buffers
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		br.Reset(stream10)
		fr.r.Reset(br)
		for i := 0; i < 10; i++ {
			if _, _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("frameReader: %v allocs/op over 10 frames", n)
	}

	// Slab decode: 2048 tuples cost ≤ a handful of chunk allocations, far
	// under one per tuple.
	payload := frame[5:] // strip prefix+type: one tuple message
	var slab tupleSlab
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2048; i++ {
			if _, _, _, _, _, err := decodeMsg(payload, 0, &slab); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 16 {
		t.Errorf("slab decode: %v allocs per 2048 tuples", allocs)
	}
}
