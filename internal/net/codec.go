// Package net is the networked worker runtime: one logical sliding-window
// join runs as N key-partitioned worker processes over TCP, and both ends
// are internal/shard's. The driver Session embeds the shard.Router the
// in-process runtime uses and releases each interval through the pool's
// merge (shard.MergeOuts); a qdhjd worker session is a shard worker behind
// a socket, stepping every message through shard.Step into a shard.Out
// that its barrier ack carries back. K never crosses the wire: it sizes
// the driver's K-slack buffers only. The wire is engineered as a hot
// path, not an RPC port:
//
//   - length-prefixed binary frames with pooled buffers — the data path
//     (tuples, barriers, acks) never touches gob or reflection; gob is
//     reserved for the one-shot hello handshake (and checkpoints keep
//     their existing gob form, off the wire entirely: window state is
//     retained driver-side by the router);
//   - tuple batches as the unit of transport: up to FrameBatch tuple
//     messages share one frame and one write syscall, with batch cuts a
//     pure function of the input stream (a frame is cut when full or at a
//     barrier/close), so framing can never affect results;
//   - in-band barriers: a barrier is a frame within the same ordered byte
//     stream as the data, so its ack covers exactly the tuples sent
//     before it.
//
// See DESIGN.md §14 for the protocol and the cross-process determinism
// argument.
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/feedback"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Frame types. A frame is [u32 length (LE)][payload]; payload[0] is the
// type byte, so length ≥ 1. Length covers the payload only.
const (
	ftHello       = 1 // driver→worker: gob HelloMsg
	ftHelloAck    = 2 // worker→driver: gob HelloAck
	ftBatch       = 3 // driver→worker: tuple messages (binary, below)
	ftBarrier     = 4 // driver→worker: feedback.BarrierMsg
	ftBarrierAck  = 5 // worker→driver: feedback.BarrierAck + shard.Out
	ftMaterialize = 7 // driver→worker: install result buffers (empty payload)
	ftClose       = 8 // driver→worker: clean end of session (empty payload)
)

// maxFrame bounds a frame payload; longer length prefixes are rejected
// before any allocation, so a corrupt or hostile peer cannot force an
// arbitrary-size buffer.
const maxFrame = 1 << 26 // 64 MiB

// Tuple message kinds inside a ftBatch payload.
const (
	wmProbe  = 0 // full Alg. 2 step: expire, probe, insert
	wmInsert = 1 // replica/out-of-order path: insert-only
)

// Tuple message layout (little-endian):
//
//	u8  kind   u8 src   u16 nattrs   u32 idx
//	i64 ts     u64 seq  i64 delay    i64 wm
//	nattrs × u64 (IEEE-754 bits)
//
// 40 bytes + 8 per attribute. idx is the router arrival index (probes
// only; zero on inserts). Attributes travel as raw bits, so NaN payloads
// and ±Inf round-trip exactly.
const msgHeader = 40

var (
	errShortFrame = errors.New("net: truncated frame")
	errFrameSize  = errors.New("net: frame length exceeds limit")
	errBadMsg     = errors.New("net: malformed tuple message")
	errBadAck     = errors.New("net: malformed barrier ack")
)

// appendMsg encodes one tuple message. Zero allocations beyond the
// amortized growth of buf.
func appendMsg(buf []byte, kind byte, e *stream.Tuple, wm stream.Time, idx int) []byte {
	buf = append(buf, kind, byte(e.Src))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Attrs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Delay))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(wm))
	for _, a := range e.Attrs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
	}
	return buf
}

// decodeMsg decodes one tuple message at b[off:], materializing the tuple
// from the slab. Returns the message kind, tuple, watermark, arrival index
// and the next offset.
func decodeMsg(b []byte, off int, slab *tupleSlab) (kind byte, e *stream.Tuple, wm stream.Time, idx int, next int, err error) {
	if len(b)-off < msgHeader {
		return 0, nil, 0, 0, 0, errBadMsg
	}
	kind = b[off]
	if kind != wmProbe && kind != wmInsert {
		return 0, nil, 0, 0, 0, errBadMsg
	}
	src := int(b[off+1])
	nattrs := int(binary.LittleEndian.Uint16(b[off+2:]))
	idx = int(binary.LittleEndian.Uint32(b[off+4:]))
	ts := stream.Time(binary.LittleEndian.Uint64(b[off+8:]))
	seq := binary.LittleEndian.Uint64(b[off+16:])
	delay := stream.Time(binary.LittleEndian.Uint64(b[off+24:]))
	wm = stream.Time(binary.LittleEndian.Uint64(b[off+32:]))
	off += msgHeader
	if len(b)-off < 8*nattrs {
		return 0, nil, 0, 0, 0, errBadMsg
	}
	e = slab.alloc(nattrs)
	e.TS, e.Seq, e.Src, e.Delay = ts, seq, src, delay
	for i := 0; i < nattrs; i++ {
		e.Attrs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return kind, e, wm, idx, off, nil
}

// appendBarrier encodes a feedback.BarrierMsg payload (after the type byte).
func appendBarrier(buf []byte, m feedback.BarrierMsg) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	return binary.LittleEndian.AppendUint64(buf, uint64(m.OutT))
}

func decodeBarrier(b []byte) (feedback.BarrierMsg, error) {
	if len(b) < 16 {
		return feedback.BarrierMsg{}, errShortFrame
	}
	return feedback.BarrierMsg{
		Seq:  binary.LittleEndian.Uint64(b),
		OutT: stream.Time(binary.LittleEndian.Uint64(b[8:])),
	}, nil
}

// Barrier-ack payload layout (after the type byte):
//
//	u64 seq   u8 failed
//	failed: u32 errlen + bytes   (nothing further)
//	ok:     u32 nAcc  + nAcc × (u32 idx, i64 n)
//	        u32 nRes  + per result:
//	            u32 idx, i64 ts, u16 m, m × tuple record
//	tuple record: u8 src, u16 nattrs, i64 ts, u64 seq, i64 delay, attrs
//
// The (idx, n) pairs are the worker's shard.Out counts, sparse: strictly
// ascending arrival indexes with nonzero counts. Result indexes do not
// decrease. The driver decodes each ack back into a shard.Out and releases
// them all through shard.MergeOuts — the merge of the in-process pool.

// appendAck encodes a barrier ack; unless it reports a failure, the body
// is out's counts and results.
func appendAck(buf []byte, ack feedback.BarrierAck, out *shard.Out[stream.Result]) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ack.Seq)
	if ack.Failed {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ack.Err)))
		return append(buf, ack.Err...)
	}
	buf = append(buf, 0)
	at := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	nAcc := 0
	for idx, n := range out.Counts() {
		if n != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(idx))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
			nAcc++
		}
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(nAcc))
	res, resIdx := out.Results()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res)))
	for i, r := range res {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(resIdx[i]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TS))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Tuples)))
		for _, t := range r.Tuples {
			buf = append(buf, byte(t.Src))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.Attrs)))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t.TS))
			buf = binary.LittleEndian.AppendUint64(buf, t.Seq)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Delay))
			for _, a := range t.Attrs {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
			}
		}
	}
	return buf
}

// decodeAck parses a barrier-ack payload of an interval with the given
// number of arrivals into out (reset first). It refuses what no worker
// encodes: an arrival index at or past arrivals (it would size out's
// counts), count indexes that do not ascend, a zero count, and result
// indexes that decrease (MergeOuts would drop the results after them).
func decodeAck(b []byte, arrivals int, out *shard.Out[stream.Result]) (feedback.BarrierAck, error) {
	out.Reset()
	if len(b) < 9 {
		return feedback.BarrierAck{}, errShortFrame
	}
	hdr := feedback.BarrierAck{Seq: binary.LittleEndian.Uint64(b)}
	off := 9
	if b[8] != 0 {
		hdr.Failed = true
		if len(b) < off+4 {
			return hdr, errShortFrame
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if len(b) < off+n {
			return hdr, errShortFrame
		}
		hdr.Err = string(b[off : off+n])
		if off+n != len(b) {
			return hdr, errBadAck
		}
		return hdr, nil
	}
	if len(b) < off+4 {
		return hdr, errShortFrame
	}
	nAcc := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if nAcc < 0 || len(b)-off < 12*nAcc {
		return hdr, errShortFrame
	}
	for i, prev := 0, -1; i < nAcc; i++ {
		idx := int(binary.LittleEndian.Uint32(b[off:]))
		n := int64(binary.LittleEndian.Uint64(b[off+4:]))
		if idx <= prev || idx >= arrivals || n == 0 {
			return hdr, errBadAck
		}
		out.Add(idx, n)
		prev = idx
		off += 12
	}
	if len(b) < off+4 {
		return hdr, errShortFrame
	}
	nRes := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	for i, prev := 0, 0; i < nRes; i++ {
		if len(b) < off+14 {
			return hdr, errShortFrame
		}
		idx := int(binary.LittleEndian.Uint32(b[off:]))
		ts := stream.Time(binary.LittleEndian.Uint64(b[off+4:]))
		m := int(binary.LittleEndian.Uint16(b[off+12:]))
		off += 14
		if idx < prev || idx >= arrivals {
			return hdr, errBadAck
		}
		prev = idx
		if len(b)-off < 27*m {
			return hdr, errShortFrame // before the arena grows for m members
		}
		r := stream.Result{TS: ts, Tuples: out.Slots(m)}
		for j := 0; j < m; j++ {
			if len(b) < off+27 {
				return hdr, errShortFrame
			}
			t := &stream.Tuple{
				Src:   int(b[off]),
				TS:    stream.Time(binary.LittleEndian.Uint64(b[off+3:])),
				Seq:   binary.LittleEndian.Uint64(b[off+11:]),
				Delay: stream.Time(binary.LittleEndian.Uint64(b[off+19:])),
			}
			nattrs := int(binary.LittleEndian.Uint16(b[off+1:]))
			off += 27
			if len(b)-off < 8*nattrs {
				return hdr, errShortFrame
			}
			t.Attrs = make([]float64, nattrs)
			for a := 0; a < nattrs; a++ {
				t.Attrs[a] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
				off += 8
			}
			r.Tuples[j] = t
		}
		out.Put(idx, r)
	}
	if off != len(b) {
		return hdr, errBadAck
	}
	return hdr, nil
}

// tupleSlab materializes decoded tuples in chunks, amortizing allocation:
// one tuple-array and one attr-array allocation per chunk instead of two
// per tuple. Chunks are retained only by the live tuples pointing into
// them; since windows expire in rough timestamp order, a chunk's lifetime
// tracks the window extent.
type tupleSlab struct {
	tuples []stream.Tuple
	attrs  []float64
}

const (
	slabTuples = 1024
	slabAttrs  = 8192
)

// alloc returns a zeroed tuple with an Attrs slice of length nattrs carved
// from the slab. The returned pointer stays valid forever (chunks are
// never reused).
func (s *tupleSlab) alloc(nattrs int) *stream.Tuple {
	if len(s.tuples) == cap(s.tuples) {
		s.tuples = make([]stream.Tuple, 0, slabTuples)
	}
	s.tuples = s.tuples[:len(s.tuples)+1]
	t := &s.tuples[len(s.tuples)-1]
	*t = stream.Tuple{}
	if nattrs > 0 {
		if cap(s.attrs)-len(s.attrs) < nattrs {
			c := slabAttrs
			if nattrs > c {
				c = nattrs
			}
			s.attrs = make([]float64, 0, c)
		}
		s.attrs = s.attrs[:len(s.attrs)+nattrs]
		t.Attrs = s.attrs[len(s.attrs)-nattrs : len(s.attrs) : len(s.attrs)]
	}
	return t
}

// frameSizeError renders the reject of an oversized length prefix.
func frameSizeError(n uint32) error {
	return fmt.Errorf("%w: %d bytes (max %d)", errFrameSize, n, maxFrame)
}
