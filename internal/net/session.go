package net

import (
	"errors"
	"fmt"
	stdnet "net"
	"sort"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/shard"
	"repro/internal/stream"
)

// Session is the driver side of a networked deployment: it embeds the same
// shard.Router the in-process runtime uses — watermark, n×(e) replay,
// partition routing, per-interval accounting all stay on the driver — and
// replaces the shard goroutines with TCP connections to qdhjd workers.
// Determinism therefore needs no new argument: the router makes identical
// decisions, each worker runs the identical shard.Step over the identical
// message sequence (TCP preserves order; barriers are in-band), and
// FlushInterval releases the decoded acks through the identical merge.
//
// The session is lazy: the constructor performs no I/O, and the first
// Route/FlushInterval/Restore dials. Dial and transport failures panic
// with *fault.WorkerError on the driver thread — the same surface a
// crashed in-process shard has — so plan.Supervised's backoff/checkpoint
// recovery covers lost workers with no extra machinery.
type Session struct {
	cfg   shard.Config
	addrs []string
	sig   string
	wc    join.WireCondition
	batch int

	router *shard.Router
	conns  []*wconn

	dialed   bool
	finished bool

	barSeq uint64
	outs   []*shard.Out[stream.Result] // outs[w]: worker w's decoded ack
}

// wconn is one worker connection with its pending batch frame.
type wconn struct {
	c    stdnet.Conn
	fr   *frameReader
	fw   *frameWriter
	open bool // a ftBatch frame is being assembled in fw.buf
	nmsg int  // messages in the open batch frame
}

// NewSession builds a driver session for one worker address per shard.
// cfg.N is overridden to len(addrs); cfg.BatchSize is the frame batch (how
// many tuple messages share one frame and one write; default 128, 1 =
// per-tuple framing). The condition must be wireable (no opaque Where
// closures) — plan.Build validates this with a better error before
// constructing the session.
func NewSession(addrs []string, sig string, cfg shard.Config) *Session {
	if len(addrs) == 0 {
		panic("net: need at least one worker address")
	}
	cfg.N = len(addrs)
	wc, err := cfg.Cond.Wire()
	if err != nil {
		panic(err)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 128
	}
	return &Session{
		cfg:    cfg,
		addrs:  addrs,
		sig:    sig,
		wc:     wc,
		batch:  batch,
		router: newRetainingRouter(cfg),
	}
}

func newRetainingRouter(cfg shard.Config) *shard.Router {
	r := shard.NewRouter(cfg.N, cfg.Cond, cfg.Windows, cfg.OnOutOfOrder)
	// Retain window tuples driver-side: checkpoints are captured entirely on
	// the driver, so worker state never needs a wire representation — a
	// restore simply re-routes the retained windows as insert frames.
	r.Retain()
	return r
}

// ensure dials the workers on first use. A failure tears the session down
// and panics *fault.WorkerError so supervision retries under backoff.
func (s *Session) ensure() {
	if s.dialed {
		return
	}
	if s.finished {
		panic("net: use of a closed session — a networked run cannot be restarted; build a new pipeline")
	}
	conns := make([]*wconn, len(s.addrs))
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.c.Close()
			}
		}
	}
	for i, addr := range s.addrs {
		c, err := stdnet.Dial("tcp", addr)
		if err != nil {
			closeAll()
			panic(&fault.WorkerError{Worker: i, Cause: err})
		}
		w := &wconn{c: c, fr: newFrameReader(c), fw: newFrameWriter(c)}
		conns[i] = w
		hello := HelloMsg{
			Sig:         s.sig,
			Worker:      i,
			N:           len(s.addrs),
			Cond:        s.wc,
			Windows:     s.cfg.Windows,
			Materialize: s.cfg.Materialize,
		}
		err = writeGob(w.fw, ftHello, hello)
		var ack HelloAck
		if err == nil {
			var ft byte
			var payload []byte
			if ft, payload, err = w.fr.next(); err == nil {
				if ft != ftHelloAck {
					err = fmt.Errorf("net: expected hello ack, got frame type %d", ft)
				} else {
					err = readGob(payload, &ack)
				}
			}
		}
		if err == nil && ack.Err != "" {
			if ack.Mismatch {
				err = fmt.Errorf("%w: %s", fault.ErrRestoreMismatch, ack.Err)
			} else {
				err = errors.New(ack.Err)
			}
		}
		if err != nil {
			closeAll()
			panic(&fault.WorkerError{Worker: i, Cause: err})
		}
	}
	s.conns = conns
	s.dialed = true
	s.outs = make([]*shard.Out[stream.Result], len(conns))
	for w := range s.outs {
		s.outs[w] = new(shard.Out[stream.Result])
	}
}

// fail tears the session down (freeing the workers' sequential accept
// loops for the successor session) and panics the typed worker error.
func (s *Session) fail(worker int, err error) {
	s.teardown()
	panic(&fault.WorkerError{Worker: worker, Cause: err})
}

func (s *Session) teardown() {
	s.finished = true
	for _, c := range s.conns {
		c.c.Close()
	}
}

// must panics via fail on a transport error.
func (s *Session) must(worker int, err error) {
	if err != nil {
		s.fail(worker, err)
	}
}

// Route accepts one synchronized tuple, routes it through the shared
// router logic, and appends the resulting messages to the owning workers'
// pending batch frames. Must be called from a single goroutine.
func (s *Session) Route(e *stream.Tuple) {
	if s.finished {
		panic("net: Route on a finished session — a networked run cannot be restarted; build a new pipeline")
	}
	s.ensure()
	d := s.router.Observe(e)
	if d.Drop {
		return
	}
	kind := byte(wmInsert)
	if d.Probe {
		kind = wmProbe
	}
	if d.All {
		for w := range s.conns {
			s.sendMsg(w, kind, e, d.WM, d.Idx)
		}
		return
	}
	s.sendMsg(d.Owner, kind, e, d.WM, d.Idx)
	for _, w := range d.Replicas {
		s.sendMsg(w, wmInsert, e, d.WM, 0)
	}
}

// sendMsg appends one tuple message to worker w's batch frame, writing the
// frame once it holds the configured batch of messages.
func (s *Session) sendMsg(w int, kind byte, e *stream.Tuple, wm stream.Time, idx int) {
	c := s.conns[w]
	if !c.open {
		c.fw.begin(ftBatch)
		c.open = true
		c.nmsg = 0
	}
	c.fw.buf = appendMsg(c.fw.buf, kind, e, wm, idx)
	c.nmsg++
	if c.nmsg >= s.batch {
		s.flushFrame(w)
	}
}

// flushFrame writes worker w's pending batch frame, if any.
func (s *Session) flushFrame(w int) {
	c := s.conns[w]
	if !c.open {
		return
	}
	c.open = false
	s.must(w, c.fw.flush())
}

// control writes one control frame to worker w, flushing the pending batch
// frame first so the control event keeps its in-band position.
func (s *Session) control(w int, ftype byte, body func(buf []byte) []byte) {
	s.flushFrame(w)
	c := s.conns[w]
	c.fw.begin(ftype)
	if body != nil {
		c.fw.buf = body(c.fw.buf)
	}
	s.must(w, c.fw.flush())
}

// Watermark returns the driver router's global watermark onT.
func (s *Session) Watermark() stream.Time { return s.router.Watermark() }

// FlushInterval quiesces the workers with one pipelined barrier round-trip
// — barrier frames to all workers first, then acks read in worker order —
// decodes each ack into its worker's shard.Out and releases the interval
// through Router.Release, exactly like the in-process runtime. A worker
// failure (contained fault, transport error or malformed ack) panics
// before anything is emitted, preserving the all-or-nothing interval
// boundary the checkpoint/replay gates rely on (DESIGN.md §10).
func (s *Session) FlushInterval(
	visit func(ts, delay stream.Time, nCross, nOn int64),
	emit func(stream.Result),
) {
	s.ensure()
	s.barSeq++
	m := feedback.BarrierMsg{Seq: s.barSeq, OutT: s.router.Watermark()}
	for w := range s.conns {
		s.control(w, ftBarrier, func(buf []byte) []byte { return appendBarrier(buf, m) })
	}
	for w, c := range s.conns {
		ft, payload, err := c.fr.next()
		s.must(w, err)
		if ft != ftBarrierAck {
			s.fail(w, fmt.Errorf("net: expected barrier ack, got frame type %d", ft))
		}
		ack, err := decodeAck(payload, s.router.Arrivals(), s.outs[w])
		s.must(w, err)
		if ack.Seq != s.barSeq {
			s.fail(w, fmt.Errorf("net: barrier ack seq %d, want %d", ack.Seq, s.barSeq))
		}
		if ack.Failed {
			s.fail(w, errors.New(ack.Err))
		}
	}
	s.router.Release(s.outs, visit, emit)
}

// EnableMaterialize installs result buffers on the workers. Before the run
// starts it simply flips the hello flag; the dialed case covers the
// restore path, where a session dials during Restore and the sink is
// installed before the first Push.
func (s *Session) EnableMaterialize() {
	if s.router.Started() {
		panic("net: cannot install a results sink after the networked run has started — results produced so far were count-only; install the sink before the first Push")
	}
	if s.cfg.Materialize {
		return
	}
	s.cfg.Materialize = true
	if s.dialed {
		for w := range s.conns {
			s.control(w, ftMaterialize, nil)
		}
	}
}

// State captures the runtime state entirely driver-side: the router spine
// plus the retained window tuples in canonical (TS, Seq) order. Call only
// after FlushInterval, per the shard.Runtime contract.
func (s *Session) State(tt *fault.TupleTable) shard.State {
	var st shard.State
	st.WM, st.Started, st.Reps = s.router.Snapshot()
	st.Windows = make([][]int32, s.cfg.Cond.M)
	for i := range st.Windows {
		tuples := append([]*stream.Tuple(nil), s.router.Held(i)...)
		sort.Slice(tuples, func(a, b int) bool { return stream.Less(tuples[a], tuples[b]) })
		for _, t := range tuples {
			st.Windows[i] = append(st.Windows[i], tt.ID(t))
		}
	}
	return st
}

// Restore loads a checkpoint into a fresh session: the router spine and
// retained windows are restored driver-side, the workers are dialed (a
// restarted daemon accepts with a fresh operator; a surviving daemon pins
// the deployment signature), and the window tuples re-enter as insert
// frames under the restored watermark — deterministic routing lands every
// tuple on exactly the shards it occupied before. Snapshots from the
// in-process runtime restore here unchanged (and vice versa): the state
// schema and signature are deployment-agnostic.
func (s *Session) Restore(st shard.State, ta *fault.TupleArena) {
	s.router.RestoreSpine(st.WM, st.Started, st.Reps)
	ws := make([][]*stream.Tuple, len(st.Windows))
	for i, ids := range st.Windows {
		for _, id := range ids {
			ws[i] = append(ws[i], ta.Tuple(id))
		}
	}
	s.router.RestoreHeld(ws)
	s.ensure()
	for _, w := range ws {
		for _, e := range w {
			probeAll, owner, replicas := s.router.RouteOnly(e)
			if probeAll {
				for c := range s.conns {
					s.sendMsg(c, wmInsert, e, st.WM, 0)
				}
				continue
			}
			s.sendMsg(owner, wmInsert, e, st.WM, 0)
			for _, c := range replicas {
				s.sendMsg(c, wmInsert, e, st.WM, 0)
			}
		}
	}
	for w := range s.conns {
		s.flushFrame(w)
	}
}

// Close ends the session: pending frames flush, a close frame tells each
// worker to end its session cleanly, and the connections close. Closing
// twice (or closing a torn-down session) is a no-op.
func (s *Session) Close() {
	if s.finished {
		return
	}
	s.finished = true
	if !s.dialed {
		return
	}
	for _, c := range s.conns {
		// Best-effort: a worker that already vanished must not block Close.
		if c.open {
			c.open = false
			c.fw.flush()
		}
		c.fw.begin(ftClose)
		c.fw.flush()
		c.c.Close()
	}
}
