package net

import (
	"errors"
	"fmt"
	"io"
	stdnet "net"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/stream"
)

// HelloMsg opens a worker session: it carries everything the worker needs
// to build its shard of the join. It is the only gob on the connection —
// one decode per session, never per tuple.
type HelloMsg struct {
	// Sig is the driver's deployment signature (plan.Signature). The daemon
	// pins the first session's signature; a later hello with a different
	// one is a driver trying to restore a different deployment into this
	// worker's slot, and is rejected.
	Sig string
	// Worker and N identify this worker's shard slot.
	Worker, N int
	// Cond and Windows define the join.
	Cond    join.WireCondition
	Windows []stream.Time
	// Materialize installs result buffers at construction.
	Materialize bool
}

// HelloAck answers a hello. An empty Err accepts the session.
type HelloAck struct {
	Err string
	// Mismatch marks Err as a deployment-signature mismatch, so the driver
	// can surface fault.ErrRestoreMismatch without string matching.
	Mismatch bool
}

// ServeConfig configures a worker daemon.
type ServeConfig struct {
	// Inject is the optional fault-injection harness; "tuple N" directives
	// count probe messages processed by this worker. Nil disables
	// injection.
	Inject *fault.Injector
	// Logf receives session lifecycle lines (nil = silent).
	Logf func(format string, args ...any)
}

// Serve runs the worker daemon on l: it accepts driver sessions
// sequentially (a worker holds one shard of one logical join; concurrent
// drivers would corrupt it) until the listener closes. The first accepted
// session pins the deployment signature — reconnects must present the
// same one, which makes a crashed driver's restore-into-fresh-worker safe
// and a wrong driver's loud.
func Serve(l stdnet.Listener, cfg ServeConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var pinned string
	var havePin bool
	for {
		c, err := l.Accept()
		if err != nil {
			if errIsClosed(err) {
				return nil
			}
			return err
		}
		logf("qdhjd: session from %s", c.RemoteAddr())
		err = serveConn(c, cfg, &pinned, &havePin)
		c.Close()
		if err != nil && err != io.EOF {
			logf("qdhjd: session ended: %v", err)
		} else {
			logf("qdhjd: session ended")
		}
	}
}

func errIsClosed(err error) bool { return errors.Is(err, stdnet.ErrClosed) }

// serveConn runs one driver session: handshake, then the frame loop.
func serveConn(c stdnet.Conn, cfg ServeConfig, pinned *string, havePin *bool) error {
	fr := newFrameReader(c)
	fw := newFrameWriter(c)

	ft, payload, err := fr.next()
	if err != nil {
		return err
	}
	if ft != ftHello {
		return fmt.Errorf("net: expected hello frame, got type %d", ft)
	}
	var hello HelloMsg
	if err := readGob(payload, &hello); err != nil {
		return fmt.Errorf("net: bad hello: %w", err)
	}
	if *havePin && hello.Sig != *pinned {
		// Reject without unpinning: the legitimate driver may still
		// reconnect.
		writeGob(fw, ftHelloAck, HelloAck{
			Err:      fmt.Sprintf("worker is pinned to deployment %q, hello is for %q", *pinned, hello.Sig),
			Mismatch: true,
		})
		return fmt.Errorf("net: deployment signature mismatch")
	}

	s, err := newWSession(hello, cfg)
	if err != nil {
		writeGob(fw, ftHelloAck, HelloAck{Err: err.Error()})
		return err
	}
	*pinned, *havePin = hello.Sig, true
	if err := writeGob(fw, ftHelloAck, HelloAck{}); err != nil {
		return err
	}
	s.fr, s.fw = fr, fw
	return s.run()
}

// wsession is one worker-side session: a shard operator plus its
// per-interval accumulators — the networked twin of shard.worker.
type wsession struct {
	fr  *frameReader
	fw  *frameWriter
	cfg ServeConfig

	id   int
	op   *join.Operator
	slab tupleSlab

	curIdx int
	curK   stream.Time // last KChangeMsg value; -1 until one arrives
	acc    []ackEntry
	res    []resEntry

	// failed flips the session into drain mode after a contained panic:
	// data frames are discarded but barriers keep acking (with Failed), so
	// the driver's quiesce protocol never deadlocks.
	failed bool
	errStr string

	// Scratch, reused across frames.
	ks []stream.Time
}

// newWSession validates the hello and builds the shard operator. All
// builder panics are converted to errors: the input crossed a process
// boundary and must not kill the daemon.
func newWSession(hello HelloMsg, cfg ServeConfig) (s *wsession, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("net: invalid hello: %v", r)
		}
	}()
	if hello.N < 1 || hello.Worker < 0 || hello.Worker >= hello.N {
		return nil, fmt.Errorf("net: hello names worker %d of %d", hello.Worker, hello.N)
	}
	cond, err := hello.Cond.Condition()
	if err != nil {
		return nil, err
	}
	if len(hello.Windows) != cond.M {
		return nil, fmt.Errorf("net: hello has %d windows for %d streams", len(hello.Windows), cond.M)
	}
	s = &wsession{
		cfg:  cfg,
		id:   hello.Worker,
		op:   join.New(cond, hello.Windows),
		curK: -1,
	}
	if hello.Materialize {
		s.installEmit()
	}
	return s, nil
}

func (s *wsession) installEmit() {
	s.op.SetEmit(func(r stream.Result) {
		s.res = append(s.res, resEntry{idx: s.curIdx, r: r})
	})
}

// run is the session frame loop. It returns on close, EOF or a transport
// error; processing faults do NOT end the session (drain mode).
func (s *wsession) run() error {
	for {
		ft, payload, err := s.fr.next()
		if err != nil {
			return err
		}
		switch ft {
		case ftBatch:
			s.handleBatch(payload)
		case ftBarrier:
			m, err := decodeBarrier(payload)
			if err != nil {
				return err
			}
			if err := s.ackBarrier(m); err != nil {
				return err
			}
		case ftSetK:
			m, ks, err := decodeSetK(payload, s.ks)
			s.ks = ks
			if err != nil {
				return err
			}
			if len(m.Ks) > 0 {
				s.curK = m.Ks[0]
			}
		case ftMaterialize:
			s.installEmit()
		case ftClose:
			return nil
		default:
			return fmt.Errorf("net: unexpected frame type %d", ft)
		}
	}
}

// handleBatch processes one tuple-batch frame. A panic anywhere in the
// frame (injected, genuine, or a malformed message) fails the session into
// drain mode; the frame's unprocessed suffix is skipped, exactly as the
// in-process worker skips the rest of a failed batch.
func (s *wsession) handleBatch(b []byte) {
	if s.failed {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.failed = true
			s.errStr = fault.AsError(r).Error()
		}
	}()
	inj := s.cfg.Inject
	off := 0
	for off < len(b) {
		kind, e, wm, idx, next, err := decodeMsg(b, off, &s.slab)
		if err != nil {
			panic(err)
		}
		off = next
		if kind != wmProbe {
			s.op.InsertAt(e, wm)
			continue
		}
		// "tuple N" injector directives count probe messages on this worker.
		inj.Arrival()
		inj.MaybeDelay(s.id)
		inj.MaybePanic(s.id)
		s.curIdx = idx
		if nOn := s.op.ProcessAt(e, wm); nOn != 0 {
			s.add(idx, nOn)
		}
	}
}

// add merges a result count into the sparse per-arrival accumulator.
// Arrival indexes are non-decreasing within an interval, so a same-idx
// merge only ever targets the last entry.
func (s *wsession) add(idx int, n int64) {
	if k := len(s.acc); k > 0 && s.acc[k-1].idx == idx {
		s.acc[k-1].n += n
		return
	}
	s.acc = append(s.acc, ackEntry{idx: idx, n: n})
}

// ackBarrier replies to a barrier with this interval's deltas (or the
// recorded failure) and resets the interval accumulators.
func (s *wsession) ackBarrier(m feedback.BarrierMsg) error {
	s.fw.begin(ftBarrierAck)
	s.fw.buf = appendAckHeader(s.fw.buf, feedback.BarrierAck{
		Seq:    m.Seq,
		Worker: s.id,
		K:      s.curK,
		Failed: s.failed,
		Err:    s.errStr,
	})
	if !s.failed {
		s.fw.buf = appendAckBody(s.fw.buf, s.acc, s.res)
	}
	s.acc = s.acc[:0]
	for i := range s.res {
		s.res[i] = resEntry{}
	}
	s.res = s.res[:0]
	return s.fw.flush()
}
