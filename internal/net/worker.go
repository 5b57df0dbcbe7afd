package net

import (
	"errors"
	"fmt"
	"io"
	stdnet "net"

	"repro/internal/fault"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/shard"
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

// wsession is one worker-side session: the shard worker of
// internal/shard behind a socket. Every decoded message goes through
// shard.Step into the session's accumulator, which the barrier ack
// carries back to the driver.
type wsession struct {
	fr  *frameReader
	fw  *frameWriter
	inj *fault.Injector

	id   int
	body shard.OpBody
	out  shard.Out[stream.Result]
	msg  shard.Msg[*stream.Tuple] // the message being stepped
	slab tupleSlab

	// failed puts the session in drain mode after a contained fault: data
	// frames are discarded but barriers keep acking (with Failed), so the
	// driver's quiesce protocol never deadlocks.
	failed *fault.WorkerError
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
	s = &wsession{inj: cfg.Inject, id: hello.Worker}
	s.body = shard.OpBody{Op: join.New(cond, hello.Windows), Out: &s.out}
	if hello.Materialize {
		s.body.Materialize()
	}
	return s, nil
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
		case ftMaterialize:
			s.body.Materialize()
		case ftClose:
			return nil
		default:
			return fmt.Errorf("net: unexpected frame type %d", ft)
		}
	}
}

// handleBatch steps one tuple-batch frame's messages. A fault anywhere in
// the frame (injected, genuine, or a malformed message) fails the session
// into drain mode; the frame's unprocessed suffix is skipped, exactly as
// the in-process worker skips the rest of a failed batch.
func (s *wsession) handleBatch(b []byte) {
	for off := 0; off < len(b) && s.failed == nil; {
		kind, e, wm, idx, next, err := decodeMsg(b, off, &s.slab)
		if err != nil {
			s.failed = &fault.WorkerError{Worker: s.id, Cause: err}
			return
		}
		off = next
		s.msg = shard.Msg[*stream.Tuple]{Item: e, WM: wm, Idx: idx, Kind: shard.Insert}
		if kind == wmProbe {
			// "tuple N" injector directives count probe messages on this
			// worker.
			s.inj.Arrival()
			s.msg.Kind = shard.Probe
		}
		s.failed = shard.Step(s.id, &s.body, &s.out, s.inj, &s.msg)
	}
}

// ackBarrier replies to a barrier with this interval's accumulator (or the
// recorded failure) and resets it.
func (s *wsession) ackBarrier(m feedback.BarrierMsg) error {
	ack := feedback.BarrierAck{Seq: m.Seq}
	if s.failed != nil {
		ack.Failed, ack.Err = true, s.failed.Cause.Error()
	}
	s.fw.begin(ftBarrierAck)
	s.fw.buf = appendAck(s.fw.buf, ack, &s.out)
	s.out.Reset()
	return s.fw.flush()
}
