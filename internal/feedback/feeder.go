package feedback

import (
	"sync"

	"repro/internal/stream"
)

// feeder moves the Statistics Manager off the ingest thread in async
// (sharded) runs of a history-keeping loop: Observe touches per-stream delay
// histograms and ADWIN state that nothing on the per-tuple hot path reads —
// the feedback loop consults them only at adaptation boundaries — so the
// updates can run on their own goroutine, batched, and merely need to be
// caught up before each K decision. sync() provides that barrier.
type feeder struct {
	ch   chan []*stream.Tuple
	ack  chan struct{}
	done chan struct{}
	pend []*stream.Tuple
	pool sync.Pool
	size int
}

// newFeeder starts the feeder goroutine; obs is stats.Manager.Observe.
func newFeeder(obs func(*stream.Tuple), batch int) *feeder {
	if batch <= 0 {
		batch = 256
	}
	f := &feeder{
		ch:   make(chan []*stream.Tuple, 64),
		ack:  make(chan struct{}),
		done: make(chan struct{}),
		size: batch,
	}
	f.pool.New = func() any { return make([]*stream.Tuple, 0, batch) }
	f.pend = f.getBatch()
	go func() {
		defer close(f.done)
		for b := range f.ch {
			if b == nil { // sync marker
				f.ack <- struct{}{}
				continue
			}
			for _, e := range b {
				obs(e)
			}
			clear(b)
			f.pool.Put(b[:0])
		}
	}()
	return f
}

func (f *feeder) getBatch() []*stream.Tuple {
	return f.pool.Get().([]*stream.Tuple)[:0]
}

// add enqueues one arrival for observation.
func (f *feeder) add(e *stream.Tuple) {
	f.pend = append(f.pend, e)
	if len(f.pend) >= f.size {
		f.flush()
	}
}

func (f *feeder) flush() {
	if len(f.pend) == 0 {
		return
	}
	f.ch <- f.pend
	f.pend = f.getBatch()
}

// sync blocks until every enqueued arrival has been observed; afterwards
// the Statistics Manager is consistent with the ingest thread.
func (f *feeder) sync() {
	f.flush()
	f.ch <- nil
	<-f.ack
}

// close drains and stops the feeder goroutine.
func (f *feeder) close() {
	f.flush()
	close(f.ch)
	<-f.done
}
