package fault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
)

// Directive kinds.
const (
	injectPanic = iota
	injectDelay
)

// directive is one armed fault: fire once when the driver-side arrival
// counter crosses Tuple.
type directive struct {
	kind   int
	worker int
	tuple  int64
	dur    time.Duration // delay duration
	fired  bool
}

// Injector injects deterministic faults into a running join: worker panics
// and delayed stages, armed when the driver-side arrival counter crosses
// the directive's tuple count. Every decision is a pure function of the
// arrival sequence, so differential recovery tests are reproducible
// bit-for-bit.
//
// Arrival() runs on the driver goroutine; ShouldPanic/ShouldDelay are
// called from worker goroutines and synchronize through the same mutex.
// Pause/Resume bracket supervisor replay so re-pushed tuples do not
// re-count (and one-shot directives never re-fire anyway).
type Injector struct {
	mu       sync.Mutex
	arrivals int64
	paused   bool
	dirs     []directive

	panicArmed map[int]bool // worker → pending panic
	delayArmed map[int]time.Duration
}

// NewInjector creates an empty injector; add faults with Add or ParseInjectSpec.
func NewInjector() *Injector {
	return &Injector{
		panicArmed: make(map[int]bool),
		delayArmed: make(map[int]time.Duration),
	}
}

// PanicAt arms a one-shot panic of worker w once tuple arrivals have been pushed.
func (in *Injector) PanicAt(worker int, tuple int64) *Injector {
	in.dirs = append(in.dirs, directive{kind: injectPanic, worker: worker, tuple: tuple})
	return in
}

// DelayAt arms a one-shot stall of worker w for dur once tuple arrivals have
// been pushed.
func (in *Injector) DelayAt(worker int, tuple int64, dur time.Duration) *Injector {
	in.dirs = append(in.dirs, directive{kind: injectDelay, worker: worker, tuple: tuple, dur: dur})
	return in
}

// Arrival counts one driver-side raw arrival and arms any directive whose
// threshold it crosses. No-op on a nil injector and while paused (supervisor
// replay).
func (in *Injector) Arrival() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.paused {
		return
	}
	in.arrivals++
	for i := range in.dirs {
		d := &in.dirs[i]
		if d.fired || in.arrivals < d.tuple {
			continue
		}
		d.fired = true
		switch d.kind {
		case injectPanic:
			in.panicArmed[d.worker] = true
		case injectDelay:
			in.delayArmed[d.worker] = d.dur
		}
	}
}

// Arrivals returns the (non-replay) arrival count.
func (in *Injector) Arrivals() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.arrivals
}

// ShouldPanic reports (and consumes) a pending panic for worker w. The
// caller must panic with ErrInjected.
func (in *Injector) ShouldPanic(worker int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.paused || !in.panicArmed[worker] {
		return false
	}
	delete(in.panicArmed, worker)
	return true
}

// ShouldDelay reports (and consumes) a pending stall for worker w.
func (in *Injector) ShouldDelay(worker int) (time.Duration, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	d, ok := in.delayArmed[worker]
	if in.paused || !ok {
		return 0, false
	}
	delete(in.delayArmed, worker)
	return d, true
}

// Pause suspends arming and firing (supervisor replay).
func (in *Injector) Pause() {
	in.mu.Lock()
	in.paused = true
	in.mu.Unlock()
}

// Resume re-enables the injector after a replay.
func (in *Injector) Resume() {
	in.mu.Lock()
	in.paused = false
	in.mu.Unlock()
}

// MaybePanic panics with ErrInjected when a panic is armed for worker w;
// executors call it at their worker-step entry points.
func (in *Injector) MaybePanic(worker int) {
	if in != nil && in.ShouldPanic(worker) {
		panic(ErrInjected)
	}
}

// MaybeDelay stalls worker w when a delay is armed for it.
func (in *Injector) MaybeDelay(worker int) {
	if in == nil {
		return
	}
	if d, ok := in.ShouldDelay(worker); ok {
		time.Sleep(d)
	}
}

// ParseInjectSpec parses a comma-separated fault spec:
//
//	panic@shardN:tupleM       worker N panics after arrival M
//	delay@shardN:tupleM[:D]   worker N stalls for D (Go duration, default 50ms)
//
// e.g. "panic@shard1:tuple5000" or "panic@shard0:tuple100,delay@shard1:tuple200:2ms".
// N, M and D must not be negative and a directive takes no further
// fields: a spec that could only arm a fault that never fires is an error,
// not a run that passes for a recovery test.
func ParseInjectSpec(spec string) (*Injector, error) {
	in := NewInjector()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: inject spec %q: missing '@'", part)
		}
		fields := strings.Split(rest, ":")
		switch kind {
		case "panic", "delay":
			want, maxFields := "panic@shardN:tupleM", 2
			if kind == "delay" {
				want, maxFields = "delay@shardN:tupleM[:D]", 3
			}
			if len(fields) < 2 || len(fields) > maxFields {
				return nil, fmt.Errorf("fault: inject spec %q: want %s", part, want)
			}
			w, err := specInt(fields[0], "shard", 32)
			if err != nil {
				return nil, fmt.Errorf("fault: inject spec %q: %v", part, err)
			}
			t, err := specInt(fields[1], "tuple", 64)
			if err != nil {
				return nil, fmt.Errorf("fault: inject spec %q: %v", part, err)
			}
			if kind == "panic" {
				in.PanicAt(int(w), t)
				break
			}
			dur := 50 * time.Millisecond
			if len(fields) > 2 {
				dur, err = time.ParseDuration(fields[2])
				if err != nil {
					return nil, fmt.Errorf("fault: inject spec %q: bad duration: %v", part, err)
				}
				if dur < 0 {
					return nil, fmt.Errorf("fault: inject spec %q: bad duration: %v is negative", part, dur)
				}
			}
			in.DelayAt(int(w), t, dur)
		default:
			return nil, fmt.Errorf("fault: inject spec %q: unknown kind %q", part, kind)
		}
	}
	return in, nil
}

// specInt parses prefix<n>, n a non-negative decimal of at most bits bits.
func specInt(s, prefix string, bits int) (int64, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("want %s<n>, got %q", prefix, s)
	}
	n, err := strconv.ParseInt(s[len(prefix):], 10, bits)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("%s is negative", s)
	}
	return n, nil
}

// EventRec is the serialized form of one tree-stage event: a raw tuple or a
// partial, with its stage-local arrival order and probe key. Parts is the
// m-length sparse constituent list as tuple-table ids (-1 = unbound).
type EventRec struct {
	TS       stream.Time
	Deadline stream.Time
	Delay    stream.Time
	Ord      uint64
	Key      float64
	Parts    []int32
}
