package fault

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

func TestTupleTableDedup(t *testing.T) {
	tt := NewTupleTable()
	a := &stream.Tuple{TS: 5, Seq: 1, Src: 0, Delay: 2, Attrs: []float64{3, 4}}
	b := &stream.Tuple{TS: 6, Seq: 2, Src: 1}
	if got := tt.ID(a); got != 0 {
		t.Fatalf("first id = %d, want 0", got)
	}
	if got := tt.ID(b); got != 1 {
		t.Fatalf("second id = %d, want 1", got)
	}
	if got := tt.ID(a); got != 0 {
		t.Fatalf("dup id = %d, want 0", got)
	}
	if got := tt.ID(nil); got != -1 {
		t.Fatalf("nil id = %d, want -1", got)
	}
	ar := NewTupleArena(tt.Recs)
	ra, rb := ar.Tuple(0), ar.Tuple(1)
	if ra.TS != 5 || ra.Seq != 1 || ra.Delay != 2 || len(ra.Attrs) != 2 {
		t.Fatalf("tuple a round-trip mismatch: %+v", ra)
	}
	if rb.Src != 1 {
		t.Fatalf("tuple b round-trip mismatch: %+v", rb)
	}
	if ar.Tuple(0) != ra {
		t.Fatal("arena must hand back shared pointers")
	}
	if ar.Tuple(-1) != nil {
		t.Fatal("id -1 must restore as nil")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	var slept []time.Duration
	b := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Retries: 5, Seed: 7,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	for i := 0; i < 6; i++ {
		b.Wait(i)
	}
	for i, d := range slept {
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("attempt %d slept %v, want (0, 80ms]", i, d)
		}
	}
	// Same seed → same schedule.
	var again []time.Duration
	b2 := Backoff{Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Seed: 7,
		Sleep: func(d time.Duration) { again = append(again, d) }}
	for i := 0; i < 6; i++ {
		b2.Wait(i)
	}
	for i := range slept {
		if slept[i] != again[i] {
			t.Fatalf("attempt %d: %v vs %v — backoff must be seed-deterministic", i, slept[i], again[i])
		}
	}
}

func TestInjectorArmsAtThreshold(t *testing.T) {
	in := NewInjector().PanicAt(1, 3).BurstAt(5, 16)
	for i := 0; i < 2; i++ {
		in.Arrival()
	}
	if in.ShouldPanic(1) {
		t.Fatal("panic armed before threshold")
	}
	in.Arrival()
	if in.ShouldPanic(0) {
		t.Fatal("panic armed for wrong worker")
	}
	if !in.ShouldPanic(1) {
		t.Fatal("panic not armed at threshold")
	}
	if in.ShouldPanic(1) {
		t.Fatal("panic directive must be one-shot")
	}
	if in.TakeBurst() != 0 {
		t.Fatal("burst armed early")
	}
	in.Arrival()
	in.Arrival()
	if got := in.TakeBurst(); got != 16 {
		t.Fatalf("burst = %d, want 16", got)
	}
	if in.TakeBurst() != 0 {
		t.Fatal("burst must be consumed once")
	}
}

func TestInjectorPauseSuppressesReplay(t *testing.T) {
	in := NewInjector().PanicAt(0, 2)
	in.Arrival()
	in.Pause()
	for i := 0; i < 10; i++ {
		in.Arrival() // replayed pushes must not count
	}
	if in.ShouldPanic(0) {
		t.Fatal("paused injector must not fire")
	}
	in.Resume()
	in.Arrival()
	if !in.ShouldPanic(0) {
		t.Fatal("injector must resume counting after replay")
	}
}

// A nil injector is the production default: every entry point a worker or
// driver step calls unconditionally must be a no-op on it.
func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	in.Arrival()
	in.MaybeDelay(0)
	in.MaybePanic(0)
}

func TestParseInjectSpec(t *testing.T) {
	in, err := ParseInjectSpec("panic@shard1:tuple5000,delay@shard0:tuple10:5ms,burst@tuple20:64")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.dirs) != 3 {
		t.Fatalf("parsed %d directives, want 3", len(in.dirs))
	}
	d := in.dirs[0]
	if d.kind != injectPanic || d.worker != 1 || d.tuple != 5000 {
		t.Fatalf("bad panic directive: %+v", d)
	}
	d = in.dirs[1]
	if d.kind != injectDelay || d.dur != 5*time.Millisecond {
		t.Fatalf("bad delay directive: %+v", d)
	}
	d = in.dirs[2]
	if d.kind != injectBurst || d.n != 64 {
		t.Fatalf("bad burst directive: %+v", d)
	}
	in, err = ParseInjectSpec("delay@shard0:tuple10")
	if err != nil || len(in.dirs) != 1 || in.dirs[0].dur != 50*time.Millisecond {
		t.Fatalf("delay without a duration: %+v, %v; want the 50ms default", in, err)
	}
	for _, bad := range []string{
		"panic@tuple5", "boom@shard0:tuple1", "panic@shard0", "delay@shard0:tuple1:xs",
		// Specs that used to parse and arm a fault that never fires (or
		// fires nonsense): negative worker, tuple, burst length and
		// duration, and trailing fields.
		"panic@shard-1:tuple5", "panic@shard1:tuple-5", "burst@tuple5:-3", "burst@tuple-5:3",
		"delay@shard0:tuple5:-1s", "panic@shard1:tuple5:junk", "delay@shard0:tuple5:1ms:junk",
		"burst@tuple5:3:junk", "panic@shard99999999999:tuple5",
	} {
		if _, err := ParseInjectSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		} else if !strings.HasPrefix(err.Error(), "fault: inject spec ") {
			t.Errorf("spec %q: error %q lacks the fault: inject spec prefix", bad, err)
		}
	}
}

// FuzzParseInjectSpec pins that no spec string panics the parser and that
// whatever it accepts arms only faults that can fire: no negative worker,
// tuple, burst length or duration. The seeds here are the specs CI and the
// README use; the malformed ones are the corpus in testdata/fuzz.
func FuzzParseInjectSpec(f *testing.F) {
	for _, s := range []string{
		"panic@shard1:tuple5000", "panic@shard0:tuple100,burst@tuple200:64",
		"delay@shard0:tuple100:2ms", "delay@shard0:tuple10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := ParseInjectSpec(spec)
		if err != nil {
			if in != nil {
				t.Fatalf("spec %q: injector returned alongside error %v", spec, err)
			}
			return
		}
		for _, d := range in.dirs {
			if d.worker < 0 || d.tuple < 0 || d.n < 0 || d.dur < 0 {
				t.Fatalf("spec %q: accepted directive %+v", spec, d)
			}
		}
	})
}

func TestLifecycleClassification(t *testing.T) {
	if !Lifecycle("core: Push on a finished pipeline") {
		t.Fatal("string panics are lifecycle panics")
	}
	if Lifecycle(ErrInjected) {
		t.Fatal("error panics are not lifecycle panics")
	}
	we := &WorkerError{Worker: 2, Cause: ErrInjected}
	if !errors.Is(we, ErrInjected) {
		t.Fatal("WorkerError must unwrap to its cause")
	}
	je := &JoinError{Restarts: 3, Cause: we}
	if !errors.Is(je, ErrInjected) {
		t.Fatal("JoinError must unwrap through WorkerError")
	}
}
