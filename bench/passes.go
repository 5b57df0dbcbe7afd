package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	qdhj "repro"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// samples is a set of per-pass measurements of one metric.
type samples []float64

// quantile returns the q-quantile by linear interpolation; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

// iqrFrac is the interquartile distance as a share of the median.
func (s samples) iqrFrac() float64 {
	if m := s.median(); m != 0 {
		return (s.quantile(0.75) - s.quantile(0.25)) / math.Abs(m)
	}
	return 0
}

// check is one built-in output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// quality is what the untimed reference pass of an instance yields: the
// paper's quality and latency numbers, exact for a seed, and the result
// count and K trajectory every other pass must reproduce.
type quality struct {
	results     int64
	avgK        float64
	ks          []stream.Time // NewK of every adaptation
	stageKSum   []float64     // per decision scope, Σ CurrentKs over decisions
	recallMean  float64
	phi         float64
	lagMs       float64
	adaptations int64
}

// segments is how many equal slices of the feed a pass clocks separately.
const segments = 16

// perSegment holds one duration per slice of the feed.
type perSegment [segments]time.Duration

// timed is one timed repeat: wall and CPU time from the first Push to Close
// returning, the same per slice of the feed (Close belongs to the last), and
// the allocations in between.
type timed struct {
	wall, cpu       time.Duration
	segWall, segCPU perSegment
	mallocs, bytes  uint64
}

// pushTimes is one latency pass: per slice of the feed, the summed times of
// its fastest 99 % of pushes and of its slowest 1 %.
type pushTimes struct{ typical, tail perSegment }

// undisturbed estimates what the n passes take when nothing else runs on the
// machine. Every pass does the same work on the same slice of the feed, and
// the machine's other tenants only ever slow it down, so the fastest pass
// over each slice is the one they disturbed least; the estimate is the sum
// of those over the slices. Their disturbances come and go within tens of
// milliseconds, far less than a pass, which is why this is steadier than the
// fastest whole pass (README.md has the measurements). Slices are kept this
// coarse because what a pass itself does at varying places, garbage
// collection above all, must stay in, and finer ones only lower the reading
// without steadying it.
func undisturbed(n int, pass func(i int) *perSegment) time.Duration {
	var sum time.Duration
	for s := 0; s < segments; s++ {
		best := pass(0)[s]
		for i := 1; i < n; i++ {
			best = min(best, pass(i)[s])
		}
		sum += best
	}
	return sum
}

// run carries one workload through its passes and collects the samples.
type run struct {
	w        *workload
	in       *instance
	tuples   int
	setups   samples // s
	builds   samples // µs
	ref      quality
	twinRef  *quality // shell workloads whose checks need the flat twin
	checks   []check
	attempts int64
	failed   int64

	plain     []timed
	twinPlain []timed
	// One per latency pass: the per-slice sums, their means over the pass in
	// µs (of the fastest 99 % of each slice's pushes and of the slowest 1 %),
	// and the order statistics reported per layer.
	pushes                      []pushTimes
	typical, tail               samples
	p50, p99, p999, p9999, pMax samples
	stateMB                     samples
	lat                         []int64

	migrations  []qdhj.MigrationEvent // of the last pass
	checkpoints int
	ckptTime    time.Duration
	restarts    int

	tracer     *tracer
	tracedWall samples // s
	pipe       *tracedPipe
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newRun sets the workload up (several times, for a steady set-up time) and
// runs its quality pass.
func newRun(w *workload, seed int64, minutes float64, setups int) *run {
	r := &run{w: w}
	for i := 0; i < setups; i++ {
		r.in = nil
		runtime.GC()
		in, d := w.setup(seed, minutes)
		r.in = in
		r.setups = append(r.setups, d.Seconds())
		r.builds = append(r.builds, float64(in.buildTime)/1e3)
	}
	r.tuples = len(r.in.feed)
	r.lat = make([]int64, r.tuples)
	r.ref = r.quality(r.in)
	total := r.in.truth.Total()
	r.check("produced ≤ oracle total", r.ref.results <= total, fmt.Sprintf("%d > %d", r.ref.results, total))
	return r
}

func (r *run) check(name string, ok bool, detail string) {
	if ok {
		detail = ""
	}
	for i := range r.checks {
		if r.checks[i].Name == name {
			if r.checks[i].OK {
				r.checks[i].OK, r.checks[i].Detail = ok, detail
			}
			return
		}
	}
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: detail})
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return r.failed == 0
}

// push feeds one tuple the way the workload does and returns 1 if the join
// refused it.
func (in *instance) push(j *qdhj.Join, e *stream.Tuple) int64 {
	if !in.tryPush {
		j.Push(e)
	} else if j.TryPush(e) != nil {
		return 1
	}
	return 0
}

// finish accounts a closed join's pass: what a user would call a failure is
// a refused push, a shed tuple or a terminal error.
func (r *run) finish(in *instance, j *qdhj.Join, fails int64) {
	fails += j.Dropped()
	if j.Err() != nil {
		fails++
	}
	r.attempts += int64(len(in.feed))
	r.failed += fails
	r.check("fail_frac == 0", fails == 0, fmt.Sprintf("%d failures, err=%v", fails, j.Err()))
}

// sinkOption installs the workload's sink, counting what reaches it.
func sinkOption(kind sinkKind, delivered *int64) []qdhj.JoinOption {
	switch kind {
	case sinkCounts:
		return []qdhj.JoinOption{qdhj.WithResultCounts(func(_ qdhj.Time, n int64) { *delivered += n })}
	case sinkResults:
		return []qdhj.JoinOption{qdhj.WithResults(func(qdhj.Result) { *delivered++ })}
	}
	return nil
}

// sameResults checks a pass against the reference pass of its instance.
func (r *run) sameResults(pass string, in *instance, ref *quality, results, delivered int64) {
	r.check("result count identical across passes", results == ref.results,
		fmt.Sprintf("%s pass produced %d, quality pass %d", pass, results, ref.results))
	if in.sink != sinkNone {
		r.check("delivered == Results()", delivered == results,
			fmt.Sprintf("%s pass delivered %d of %d", pass, delivered, results))
		if delivered < results {
			r.failed += results - delivered
		}
	}
}

// quality runs the untimed reference pass: results go to a recall tracker
// against the oracle truth, γ(P) is measured at every adaptation (anchored at
// the output watermark), and each result's lag behind the newest input
// timestamp is averaged.
func (r *run) quality(in *instance) quality {
	var q quality
	p := in.period()
	tracker := metrics.NewRecallTracker(p, in.truth)
	series := metrics.NewSeries(p)
	var now stream.Time
	var lagSum, delivered float64
	var j *qdhj.Join
	opts := []qdhj.JoinOption{qdhj.WithAdaptHook(func(ev qdhj.AdaptEvent) {
		if g, ok := tracker.Measure(ev.OutT); ok {
			series.Add(ev.OutT, g)
		}
		q.ks = append(q.ks, ev.NewK)
		ks := j.CurrentKs()
		switch {
		case q.stageKSum == nil:
			q.stageKSum = make([]float64, len(ks))
		case len(ks) != len(q.stageKSum):
			// A migration changed the number of decision scopes: a per-stage
			// average has no meaning across shapes.
			q.stageKSum = q.stageKSum[:0]
		}
		for i := range q.stageKSum {
			q.stageKSum[i] += float64(ks[i])
		}
	})}
	if in.sink == sinkResults {
		opts = append(opts, qdhj.WithResults(func(res qdhj.Result) {
			tracker.AddResult(res.TS)
			lagSum += float64(now - res.TS)
			delivered++
		}))
	} else {
		opts = append(opts, qdhj.WithResultCounts(func(ts qdhj.Time, n int64) {
			tracker.AddResults(ts, n)
			lagSum += float64(now-ts) * float64(n)
			delivered += float64(n)
		}))
	}
	j = in.newJoin(nil, opts...)
	var fails int64
	for _, e := range in.feed.Clone() {
		now = max(now, e.TS)
		fails += in.push(j, e)
	}
	j.Close()
	r.finish(in, j, fails)

	q.results = j.Results()
	q.avgK = j.AvgK()
	q.adaptations = j.Adaptations()
	q.recallMean = series.Mean()
	q.phi, _ = series.Phi(in.gamma())
	if delivered > 0 {
		q.lagMs = lagSum / delivered
	}
	r.check("delivered == Results()", int64(delivered) == q.results,
		fmt.Sprintf("quality pass delivered %.0f of %d", delivered, q.results))
	return q
}

// timedPass is one timed repeat with nothing installed but the workload's
// own sink. The feed clone and a full GC stay outside the timed region.
func (r *run) timedPass(in *instance, ref *quality) timed {
	batch := in.feed.Clone()
	var delivered int64
	var migrations []qdhj.MigrationEvent
	j := in.newJoin(func(ev qdhj.MigrationEvent) { migrations = append(migrations, ev) }, sinkOption(in.sink, &delivered)...)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var t timed
	var fails int64
	n := len(batch)
	c0 := cpuTime()
	t0 := time.Now()
	for s := 0; s < segments; s++ {
		for _, e := range batch[s*n/segments : (s+1)*n/segments] {
			fails += in.push(j, e)
		}
		if s == segments-1 {
			j.Close()
		}
		wall, cpu := time.Since(t0), cpuTime()-c0
		t.segWall[s], t.segCPU[s] = wall-t.wall, cpu-t.cpu
		t.wall, t.cpu = wall, cpu
	}
	runtime.ReadMemStats(&m1)
	r.finish(in, j, fails)
	t.mallocs, t.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if in == r.in {
		r.migrations = migrations
		r.checkpoints, r.ckptTime, r.restarts = j.Checkpoints(), j.CheckpointTime(), j.Restarts()
	}
	r.sameResults("timed", in, ref, j.Results(), delivered)
	return t
}

// stateSamples is how many times a latency pass measures the join's state.
const stateSamples = 8

// liveHeap returns the live heap after a full collection.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// latencyPass times every Push (one clock read per push: the end of one is
// the start of the next) and measures the state the join retains: live heap
// at stateSamples evenly spaced points of the input, the last one at end of
// input before Close, above the heap without the pass. Pushed tuples are
// dropped from the batch as it goes, so a tuple stays live only while the
// join holds it; the tuples not yet pushed are subtracted at their share of
// the clone's size.
func (r *run) latencyPass() {
	in := r.in
	before := liveHeap()
	batch := in.feed.Clone()
	n := len(batch)
	tuple := (liveHeap() - before - float64(8*n)) / float64(n) // heap bytes of one cloned tuple
	var delivered int64
	j := in.newJoin(nil, sinkOption(in.sink, &delivered)...)
	runtime.GC()
	var fails int64
	var heaps [stateSamples]float64
	lat, every := r.lat, n/stateSamples
	epoch := time.Now()
	t := time.Since(epoch)
	for i, e := range batch {
		fails += in.push(j, e)
		batch[i] = nil
		now := time.Since(epoch)
		lat[i] = int64(now - t)
		t = now
		if k := (i + 1) / every; (i+1)%every == 0 && k <= stateSamples {
			heaps[k-1] = liveHeap() - tuple*float64(n-i-1)
			t = time.Since(epoch)
		}
	}
	j.Close()
	r.finish(in, j, fails)
	r.sameResults("latency", in, &r.ref, j.Results(), delivered)
	j = nil
	// The heap without the pass, with the emptied batch still live, is the
	// lower of the readings before and after it: what an earlier pass's
	// exiting goroutines still held inflates the first, this pass's own the
	// second.
	without := min(before+float64(8*n), liveHeap())
	runtime.KeepAlive(batch)
	var state float64
	for _, h := range heaps {
		state += (h - without) / stateSamples
	}

	var pt pushTimes
	for s := 0; s < segments; s++ {
		seg := lat[s*n/segments : (s+1)*n/segments]
		slices.Sort(seg)
		for i, v := range seg {
			if i < tailStart(len(seg)) {
				pt.typical[s] += time.Duration(v)
			} else {
				pt.tail[s] += time.Duration(v)
			}
		}
	}
	r.pushes = append(r.pushes, pt)
	typical, tail := r.pushMeans([]pushTimes{pt})
	r.typical = append(r.typical, typical)
	r.tail = append(r.tail, tail)
	slices.Sort(lat)
	at := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e3 }
	r.p50 = append(r.p50, at(0.5))
	r.p99 = append(r.p99, at(0.99))
	r.p999 = append(r.p999, at(0.999))
	r.p9999 = append(r.p9999, at(0.9999))
	r.pMax = append(r.pMax, at(1))
	r.stateMB = append(r.stateMB, state/(1<<20))
}

// tailStart is how many of a slice's n sorted push times count as typical;
// the rest, the slowest 1 %, are its tail.
func tailStart(n int) int { return n - max(n/100, 1) }

// pushMeans returns the mean typical and tail push time over the given
// latency passes, undisturbed, in µs.
func (r *run) pushMeans(ps []pushTimes) (typical, tail float64) {
	var nTypical int
	for s := 0; s < segments; s++ {
		nTypical += tailStart((s+1)*r.tuples/segments - s*r.tuples/segments)
	}
	typ := undisturbed(len(ps), func(i int) *perSegment { return &ps[i].typical })
	tl := undisturbed(len(ps), func(i int) *perSegment { return &ps[i].tail })
	return float64(typ) / 1e3 / float64(nTypical), float64(tl) / 1e3 / float64(r.tuples-nTypical)
}

// tracedPass feeds the re-wired, span-instrumented flat pipeline and checks
// that it ends where the quality pass did — the equality that licenses
// reading its shares as the real pipeline's.
func (r *run) tracedPass() {
	in := r.in
	batch := in.feed.Clone()
	if r.tracer == nil {
		r.tracer = newTracer()
	}
	p := newTracedPipe(in, r.tracer)
	runtime.GC()
	t0 := time.Now()
	for _, e := range batch {
		p.Push(e)
	}
	p.Finish()
	r.tracedWall = append(r.tracedWall, time.Since(t0).Seconds())
	r.pipe = p
	r.attempts += int64(len(batch))

	ks := make([]stream.Time, len(p.decisions))
	for i, d := range p.decisions {
		ks[i] = d.NewK
	}
	same := p.results == r.ref.results && p.loop.AvgK(0) == r.ref.avgK && slices.Equal(ks, r.ref.ks)
	r.check("traced ≡ quality pass (count, AvgK, K trajectory)", same,
		fmt.Sprintf("traced %d results avgK %v %d decisions, quality %d / %v / %d",
			p.results, p.loop.AvgK(0), len(ks), r.ref.results, r.ref.avgK, len(r.ref.ks)))
	if in.sink == sinkResults {
		r.check("delivered == Results()", p.delivered == p.results,
			fmt.Sprintf("traced pass delivered %d of %d", p.delivered, p.results))
	}
}

// twinChecks runs the flat twin's quality pass where a workload's
// correctness is defined against it.
func (r *run) twinChecks() {
	if !r.w.equalsTwin && !r.w.migrates {
		return
	}
	q := r.quality(r.in.twin())
	r.twinRef = &q
	if r.w.equalsTwin {
		same := q.results == r.ref.results && slices.Equal(q.ks, r.ref.ks)
		r.check("count and K trajectory == flat twin", same,
			fmt.Sprintf("%d results / %d decisions, flat %d / %d", r.ref.results, len(r.ref.ks), q.results, len(q.ks)))
	}
	if r.w.migrates {
		r.check("recall within 0.01 of flat twin", math.Abs(q.recallMean-r.ref.recallMean) <= 0.01,
			fmt.Sprintf("replan %.4f, flat %.4f", r.ref.recallMean, q.recallMean))
	}
}

// step runs the next measured pass: timed repeats and latency passes
// alternate.
func (r *run) step() {
	if n := len(r.plain) + len(r.p99); n%2 == 1 {
		r.latencyPass()
	} else {
		r.plain = append(r.plain, r.timedPass(r.in, &r.ref))
	}
}

func (r *run) steps() int { return len(r.plain) + len(r.p99) }

// traceStep alternates an untraced timed repeat with a traced pass (flat
// workloads) or with a timed repeat of the flat twin (shell workloads).
func (r *run) traceStep() {
	r.plain = append(r.plain, r.timedPass(r.in, &r.ref))
	if r.in.flat() {
		r.tracedPass()
		return
	}
	twin := r.in.twin()
	if r.twinRef == nil {
		q := r.quality(twin)
		r.twinRef = &q
	}
	r.twinPlain = append(r.twinPlain, r.timedPass(twin, r.twinRef))
}

// endChecks are the checks that need the run's last pass.
func (r *run) endChecks() {
	if r.w.migrates {
		r.check("≥ 1 migration", len(r.migrations) >= 1, "no migration happened")
	}
}
