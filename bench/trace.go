package main

import (
	"time"

	qdhj "repro"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/join"
	"repro/internal/kslack"
	"repro/internal/stream"
	"repro/internal/syncer"
)

// Span names, one per call across a layer seam. Spans nest as
//
//	driver.push ⊃ stats.observe, kslack.push ⊃ syncer.push ⊃ join.process ⊃ {profiler.record, monitor.add, sink.emit}
//	driver.push ⊃ feedback.decideat ⊃ adapt.search, kslack.setk ⊃ syncer.push ⊃ …
type spanID int

const (
	spDriverPush spanID = iota
	spStatsObserve
	spKslackPush
	spSyncerPush
	spJoinProcess
	spProfilerRecord
	spMonitorAdd
	spSinkEmit
	spFeedbackDecideAt
	spAdaptSearch
	spKslackSetK
	numSpans
)

var spanNames = [numSpans]string{
	"driver.push", "stats.observe", "kslack.push", "syncer.push", "join.process",
	"profiler.record", "monitor.add", "sink.emit", "feedback.decideat", "adapt.search", "kslack.setk",
}

// sampleStride is how many pushes share one timed push. A span costs two
// clock reads, ~75 ns here, and a push crosses seven seams: timing every push
// would double the 0.6 µs a NoSlack push takes. A prime stride keeps the
// sample from locking onto one stream of a round-robin feed. Boundary
// pushes, which run a decision, are always timed, at weight 1.
const sampleStride = 31

// spanAgg is the weighted sum of one span name, in nanoseconds.
type spanAgg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// tracer aggregates spans in memory. A span's self time is its duration
// minus its children's; a span opened while the tracer is armed with weight
// w stands for w like it. The tracer's own cost is calibrated and taken out
// of the self times: costIn is what an empty span measures of itself, costOut
// what it adds to its parent.
type tracer struct {
	epoch           time.Time
	on              bool
	w               int64
	costIn, costOut int64
	depth           int
	stack           [16]struct {
		id           spanID
		start, child int64
	}
	agg [numSpans]spanAgg
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	const n = 20000
	t.arm(true, 1)
	t.begin(0)
	for i := 0; i < n; i++ {
		t.begin(1)
		t.end()
	}
	full := t.end() / n
	in := t.agg[1].Total / n
	*t = tracer{epoch: t.epoch, costIn: in, costOut: full - in}
	return t
}

func (t *tracer) arm(on bool, w int64) { t.on, t.w = on, w }

// begin and end are small enough to inline, so an untimed push pays one
// branch per seam.
func (t *tracer) begin(id spanID) {
	if t.on {
		t.open(id)
	}
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	if t.on {
		return t.close()
	}
	return 0
}

func (t *tracer) open(id spanID) {
	f := &t.stack[t.depth]
	f.id, f.child, f.start = id, 0, int64(time.Since(t.epoch))
	t.depth++
}

func (t *tracer) close() int64 {
	t.depth--
	f := &t.stack[t.depth]
	d := int64(time.Since(t.epoch)) - f.start
	t.add(f.id, d, d-f.child-t.costIn, t.costOut)
	return d
}

// child records a span the callee timed itself, as a child of the open span.
func (t *tracer) child(id spanID, d int64) { t.add(id, d, d, 0) }

func (t *tracer) add(id spanID, d, self, costOut int64) {
	a := &t.agg[id]
	a.Count += t.w
	a.Total += t.w * d
	a.Self += t.w * self
	if t.depth > 0 {
		t.stack[t.depth-1].child += d + costOut
	}
}

// decision is the raw record of one boundary push.
type decision struct {
	At         stream.Time `json:"at"`
	NewK       stream.Time `json:"new_k"`
	GammaPrime float64     `json:"gamma_prime"`
	DecideAtNs int64       `json:"decideat_ns"`
	SearchNs   int64       `json:"search_ns"`
	SetKNs     int64       `json:"setk_ns"`
}

// tracedPipe is the flat pipeline wired from the layer packages' public
// constructors exactly as core.New / Push / adaptStep / Finish wire it
// (unsharded, unbatched), with a span around every call across a seam.
type tracedPipe struct {
	tr    *tracer
	loop  *feedback.Loop
	ks    []*kslack.Buffer
	sync  *syncer.Synchronizer
	op    *join.Operator
	model *adapt.Model

	pushed, results, delivered int64
	decisions                  []decision

	// Counts taken where the work happens.
	late, inOrder, sumCross, sumOn int64
	samples, bufSum                int64
	bufMax, syncMax                int
	histSum, winSum                float64
}

func newTracedPipe(in *instance, tr *tracer) *tracedPipe {
	p := &tracedPipe{tr: tr}
	pf := core.ModelPolicy()
	if in.opt.Policy == qdhj.NoSlack {
		pf = core.NoKPolicy()
	}
	acfg := adapt.Config{
		Gamma: in.gamma(), P: in.opt.Period, L: in.opt.Interval,
		B: in.opt.BasicWindow, G: in.opt.Granularity,
		Strategy: in.opt.Strategy, Search: in.opt.Search,
	}.Normalize()
	p.loop = feedback.New(feedback.Config{Windows: in.windows, Adapt: acfg, Policy: core.FeedbackPolicy(pf)})
	p.model = p.loop.Model(0)

	opts := []join.Option{join.WithProcessedHook(p.onProcessed), join.WithCountEmit(p.onResultCount)}
	if in.sink == sinkResults {
		opts = append(opts, join.WithEmit(func(stream.Result) {
			tr.begin(spSinkEmit)
			p.delivered++
			tr.end()
		}))
	}
	p.op = join.New(in.cond, in.windows, opts...)
	p.sync = syncer.New(len(in.windows), func(e *stream.Tuple) {
		tr.begin(spJoinProcess)
		p.op.Process(e)
		tr.end()
	})
	p.ks = make([]*kslack.Buffer, len(in.windows))
	for i := range p.ks {
		p.ks[i] = kslack.New(0, func(e *stream.Tuple) {
			tr.begin(spSyncerPush)
			p.sync.Push(e)
			tr.end()
		})
	}
	return p
}

func (p *tracedPipe) onResultCount(ts stream.Time, n int64) {
	p.results += n
	p.tr.begin(spMonitorAdd)
	p.loop.ObserveResult(ts, n)
	p.tr.end()
}

func (p *tracedPipe) onProcessed(e *stream.Tuple, nCross, nOn int64, inOrder bool) {
	p.tr.begin(spProfilerRecord)
	if inOrder {
		p.loop.RecordInOrder(0, e.Delay, nCross, nOn)
	} else {
		p.loop.RecordOutOfOrder(0, e.Delay)
	}
	p.tr.end()
	if inOrder {
		p.inOrder++
		p.sumCross += nCross
		p.sumOn += nOn
	}
}

func (p *tracedPipe) Push(e *stream.Tuple) {
	tr := p.tr
	tr.arm(p.pushed%sampleStride == 0, sampleStride)
	p.pushed++
	tr.begin(spDriverPush)
	tr.begin(spStatsObserve)
	now := p.loop.Observe(e)
	tr.end()
	tr.begin(spKslackPush)
	p.ks[e.Src].Push(e)
	tr.end()
	at, ok := p.loop.Boundary(now)
	tr.end()
	if e.Delay > 0 {
		p.late++
	}
	if tr.on {
		buffered := 0
		for _, k := range p.ks {
			buffered += k.Len()
		}
		p.samples++
		p.bufSum += int64(buffered)
		p.bufMax = max(p.bufMax, buffered)
		p.syncMax = max(p.syncMax, p.sync.Len())
	}
	if ok {
		p.adaptStep(at)
	}
}

func (p *tracedPipe) adaptStep(at stream.Time) {
	tr := p.tr
	for i := range p.ks {
		p.histSum += float64(p.loop.Stats().HistoryLen(i)) / float64(len(p.ks))
		p.winSum += float64(p.op.WindowLen(i)) / float64(len(p.ks))
	}
	outT := p.op.HighWatermark()
	d := decision{At: at}
	var search0 time.Duration
	if p.model != nil {
		_, _, search0 = p.model.AdaptStats()
	}
	tr.arm(true, 1)
	tr.begin(spDriverPush)
	tr.begin(spFeedbackDecideAt)
	newK := p.loop.DecideAt(at, outT)[0]
	if p.model != nil {
		_, _, search1 := p.model.AdaptStats()
		d.SearchNs = int64(search1 - search0)
		d.GammaPrime = p.model.LastGammaPrime()
		tr.child(spAdaptSearch, d.SearchNs)
	}
	d.DecideAtNs = tr.end()
	tr.begin(spKslackSetK)
	for _, k := range p.ks {
		k.SetK(newK)
	}
	d.SetKNs = tr.end()
	tr.end()
	d.NewK = newK
	p.decisions = append(p.decisions, d)
}

func (p *tracedPipe) Finish() {
	tr := p.tr
	tr.arm(true, 1)
	tr.begin(spDriverPush)
	for _, k := range p.ks {
		k.Flush()
	}
	for i := range p.ks {
		p.sync.Close(i)
	}
	tr.end()
}
