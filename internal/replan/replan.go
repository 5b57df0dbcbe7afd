// Package replan closes the planning loop at runtime: it measures the
// statistics the cost model wants (per-stream arrival rates, per-edge
// selectivities) on the RUNNING join, re-plans each measurement period from
// those measured values, and — when the measured-cost winner differs from
// the deployed shape by enough margin for long enough — asks the runtime
// shell (plan.Supervised) to live-migrate at a boundary. The shell owns the
// arrival log and the exactly-once gate the migration replays behind.
//
// The controller is deliberately self-contained on the measurement side: it
// derives arrivals and the windowed selectivity estimate from the tuples it
// observes and the results the shell delivers, over its own re-planning
// period, rather than reading the executor's feedback loop.
//
// Hysteresis guards against thrashing twice over: a migration is proposed
// only if the candidate's measured cost beats the deployed shape's by the
// Improvement factor, and executed only after MinDwell stream-time has
// passed since the previous migration. Proposals wait for an adaptation
// boundary (the executor's quiesced decision point) before they fire, on
// every shape and policy.
package replan

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/plan"
	"repro/internal/stream"
)

// Options configures the re-planning loop. The zero value re-plans every
// minute of stream time with a 25% cost-improvement threshold and a dwell
// time of two periods.
type Options struct {
	// Hints seeds the cost model where no measurement exists yet (worker
	// budget, prior selectivity). Measured values override them.
	Hints plan.Hints
	// Period is the measurement/evaluation cadence in stream time.
	// Default: one minute.
	Period stream.Time
	// MinDwell is the minimum stream time between two migrations.
	// Default: 2×Period.
	MinDwell stream.Time
	// Improvement is the cost-ratio hysteresis: migrate only if
	// cost(candidate)·Improvement ≤ cost(deployed). Default: 1.25.
	Improvement float64
	// OnEvent observes every completed migration.
	OnEvent func(Event)
}

// Event describes one completed live migration.
type Event struct {
	// From and To are the shape signatures of the old and new deployment.
	From, To string
	// At is the stream-time boundary the migration quiesced at.
	At stream.Time
	// Horizon is the replay horizon; arrivals with TS ≥ Horizon re-ran.
	Horizon stream.Time
	// Replayed is the number of replayed arrivals; Suppressed the number of
	// regenerations the gate matched against prior deliveries; InFlight the
	// number of boundary-in-flight results the replay delivered.
	Replayed   int
	Suppressed int64
	InFlight   int64
	// Pause is the wall-clock time the migration stalled the driver.
	Pause time.Duration
	// FromCost and ToCost are the measured-cost scalars that justified the
	// move; FromExplain and ToExplain render both plan graphs.
	FromCost, ToCost       float64
	FromExplain, ToExplain string
}

// Controller runs the measure → re-plan → migrate loop for one join. It is
// the plan.Replanner of the join's shell, driven from the driver thread,
// and is not safe for concurrent use.
type Controller struct {
	opt Options

	// Self-measured stream statistics.
	arr []int64     // arrivals per stream, ever; nil until the first arrival
	now stream.Time // the largest timestamp observed

	// Windowed estimator registers (values at the last evaluation).
	lastEval stream.Time
	prevArr  []int64
	prevDel  int64
	ms       plan.Measured

	// Hysteresis registers.
	lastMigrate stream.Time
	pending     *plan.Graph
	pendCost    [2]float64 // [deployed, candidate] at proposal time
}

// New returns a controller; hand it to the shell as SuperviseConfig.Replan.
func New(opt Options) *Controller {
	if opt.Period <= 0 {
		opt.Period = stream.Minute
	}
	if opt.MinDwell <= 0 {
		opt.MinDwell = 2 * opt.Period
	}
	if opt.Improvement <= 1 {
		opt.Improvement = 1.25
	}
	return &Controller{opt: opt}
}

// Period is the re-planning cadence.
func (c *Controller) Period() stream.Time { return c.opt.Period }

// Measured returns the most recent measured statistics handed to the
// planner (nil rates before the first evaluation).
func (c *Controller) Measured() plan.Measured { return c.ms }

// Step observes one admitted arrival and runs the control loop once: close
// a measurement window every Period, and fire a pending proposal at a
// boundary.
func (c *Controller) Step(s *plan.Supervised, t *stream.Tuple, boundary bool) {
	if c.arr == nil {
		m := len(s.Graph().Windows)
		c.arr, c.prevArr = make([]int64, m), make([]int64, m)
		c.now, c.lastEval, c.lastMigrate = t.TS, t.TS, t.TS
	}
	c.arr[t.Src]++
	c.now = max(c.now, t.TS)
	if c.pending == nil && c.now-c.lastEval >= c.opt.Period {
		c.evaluate(s)
	}
	if c.pending != nil && boundary {
		c.migrate(s)
	}
}

// evaluate closes one measurement window, re-estimates rates and per-edge
// selectivity, re-plans from the measured values, and proposes a migration
// if the hysteresis gate passes.
func (c *Controller) evaluate(s *plan.Supervised) {
	g := s.Graph()
	span := c.now - c.lastEval
	dArr := make([]int64, len(c.arr))
	rates := make([]float64, len(c.arr))
	for i, a := range c.arr {
		dArr[i] = a - c.prevArr[i]
		rates[i] = float64(dArr[i]) / float64(span)
	}
	del := s.Results()
	dRes := del - c.prevDel
	c.lastEval = c.now
	copy(c.prevArr, c.arr)
	c.prevDel = del

	c.ms.Rates = rates
	if edges := plan.MeasureEdges(g.Cond, g.Windows, dArr, rates, dRes); edges != nil {
		c.ms.Edges = edges
	}

	cand := plan.AutoMeasured(g.Cond, g.Windows, c.opt.Hints, &c.ms)
	if plan.ShapeString(cand) == plan.ShapeString(g) {
		return
	}
	costCur := plan.CostOf(g, c.opt.Hints, &c.ms)
	costNew := plan.CostOf(cand, c.opt.Hints, &c.ms)
	if costNew*c.opt.Improvement > costCur {
		return
	}
	if c.now-c.lastMigrate < c.opt.MinDwell {
		return
	}
	c.pending = cand
	c.pendCost = [2]float64{costCur, costNew}
}

// migrate asks the shell to execute the pending proposal at the current
// boundary.
func (c *Controller) migrate(s *plan.Supervised) {
	from, target := s.Graph(), c.pending
	start := time.Now()
	rep, err := s.Migrate(target)
	if err != nil {
		// A log pruned short of this boundary's horizon, or a recovered
		// worker failure: the old executor still runs. Keep the proposal —
		// clocks advance, so a later boundary retries. A terminal failure
		// stops the join, and the loop with it.
		if s.Err() != nil || errors.Is(err, plan.ErrReplayShallow) || errors.Is(err, plan.ErrMigrationInterrupted) {
			return
		}
		panic(fmt.Sprintf("replan: migration %s→%s failed: %v", rep.FromShape, rep.ToShape, err))
	}
	ev := Event{
		From: rep.FromShape, To: rep.ToShape,
		At: c.now, Horizon: rep.Horizon,
		Replayed: rep.Replayed, Suppressed: rep.Suppressed, InFlight: rep.Delivered,
		Pause:    time.Since(start),
		FromCost: c.pendCost[0], ToCost: c.pendCost[1],
		FromExplain: from.Explain(), ToExplain: target.Explain(),
	}
	c.pending = nil
	c.lastMigrate = c.now
	if c.opt.OnEvent != nil {
		c.opt.OnEvent(ev)
	}
}
