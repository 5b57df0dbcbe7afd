package qdhj

// Online re-planning: the deployment planner run continuously. Where
// AutoPlan picks a shape once from pre-run hints, WithOnlineReplan measures
// the statistics the cost model wants — per-stream arrival rates and
// per-edge selectivities — on the running join, re-plans every measurement
// period, and live-migrates the executor across shapes when the measured
// winner beats the deployed shape by enough margin for long enough. The
// migration preserves exactly-once delivery: the result stream a sink
// observes is the same multiset an uninterrupted run would deliver.

import (
	"repro/internal/plan"
	"repro/internal/replan"
)

// MigrationEvent reports one completed live plan migration: the old and new
// shape signatures, the stream-time boundary it quiesced at, the replay
// depth, and the wall-clock pause it imposed on the driver. FromExplain and
// ToExplain carry the full Explain rendering of both plans.
type MigrationEvent = replan.Event

// ReplanOptions configures WithOnlineReplan. The zero value measures over
// one-minute periods, requires a 25% modeled-cost improvement, and dwells
// at least two periods between migrations.
type ReplanOptions struct {
	// Hints seeds the cost model where nothing is measured yet; measured
	// values override the hinted ones as they become available.
	Hints PlanHints
	// Period is the measurement/re-planning cadence in stream time
	// (default: one minute, the paper's measurement period default).
	Period Time
	// MinDwell is the minimum stream time between two migrations
	// (default: 2×Period).
	MinDwell Time
	// Improvement is the cost-ratio hysteresis: migrate only when the
	// candidate's modeled cost times Improvement still undercuts the
	// deployed shape's (default: 1.25).
	Improvement float64
	// OnMigrate observes every completed migration.
	OnMigrate func(MigrationEvent)
}

// WithOnlineReplan turns on online re-planning. The join starts on its
// configured deployment (WithPlan, WithAutoPlan, WithShards, or the flat
// default) and migrates between plannable shapes as the measured statistics
// move.
//
// The join runs behind the same runtime shell as WithSupervision: one
// arrival log and one exactly-once gate serve both crash recovery and
// migration, so the two compose — as do WithIngestBound and WithInjector,
// whose injector stays paused while a migration replays. Results are
// delivered through the gate, so the join always materializes them even
// when only WithResultCounts is registered, which then sees one count per
// delivered result. WithOnlineReplan cannot be combined with
// WithRemoteWorkers (remote workers pin the sharded flat shape), and
// Restore does not take it; both panic at construction.
func WithOnlineReplan(o ReplanOptions) JoinOption {
	return func(jo *joinOpts) { jo.replan = &o }
}

// newController wires the re-planning loop of one NewJoin call.
func newController(o *ReplanOptions) *replan.Controller {
	return replan.New(replan.Options{
		Hints: plan.Hints{
			Shards:      o.Hints.Shards,
			Selectivity: o.Hints.Selectivity,
			Rates:       o.Hints.Rates,
		},
		Period:      o.Period,
		MinDwell:    o.MinDwell,
		Improvement: o.Improvement,
		OnEvent:     o.OnMigrate,
	})
}

// Migrations returns how many live plan migrations have completed; zero on
// joins without WithOnlineReplan.
func (j *Join) Migrations() int {
	if j.rt == nil {
		return 0
	}
	return j.rt.Migrations()
}

// CurrentPlan returns the currently deployed plan — the initial deployment,
// or the latest migration target under WithOnlineReplan.
func (j *Join) CurrentPlan() *Plan {
	if j.rt != nil {
		return &Plan{g: j.rt.Graph()}
	}
	return &Plan{g: j.g}
}
