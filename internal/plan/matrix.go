package plan

// The option matrix (DESIGN.md §9): every pair of deployment features that
// does not combine, in one list. qdhj's NewJoin and Restore, Build,
// NewSupervisedRestore and qdhjrun's flag check all refuse through
// Feature.Refuse, each under its own spelling of the feature names.

import (
	"fmt"
	"math/bits"
)

// Feature is one deployment feature; a set of features is their union.
type Feature uint8

// The deployment features, spelled by names.
const (
	Restored Feature = 1 << iota
	Sharded
	Remote
	Planned
	TreePlanned // always with Planned
	Injected
	Replanned
)

// Surface selects a spelling of the feature names.
type Surface int

// The qdhj options and the qdhjrun flags.
const (
	API Surface = iota
	CLI
)

var names = [...][2]string{
	{"Restore", "-restore"},
	{"WithShards", "-shards"},
	{"WithRemoteWorkers", "-workers"},
	{"WithPlan", "-plan"},
	{"WithPlan with a tree shape", "a tree-shaped -plan"},
	{"WithInjector", "-inject"},
	{"WithOnlineReplan", "-replan"},
}

// Name spells a single feature on surface s.
func (f Feature) Name(s Surface) string { return names[bits.TrailingZeros8(uint8(f))][s] }

// If returns f when on holds and no feature otherwise.
func (f Feature) If(on bool) Feature {
	if on {
		return f
	}
	return 0
}

// Refusal is one pair of features that does not combine, and why.
type Refusal struct {
	A, B   Feature
	Reason string
}

// Matrix lists every refused pair of features; a pair it does not list
// combines.
var Matrix = []Refusal{
	{Planned, Sharded, "the plan fixes the shard count; write it into the plan (ParsePlan \"shard:N\", \"tree-shard:N\" or an xN suffix)"},
	{TreePlanned, Remote, "remote workers execute only flat shapes, since tree stages own window state the driver cannot retain for checkpointing; plan a flat or sharded-flat shape"},
	{Injected, Remote, "driver-side injection never reaches a remote worker process; arm the fault on the daemon, qdhjd -inject"},
	{Replanned, Restored, "the restored log holds no arrival from before the snapshot, so no migration could replay it; restore the snapshot's own shape, or re-plan a fresh join"},
	{Replanned, Remote, "remote workers pin the sharded flat shape, and a live migration would change it"},
}

// Refuse judges a deployment with the features in set, a flat shape of
// shards shards (0: unsharded) and addrs worker addresses. It returns the
// first row of Matrix whose both features are in set, else the one rule
// beside the table — a sharded flat shape runs one worker per address,
// its count set by WithPlan if set holds it and by WithShards otherwise —
// or nil when the deployment combines.
func (set Feature) Refuse(shards, addrs int) *Refusal {
	for i := range Matrix {
		if r := &Matrix[i]; set&r.A != 0 && set&r.B != 0 {
			return r
		}
	}
	if addrs == 0 || shards <= 0 || shards == addrs {
		return nil
	}
	by := Sharded
	if set&Planned != 0 {
		by = Planned
	}
	return &Refusal{by, Remote, fmt.Sprintf("%d shards need %d worker addresses, one per shard, and %d were given", shards, shards, addrs)}
}

// Message spells the refusal on surface s.
func (r *Refusal) Message(s Surface) string {
	return fmt.Sprintf("%s cannot be combined with %s — %s", r.A.Name(s), r.B.Name(s), r.Reason)
}
