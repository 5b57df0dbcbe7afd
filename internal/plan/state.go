package plan

// Checkpoint/restore at the executor seam. A checkpoint captures whichever
// engine the graph compiled to (flat pipeline or plan tree) plus the
// treeExec driver registers, tagged with a signature of the deployment
// identity — condition, windows, shape, policy. Restore refuses a snapshot
// whose signature disagrees with the target graph (fault.ErrRestoreMismatch)
// rather than silently rebuilding different state: the serialized window
// contents and K decisions are only meaningful under the exact deployment
// that produced them.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/stream"
)

// ExecState is the serializable state of a built executor. Exactly one of
// Flat, ATree is set, matching what the graph compiles to.
type ExecState struct {
	// Sig is the deployment signature the snapshot is valid for.
	Sig string
	// Tuples is the interned tuple table every EventRec index points into.
	Tuples []fault.TupleRec

	Flat *core.State // flat shapes (sharded or not)
	// ATree holds tree shapes, the loop included. A snapshot from when
	// static trees ran without one decodes with ATree nil, and Restore
	// refuses it.
	ATree *dist.AdaptiveTreeState

	// Tree driver registers (the treeExec adapter's own state).
	PrevMax stream.Time
	Pushed  bool
}

// Signature renders the deployment identity a checkpoint is bound to:
// condition fingerprint, windows, shape, and the buffer-sizing policy. Two
// graphs with equal signatures build executors with identical state shape
// and identical deterministic behavior (generic predicates contribute only
// their count — their code is not serializable, so swapping predicate
// bodies between checkpoint and restore is undetectable and on the caller).
func Signature(g *Graph, cfg ExecConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d", g.Cond.M)
	for _, e := range g.Cond.Equis {
		fmt.Fprintf(&b, ";eq%d.%d=%d.%d", e.LeftStream, e.LeftAttr, e.RightStream, e.RightAttr)
	}
	for _, bd := range g.Cond.Bands {
		fmt.Fprintf(&b, ";band%d.%d~%d.%d@%g", bd.LeftStream, bd.LeftAttr, bd.RightStream, bd.RightAttr, bd.Eps)
	}
	if n := len(g.Cond.Generics); n > 0 {
		fmt.Fprintf(&b, ";gen=%d", n)
	}
	b.WriteString(";w=")
	for i, w := range g.Windows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int64(w))
	}
	fmt.Fprintf(&b, ";policy=%d", cfg.Policy)
	if cfg.Policy == PolicyStatic {
		fmt.Fprintf(&b, ";k=%d", int64(cfg.StaticK))
	}
	b.WriteString(";shape=")
	writeNodeSig(&b, g.Root)
	return b.String()
}

// writeNodeSig renders a plan node in the spec grammar's compact form.
func writeNodeSig(b *strings.Builder, n Node) {
	switch t := n.(type) {
	case Leaf:
		fmt.Fprintf(b, "%d", t.Stream)
	case Flat:
		fmt.Fprintf(b, "flat%d", t.M)
	case Stage:
		b.WriteByte('(')
		writeNodeSig(b, t.Left)
		b.WriteByte(' ')
		writeNodeSig(b, t.Right)
		b.WriteByte(')')
	case Shard:
		writeNodeSig(b, t.Child)
		fmt.Fprintf(b, "x%d", t.N)
	default:
		fmt.Fprintf(b, "?%T", n)
	}
}

// Checkpoint captures the executor's state. The executor must have been
// built by Build(g, cfg) — the signature recorded in the returned state is
// computed from g and cfg, not inspected from the executor. Tree executors
// are captured at their current quiesced point; for an exact K-trajectory
// replay the caller checkpoints at an adaptation boundary (the supervised
// runtime does), per the internal/dist boundary-checkpoint contract.
func Checkpoint(g *Graph, cfg ExecConfig, ex Executor) (ExecState, error) {
	tt := fault.NewTupleTable()
	st := ExecState{Sig: Signature(g, cfg)}
	switch e := ex.(type) {
	case *flatExec:
		s := e.p().Checkpoint(tt)
		st.Flat = &s
	case *treeExec:
		st.PrevMax, st.Pushed = e.prevMax, e.pushed
		s := e.State(tt)
		st.ATree = &s
	default:
		return ExecState{}, fmt.Errorf("plan: executor %T does not support checkpointing", ex)
	}
	st.Tuples = tt.Recs
	return st, nil
}

// Restore builds a fresh executor for (g, cfg) and loads st into it. The
// snapshot must carry the same deployment signature, or the restore is
// refused with fault.ErrRestoreMismatch.
func Restore(g *Graph, cfg ExecConfig, st ExecState) (Executor, error) {
	sig := Signature(g, cfg)
	if st.Sig != sig {
		return nil, fmt.Errorf("%w: snapshot is for deployment %q, target is %q", fault.ErrRestoreMismatch, st.Sig, sig)
	}
	ex := Build(g, cfg)
	ta := fault.NewTupleArena(st.Tuples)
	switch e := ex.(type) {
	case *flatExec:
		if st.Flat == nil {
			Abandon(ex)
			return nil, fmt.Errorf("%w: snapshot carries no flat-pipeline state", fault.ErrRestoreMismatch)
		}
		if (st.Flat.Op == nil) != (e.p().Operator() == nil) {
			// One signature covers the unsharded operator and a one-worker
			// runtime (a single remote address); their states do not.
			Abandon(ex)
			return nil, fmt.Errorf("%w: snapshot of an in-process operator and a worker runtime do not restore into each other", fault.ErrRestoreMismatch)
		}
		e.p().RestoreState(*st.Flat, ta)
	case *treeExec:
		if st.ATree == nil {
			Abandon(ex)
			return nil, fmt.Errorf("%w: snapshot carries no tree state", fault.ErrRestoreMismatch)
		}
		e.prevMax, e.pushed = st.PrevMax, st.Pushed
		e.Restore(*st.ATree, ta)
	}
	return ex, nil
}

// Abandon stops an executor's background goroutines without flushing or
// emitting — the teardown path for a crashed executor the supervisor is
// about to replace. Safe after a contained worker failure: drain-mode
// workers exit when their channels close.
func Abandon(ex Executor) {
	switch e := ex.(type) {
	case *flatExec:
		e.p().Abandon()
	case *treeExec:
		e.Abandon()
	}
}

// ShapeString renders the graph's shape in the spec grammar's compact form
// ("((0 1) 2)x4", "flat3", …) — the identity migration events print.
func ShapeString(g *Graph) string {
	var b strings.Builder
	writeNodeSig(&b, g.Root)
	return b.String()
}
