package plan

// Checkpoint/restore at the executor seam. A checkpoint captures the
// pipeline the graph compiled to, tagged with a signature of the deployment
// identity — condition, windows, shape, policy. Restore refuses a snapshot
// whose signature disagrees with the target graph (fault.ErrRestoreMismatch)
// rather than silently rebuilding different state: the serialized window
// contents and K decisions are only meaningful under the exact deployment
// that produced them.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
)

// ExecState is the serializable state of a built executor.
type ExecState struct {
	// Sig is the deployment signature the snapshot is valid for.
	Sig string
	// Tuples is the interned tuple table every EventRec index points into.
	Tuples []fault.TupleRec

	// Flat is the pipeline's state on every shape. It keeps the name it
	// had when only flat shapes ran behind the pipeline, so their
	// snapshots still decode; a tree snapshot from then decodes with Flat
	// nil, and Restore refuses it.
	Flat *core.State
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

// Checkpoint captures the pipeline's state. The pipeline must have been
// built by Build(g, cfg) — the signature recorded in the returned state is
// computed from g and cfg, not inspected from the pipeline. For an exact
// K-trajectory replay of a tree the caller checkpoints at an adaptation
// boundary (the supervised runtime does; see core.Pipeline.Checkpoint).
func Checkpoint(g *Graph, cfg ExecConfig, p *core.Pipeline) ExecState {
	tt := fault.NewTupleTable()
	s := p.Checkpoint(tt)
	return ExecState{Sig: Signature(g, cfg), Tuples: tt.Recs, Flat: &s}
}

// Restore builds a fresh pipeline for (g, cfg) and loads st into it. The
// snapshot must carry the same deployment signature and state of the same
// join body, or the restore is refused with fault.ErrRestoreMismatch. One
// signature covers the unsharded operator and a one-worker runtime (a
// single remote address); their states do not restore into each other.
func Restore(g *Graph, cfg ExecConfig, st ExecState) (*core.Pipeline, error) {
	sig := Signature(g, cfg)
	if st.Sig != sig {
		return nil, fmt.Errorf("%w: snapshot is for deployment %q, target is %q", fault.ErrRestoreMismatch, st.Sig, sig)
	}
	if st.Flat == nil {
		return nil, fmt.Errorf("%w: snapshot carries no pipeline state", fault.ErrRestoreMismatch)
	}
	p := Build(g, cfg)
	if err := p.RestoreState(*st.Flat, fault.NewTupleArena(st.Tuples)); err != nil {
		p.Abandon()
		return nil, err
	}
	return p, nil
}

// ShapeString renders the graph's shape in the spec grammar's compact form
// ("((0 1) 2)x4", "flat3", …) — the identity migration events print.
func ShapeString(g *Graph) string {
	var b strings.Builder
	writeNodeSig(&b, g.Root)
	return b.String()
}
