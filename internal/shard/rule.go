package shard

import (
	"slices"

	"repro/internal/index"
)

// Rule is the one partition rule of every sharded shape — flat shards, the
// networked session's workers and sharded tree stages. An equi key goes to
// worker Mix64(KeyBits(key)) mod n; a NaN key, which never matches, to the
// worker of bits 0, and ±0 to one worker. A band key |a − b| ≤ Δ goes to the
// owner of its range cell RangeCell(key, 4Δ), with insert-only replicas on
// the owners of every cell its span [key − Δ, key + Δ] touches, so the
// owner of any partner holds a copy. A cell at least 2Δ wide keeps the span
// inside two cells, so a tuple lands on at most two workers; 4Δ halves the
// share of boundary tuples that need the second copy. Routing is a pure
// function of the key and n, which is what lets a restore re-route window
// contents onto the workers they occupied before. A band of Δ = 0 is an
// equality and is hashed like one, as join.Partition plans it for flat
// shards.
type Rule struct {
	n       int
	delta   float64
	cell    float64
	targets []int // scratch: the replica set of the last Route call
}

// NewRule builds the rule for n workers and key spread delta: 0 for an
// equi key, the band half-width (a chain's ε sum) for a band key.
func NewRule(n int, delta float64) Rule {
	return Rule{n: n, delta: delta, cell: 4 * delta, targets: make([]int, 0, n)}
}

// Route returns the owner of key and the other workers its insert-only
// replicas go to; replicas aliases scratch valid until the next call. The
// saturating RangeCell clamp keeps a band span enclosing every partner's
// owner cell even for huge and infinite keys.
func (r *Rule) Route(key float64) (owner int, replicas []int) {
	r.targets = r.targets[:0]
	if r.delta == 0 {
		bits, _ := index.KeyBits(key) // !ok is NaN: bits 0
		return r.hash(bits), r.targets
	}
	owner = index.CellOwner(index.RangeCell(key, r.cell), r.n)
	// n consecutive cells already reach every worker. The cap matters where
	// key ± Δ overflows to ±Inf and saturates far from key's own cell.
	lo, hi := index.RangeCell(key-r.delta, r.cell), index.RangeCell(key+r.delta, r.cell)
	for c := lo; c <= hi && c-lo < int64(r.n); c++ {
		if w := index.CellOwner(c, r.n); w != owner && !slices.Contains(r.targets, w) {
			r.targets = append(r.targets, w)
		}
	}
	return owner, r.targets
}

// hash maps canonical key bits (or a sequence number) through the shared
// index.Mix64 finalizer (see there for why a full avalanche must precede
// the modulo).
func (r *Rule) hash(bits uint64) int { return int(index.Mix64(bits) % uint64(r.n)) }
