package join

// The planner compiles, for each possible arriving stream, a probe order over
// the remaining streams. Each probe step carries the index lookups that
// become available once earlier streams are bound — hash lookups for
// equi-predicates and range lookups for band predicates — and the generic
// predicates that become fully bound after the step. Finding the *optimal*
// join order is orthogonal to the paper (Sec. II-A); the greedy
// connected-first order below matches what MJoin-style systems do by
// default, preferring equi connections (hash probe) over band connections
// (range probe) when both are available.

// lookup keys the probed stream's ownAttr hash index with the value of
// boundStream.Attr(boundAttr) from the current partial assignment.
type lookup struct {
	boundStream, boundAttr int
	ownAttr                int
}

// bandLookup probes the stream's ownAttr range index for values within eps
// of boundStream.Attr(boundAttr): |own − bound| ≤ eps.
type bandLookup struct {
	boundStream, boundAttr int
	ownAttr                int
	eps                    float64
}

// step probes one stream.
type step struct {
	stream  int
	lookups []lookup
	bands   []bandLookup
	checks  []int // indexes into Condition.Generics fully bound after this step
}

// plan is the probe order for one arriving stream.
type plan []step

// buildPlans compiles one plan per arriving stream.
func buildPlans(c *Condition) []plan {
	plans := make([]plan, c.M)
	for s := 0; s < c.M; s++ {
		plans[s] = buildPlan(c, s)
	}
	return plans
}

func buildPlan(c *Condition, arriving int) plan {
	bound := make([]bool, c.M)
	bound[arriving] = true
	assigned := make([]bool, len(c.Generics))
	var p plan
	for n := 1; n < c.M; n++ {
		next := pickNext(c, bound)
		st := step{stream: next}
		for _, e := range c.Equis {
			switch {
			case e.LeftStream == next && bound[e.RightStream]:
				st.lookups = append(st.lookups, lookup{e.RightStream, e.RightAttr, e.LeftAttr})
			case e.RightStream == next && bound[e.LeftStream]:
				st.lookups = append(st.lookups, lookup{e.LeftStream, e.LeftAttr, e.RightAttr})
			}
		}
		for _, b := range c.Bands {
			switch {
			case b.LeftStream == next && bound[b.RightStream]:
				st.bands = append(st.bands, bandLookup{b.RightStream, b.RightAttr, b.LeftAttr, b.Eps})
			case b.RightStream == next && bound[b.LeftStream]:
				st.bands = append(st.bands, bandLookup{b.LeftStream, b.LeftAttr, b.RightAttr, b.Eps})
			}
		}
		bound[next] = true
		for gi, g := range c.Generics {
			if assigned[gi] {
				continue
			}
			all := true
			for _, gs := range g.Streams {
				if !bound[gs] {
					all = false
					break
				}
			}
			if all {
				assigned[gi] = true
				st.checks = append(st.checks, gi)
			}
		}
		p = append(p, st)
	}
	return p
}

// pickNext greedily prefers the unbound stream with the most predicates
// connecting it to the bound set (so index lookups narrow candidates as
// early as possible), breaking ties by stream index. Equi connections
// dominate band connections: a hash probe is generally more selective than
// a range probe.
func pickNext(c *Condition, bound []bool) int {
	best, bestConn := -1, -1
	for s := 0; s < c.M; s++ {
		if bound[s] {
			continue
		}
		conn := 0
		for _, e := range c.Equis {
			if (e.LeftStream == s && bound[e.RightStream]) || (e.RightStream == s && bound[e.LeftStream]) {
				conn += 256
			}
		}
		for _, b := range c.Bands {
			if (b.LeftStream == s && bound[b.RightStream]) || (b.RightStream == s && bound[b.LeftStream]) {
				conn++
			}
		}
		if conn > bestConn {
			best, bestConn = s, conn
		}
	}
	return best
}

// bitset is a fixed-size stream set; streams number at most a few dozen, so
// a small word slice beats a map for the planner's set algebra.
type bitset []uint64

func newBitset(m int) bitset { return make(bitset, (m+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) copyFrom(o bitset) { copy(b, o) }

// subset reports whether every bit of b is also set in o.
func (b bitset) subset(o bitset) bool {
	for w := range b {
		if b[w]&^o[w] != 0 {
			return false
		}
	}
	return true
}
