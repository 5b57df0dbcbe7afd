package join

import (
	"testing"

	"repro/internal/stream"
)

func TestPlanEquiChainOrder(t *testing.T) {
	c := EquiChain(3, 0)
	plans := buildPlans(c)
	if len(plans) != 3 {
		t.Fatalf("plans = %d", len(plans))
	}
	// Arriving stream 0: S1 is connected (pred 0–1), then S2 (pred 1–2).
	p := plans[0]
	if p[0].stream != 1 || p[1].stream != 2 {
		t.Fatalf("probe order for S0 arrival: %d,%d", p[0].stream, p[1].stream)
	}
	if len(p[0].lookups) != 1 || len(p[1].lookups) != 1 {
		t.Fatal("each step should carry one index lookup")
	}
	// Step 2's lookup references S1, which is inside the suffix at level 0,
	// so level 0 is not countable; level 1 is.
	tails := markCountableTails(0, p)
	if tails[0] {
		t.Fatal("level 0 must not be countable (S2 depends on S1)")
	}
	if !tails[1] {
		t.Fatal("level 1 must be countable")
	}
}

func TestPlanStarCountableFromCenter(t *testing.T) {
	c := Star(4, []int{0, 1, 2}, []int{0, 0, 0})
	plans := buildPlans(c)
	// Arriving center (stream 0): every spoke references only stream 0, so
	// the whole plan is countable from level 0.
	tails := markCountableTails(0, plans[0])
	for lvl, st := range plans[0] {
		if !tails[lvl] {
			t.Fatalf("center-arrival level %d should be countable", lvl)
		}
		if len(st.lookups) != 1 || st.lookups[0].boundStream != 0 {
			t.Fatalf("spoke lookup must reference the center, got %+v", st.lookups)
		}
	}
	// Arriving spoke (stream 1): first probe the center (connected), then
	// the remaining spokes, which hang off the center.
	p := plans[1]
	if p[0].stream != 0 {
		t.Fatalf("spoke arrival must probe the center first, got %d", p[0].stream)
	}
	tails = markCountableTails(1, p)
	if tails[0] {
		t.Fatal("level 0 from a spoke is not countable (others depend on center)")
	}
	if !tails[1] {
		t.Fatal("after the center binds, the tail is countable")
	}
}

func TestPlanCrossJoinFullScans(t *testing.T) {
	c := Cross(3)
	plans := buildPlans(c)
	for s, p := range plans {
		tails := markCountableTails(s, p)
		for lvl, st := range p {
			if len(st.lookups) != 0 {
				t.Fatalf("cross join must have no lookups (s=%d lvl=%d)", s, lvl)
			}
			if !tails[lvl] {
				t.Fatalf("cross join tails are always countable (s=%d lvl=%d)", s, lvl)
			}
		}
	}
}

func TestPlanBandLookups(t *testing.T) {
	// The soccer shape: two bands plus a generic residual. Each arrival's
	// single step must carry both band lookups and the generic check, and
	// must not be countable (pending check).
	c := Cross(2).Band(0, 1, 1, 1, 5).Band(0, 2, 1, 2, 5).
		Where([]int{0, 1}, func([]*stream.Tuple) bool { return true })
	plans := buildPlans(c)
	for s, p := range plans {
		if len(p) != 1 {
			t.Fatalf("plan %d has %d steps", s, len(p))
		}
		st := p[0]
		if len(st.bands) != 2 || len(st.lookups) != 0 {
			t.Fatalf("arrival %d: %d band / %d equi lookups, want 2/0", s, len(st.bands), len(st.lookups))
		}
		if len(st.checks) != 1 || markCountableTails(s, p)[0] {
			t.Fatalf("arrival %d: generic residual must be scheduled and kill countability", s)
		}
		for _, b := range st.bands {
			if b.boundStream != s {
				t.Fatalf("band lookup must key off the arriving stream %d, got %d", s, b.boundStream)
			}
			if b.eps != 5 {
				t.Fatalf("band eps = %v", b.eps)
			}
		}
	}
}

func TestPlanPureBandCountable(t *testing.T) {
	// Without the generic residual the single band step is countable: the
	// operator can answer with a range-index count.
	c := Cross(2).Band(0, 0, 1, 0, 1)
	plans := buildPlans(c)
	for s, p := range plans {
		if !markCountableTails(s, p)[0] {
			t.Fatalf("arrival %d: pure band step must be countable", s)
		}
	}
}

func TestPlanPrefersEquiOverBand(t *testing.T) {
	// Stream 1 is band-connected, stream 2 equi-connected: the equi stream
	// must be probed first (hash probes are generally more selective).
	c := Cross(3).Band(0, 0, 1, 0, 1).Equi(0, 1, 2, 1)
	p := buildPlans(c)[0]
	if p[0].stream != 2 || p[1].stream != 1 {
		t.Fatalf("probe order %d,%d — want equi-connected stream 2 first", p[0].stream, p[1].stream)
	}
	if len(p[0].lookups) != 1 || len(p[1].bands) != 1 {
		t.Fatal("steps must carry their respective lookups")
	}
}

func TestPlanGenericChecksPlacement(t *testing.T) {
	// A predicate over streams {0, 2} must be checked at the level where
	// stream 2 binds, and its presence kills countability of every level up
	// to and including that one.
	c := Cross(3).Where([]int{0, 2}, func([]*stream.Tuple) bool { return true })
	plans := buildPlans(c)
	p := plans[0] // arriving stream 0; probe order is 1 then 2 (tie by index)
	var checkedAt = -1
	for lvl, st := range p {
		if len(st.checks) > 0 {
			checkedAt = lvl
			if st.stream != 2 {
				t.Fatalf("check must attach where stream 2 binds, got stream %d", st.stream)
			}
		}
	}
	if checkedAt == -1 {
		t.Fatal("generic predicate never scheduled")
	}
	tails := markCountableTails(0, p)
	for lvl := 0; lvl <= checkedAt; lvl++ {
		if tails[lvl] {
			t.Fatalf("level %d must not be countable with a pending check", lvl)
		}
	}
}
