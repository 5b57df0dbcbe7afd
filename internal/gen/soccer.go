package gen

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/join"
	"repro/internal/stream"
)

// SoccerConfig parameterizes the simulated soccer workload that substitutes
// the DEBS 2013 dataset (D×2real). See the package comment and DESIGN.md §4.
type SoccerConfig struct {
	Duration       stream.Time // game horizon (paper: 23 min)
	Players        int         // players per team (default 8)
	SensorHz       int         // readings per player per second (default 12)
	MaxDelayA      stream.Time // max network delay stream S1 (paper: ≈22 s)
	MaxDelayB      stream.Time // max network delay stream S2 (paper: ≈26 s)
	DelaySkew      float64     // Zipf skew of the base delay distribution
	BurstEvery     stream.Time // mean gap between delay bursts
	BurstLen       stream.Time // duration of one burst
	ProximityM     float64     // join distance threshold (paper: 5 m)
	WindowSize     stream.Time // sliding window (paper: 5 s)
	Seed           int64
	FieldW, FieldH float64
}

func (c SoccerConfig) normalize() SoccerConfig {
	if c.Duration <= 0 {
		c.Duration = 23 * stream.Minute
	}
	if c.Players <= 0 {
		c.Players = 8
	}
	if c.SensorHz <= 0 {
		c.SensorHz = 12
	}
	if c.MaxDelayA <= 0 {
		c.MaxDelayA = 22 * stream.Second
	}
	if c.MaxDelayB <= 0 {
		c.MaxDelayB = 26 * stream.Second
	}
	if c.DelaySkew <= 0 {
		c.DelaySkew = 0.8
	}
	if c.BurstEvery <= 0 {
		c.BurstEvery = 90 * stream.Second
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 4 * stream.Second
	}
	if c.ProximityM <= 0 {
		c.ProximityM = 5
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 5 * stream.Second
	}
	if c.FieldW <= 0 {
		c.FieldW = 105
	}
	if c.FieldH <= 0 {
		c.FieldH = 68
	}
	return c
}

// player is a random-waypoint walker.
type player struct {
	x, y   float64
	tx, ty float64 // current waypoint
	speed  float64 // m/s
}

func (p *player) step(rng *rand.Rand, dt float64, w, h float64) {
	dx, dy := p.tx-p.x, p.ty-p.y
	d := math.Hypot(dx, dy)
	move := p.speed * dt
	if d <= move || d == 0 {
		p.x, p.y = p.tx, p.ty
		p.tx, p.ty = rng.Float64()*w, rng.Float64()*h
		p.speed = 1 + rng.Float64()*7
		return
	}
	p.x += dx / d * move
	p.y += dy / d * move
}

// Soccer generates the simulated 2-stream player-position workload with the
// proximity query Q×2: find, within a 5-second window, all pairs of players
// from opposing teams closer than 5 meters. Tuple attributes are
// (sID, xCoord, yCoord); the join condition is expressed as two band
// predicates (the bounding box of the 5 m circle, index-accelerated) plus
// the exact dist() residual as a generic predicate, exercising both the
// band planner and the arbitrary-condition path.
func Soccer(cfg SoccerConfig) *Dataset {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))

	maxDelay := []stream.Time{cfg.MaxDelayA, cfg.MaxDelayB}
	// Sensor-network delay model: almost every reading suffers sub-second
	// radio/aggregation jitter, a small fraction are multi-second
	// stragglers bounded by the per-stream maximum, and a few tuples are
	// punctual. This mirrors the paper's real dataset, where disorder is
	// pervasive (No-K-slack recall ≈ 0.5) yet the 99th delay percentile sits
	// far below the ≈22–26 s maxima (quality-driven buffers stay ≈1 s).
	const (
		punctualProb  = 0.20
		stragglerProb = 0.006
		jitterMax     = 1500 * stream.Millisecond
	)
	jitter := newDelayGen(jitterMax, cfg.DelaySkew, jitterDelayGran)
	stragglers := []*delayGen{
		newDelayGen(cfg.MaxDelayA, 1.2, synthDelayGran),
		newDelayGen(cfg.MaxDelayB, 1.2, synthDelayGran),
	}
	sampleDelay := func(team int) stream.Time {
		u := rng.Float64()
		switch {
		case u < punctualProb:
			return 0
		case u < punctualProb+stragglerProb:
			return stragglers[team].sample(rng)
		default:
			// Jitter is shifted off zero: late by at least one tick.
			return 20*stream.Millisecond + jitter.sample(rng)
		}
	}

	// Per-team burst schedule: during a burst every reading's delay gets an
	// extra uniform component, modelling sink congestion.
	type burst struct{ start, end stream.Time }
	makeBursts := func() []burst {
		var out []burst
		t := stream.Time(0)
		for t < cfg.Duration {
			gap := stream.Time(float64(cfg.BurstEvery) * (0.5 + rng.Float64()))
			t += gap
			out = append(out, burst{start: t, end: t + cfg.BurstLen})
			t += cfg.BurstLen
		}
		return out
	}
	bursts := [][]burst{makeBursts(), makeBursts()}
	inBurst := func(team int, ts stream.Time) bool {
		for _, b := range bursts[team] {
			if ts >= b.start && ts < b.end {
				return true
			}
			if b.start > ts {
				return false
			}
		}
		return false
	}

	// Simulate both teams at the sensor tick rate, emitting one reading per
	// player per tick, in timestamp order per stream.
	tick := stream.Time(1000 / cfg.SensorHz)
	if tick <= 0 {
		tick = 1
	}
	dt := float64(tick) / 1000

	players := make([][]*player, 2)
	for team := range players {
		players[team] = make([]*player, cfg.Players)
		for i := range players[team] {
			players[team][i] = &player{
				x:     rng.Float64() * cfg.FieldW,
				y:     rng.Float64() * cfg.FieldH,
				tx:    rng.Float64() * cfg.FieldW,
				ty:    rng.Float64() * cfg.FieldH,
				speed: 1 + rng.Float64()*7,
			}
		}
	}

	// arrival pairs a tuple with its physical arrival time at the sink.
	type arrival struct {
		t  *stream.Tuple
		at stream.Time
	}
	var arrivals []arrival
	// Offset timestamps so a maximal delay cannot precede time zero.
	base := cfg.MaxDelayB
	if cfg.MaxDelayA > base {
		base = cfg.MaxDelayA
	}
	for ts := stream.Time(0); ts < cfg.Duration; ts += tick {
		for team := 0; team < 2; team++ {
			burst := inBurst(team, ts)
			for i, pl := range players[team] {
				pl.step(rng, dt, cfg.FieldW, cfg.FieldH)
				d := sampleDelay(team)
				if burst {
					// Mild congestion: up to 300 ms of extra delay, inside
					// the jitter envelope the model already buffers for.
					d += stream.Time(rng.Int63n(300))
					if d > maxDelay[team] {
						d = maxDelay[team]
					}
				}
				tu := &stream.Tuple{
					TS:    base + ts,
					Src:   team,
					Attrs: []float64{float64(team*cfg.Players + i + 1), pl.x, pl.y},
				}
				arrivals = append(arrivals, arrival{t: tu, at: base + ts + d})
			}
		}
	}

	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	batch := make(stream.Batch, len(arrivals))
	for i, a := range arrivals {
		a.t.Seq = uint64(i)
		batch[i] = a.t
	}

	return &Dataset{
		Name:     "Dreal-x2 (simulated)",
		M:        2,
		Arrivals: batch,
		Windows:  []stream.Time{cfg.WindowSize, cfg.WindowSize},
		Cond:     SoccerCondition(cfg.ProximityM),
	}
}

// SoccerCondition is the proximity query Q×2 over (sID, xCoord, yCoord)
// tuples: players of the two streams closer than thr, dist() < thr. It
// decomposes into two typed band predicates — |x0 − x1| ≤ thr and
// |y0 − y1| ≤ thr, the bounding box of the circle — which the planner
// resolves to one probe of a two-dimensional band grid (the ≤ 3×3 cells
// around the arriving player), plus the exact circle as a generic residual
// over the box survivors. The conjunction is equivalent to dist() < thr
// alone (the circle is a subset of its box), so results are identical; only
// the evaluation strategy differs, from an O(window) closure scan per probe
// to a few cells. The residual is given in expression form (WhereExpr, not a
// Where closure) so executors compile it to bytecode for the probe inner
// loop — dx² + dy² < thr² — and networked workers can receive it.
func SoccerCondition(thr float64) *join.Condition {
	dx := join.Sub(join.Attr(0, 1), join.Attr(1, 1))
	dy := join.Sub(join.Attr(0, 2), join.Attr(1, 2))
	return join.Cross(2).
		Band(0, 1, 1, 1, thr).
		Band(0, 2, 1, 2, thr).
		WhereExpr(join.Lt(join.Add(join.Mul(dx, dx), join.Mul(dy, dy)), join.ConstOf(thr*thr)))
}
