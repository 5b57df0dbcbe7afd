package feedback

import (
	"repro/internal/hist"
	"repro/internal/stats"
	"repro/internal/stream"
)

// scopeSource adapts the shared Statistics Manager to one decision scope's
// adapt.Source: model input i is the merge of the raw streams in groups[i].
// Singleton groups (the global Same-K scope, a tree stage's raw right input)
// delegate to the manager unchanged, so a single-scope loop is statistically
// identical to the pre-extraction pipeline. Multi-stream groups (the left
// side of a tree stage: the streams bound in the partial results) merge as
// follows:
//
//   - Delays: the member histograms, which the model sums bucket-wise — the
//     delay distribution of a tuple drawn uniformly from the group's
//     arrivals, which is exactly what the left input's constituents are.
//   - KSync: the group minimum. K^sync_i is "free" buffering the model
//     subtracts from the K a stream still needs; for a composite input the
//     least-buffered member bounds what all constituents are guaranteed,
//     so the minimum is the conservative (never recall-overestimating)
//     choice.
//   - MaxDelayRecent: the maximum over all member streams of both groups,
//     bounding the scope's Alg. 3 search exactly as the global MaxD^H
//     bounds the global search.
type scopeSource struct {
	mgr    *stats.Manager
	groups [][]int
	delays [][]*hist.Histogram // delays[i][j] = mgr.Hist(groups[i][j])
}

func newScopeSource(mgr *stats.Manager, groups [][]int) *scopeSource {
	s := &scopeSource{mgr: mgr, groups: groups, delays: make([][]*hist.Histogram, len(groups))}
	for i, g := range groups {
		for _, st := range g {
			s.delays[i] = append(s.delays[i], mgr.Hist(st))
		}
	}
	return s
}

// Delays implements adapt.Source.
func (s *scopeSource) Delays(i int) []*hist.Histogram { return s.delays[i] }

// KSync implements adapt.Source.
func (s *scopeSource) KSync(i int) stream.Time {
	g := s.groups[i]
	min := s.mgr.KSync(g[0])
	for _, st := range g[1:] {
		if v := s.mgr.KSync(st); v < min {
			min = v
		}
	}
	return min
}

// MaxDelayRecent implements adapt.Source.
func (s *scopeSource) MaxDelayRecent() stream.Time {
	var max stream.Time
	for _, g := range s.delays {
		for _, h := range g {
			if d := h.MaxDelay(); d > max {
				max = d
			}
		}
	}
	return max
}
