package main

import (
	"fmt"
	"math"
	"slices"
)

// perLayer lists the per-layer metrics, named <module>.<metric>. Times are
// self times from the traced pass; *.share is self time ÷ traced wall. The
// quality numbers that are zero on some workload (avg_k_ms and Φ(Γ) on
// x3-noslack) are reported here, since an end-to-end metric must never be.
var perLayer = []metricDef{
	{Name: "avg_k_ms", Unit: "ms", Better: "lower"},
	{Name: "phi_gamma_pct", Unit: "%", Better: "higher"},

	{Name: "adapt.decide_p50_us", Unit: "us", Better: "lower"},
	{Name: "adapt.decide_p99_us", Unit: "us", Better: "lower"},
	{Name: "adapt.iters_per_decision", Unit: "count", Better: "lower"},
	{Name: "adapt.search_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "adapt.decisions", Unit: "count", Better: "lower"},
	{Name: "adapt.gamma_prime_mean", Unit: "ratio", Better: "lower"},
	{Name: "adapt.share", Unit: "ratio", Better: "lower"},
	{Name: "feedback.decideat_self_us", Unit: "us", Better: "lower"},
	{Name: "feedback.share", Unit: "ratio", Better: "lower"},

	{Name: "join.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "join.cross_per_tuple", Unit: "count", Better: "lower"},
	{Name: "join.on_per_cross", Unit: "ratio", Better: "higher"},
	{Name: "join.results_per_tuple", Unit: "count", Better: "higher"},
	{Name: "join.out_of_order_frac", Unit: "ratio", Better: "lower"},
	{Name: "join.window_len_mean", Unit: "count", Better: "lower"},
	{Name: "join.share", Unit: "ratio", Better: "lower"},
	{Name: "sink.emit_ns_per_result", Unit: "ns", Better: "lower"},
	{Name: "sink.results_delivered", Unit: "count", Better: "higher"},
	{Name: "sink.share", Unit: "ratio", Better: "lower"},

	{Name: "kslack.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "kslack.setk_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "kslack.buffered_mean", Unit: "count", Better: "lower"},
	{Name: "kslack.buffered_max", Unit: "count", Better: "lower"},
	{Name: "kslack.late_frac", Unit: "ratio", Better: "lower"},
	{Name: "kslack.share", Unit: "ratio", Better: "lower"},
	{Name: "syncer.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "syncer.buffered_max", Unit: "count", Better: "lower"},
	{Name: "syncer.immediate_frac", Unit: "ratio", Better: "lower"},
	{Name: "syncer.share", Unit: "ratio", Better: "lower"},

	{Name: "stats.observe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "stats.history_len_mean", Unit: "count", Better: "lower"},
	{Name: "stats.max_delay_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.share", Unit: "ratio", Better: "lower"},
	{Name: "profiler.record_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "profiler.share", Unit: "ratio", Better: "lower"},
	{Name: "monitor.add_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "monitor.share", Unit: "ratio", Better: "lower"},

	{Name: "driver.push_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.push_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.push_p999_us", Unit: "us", Better: "lower"},
	{Name: "driver.push_p9999_us", Unit: "us", Better: "lower"},
	{Name: "driver.push_max_us", Unit: "us", Better: "lower"},
	{Name: "driver.share", Unit: "ratio", Better: "lower"},
	{Name: "driver.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "driver.repeat_iqr_frac", Unit: "ratio", Better: "lower"},

	{Name: "shell.cpu_tax_frac", Unit: "ratio", Better: "lower"},
	{Name: "shell.wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "plan.sup_checkpoints", Unit: "count", Better: "lower"},
	{Name: "plan.sup_checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.sup_restarts", Unit: "count", Better: "lower"},
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "replan.migrations", Unit: "count", Better: "lower"},
	{Name: "replan.pause_max_ms", Unit: "ms", Better: "lower"},
	{Name: "replan.pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "replan.replayed_tuples", Unit: "count", Better: "lower"},
	{Name: "dist.stage0_avg_k_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.stage1_avg_k_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.sum_k_ms", Unit: "ms", Better: "lower"},
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the per-layer metrics of a traced run. Metrics of a
// layer the workload does not run stay 0.
func (r *run) perLayer() map[string]value {
	m := map[string]value{}
	set := func(name string, v float64) { m[name] = exact(finite(v)) }
	for _, d := range perLayer {
		set(d.Name, 0)
	}
	decisions := float64(r.ref.adaptations)
	set("avg_k_ms", r.ref.avgK)
	set("phi_gamma_pct", r.ref.phi)
	set("adapt.decisions", decisions)
	set("plan.build_us", r.builds.median())
	set("driver.repeat_iqr_frac", r.throughput(r.plain).iqrFrac())
	// Ratios of timings compare fastest passes, like the end-to-end metrics.
	untraced := slices.Min(walls(r.plain))

	if p := r.pipe; p != nil {
		// Spans are summed over all traced passes, so a share divides by the
		// summed wall time of those passes.
		passes := float64(len(r.tracedWall))
		var wall float64
		for _, w := range r.tracedWall {
			wall += w * 1e9 / passes
		}
		tuples := float64(r.tuples)
		// self returns the span's self time per traced pass, in ns. Taking
		// the tracer's calibrated cost out can leave a near-empty span
		// slightly below zero.
		self := func(id spanID) float64 { return max(float64(r.tracer.agg[id].Self)/passes, 0) }
		count := func(id spanID) float64 { return float64(r.tracer.agg[id].Count) / passes }
		share := func(ids ...spanID) float64 {
			var s float64
			for _, id := range ids {
				s += self(id)
			}
			return s / wall
		}

		search := make(samples, len(p.decisions))
		var gp float64
		for i, d := range p.decisions {
			search[i] = float64(d.SearchNs) / 1e3
			gp += d.GammaPrime
		}
		set("adapt.decide_p50_us", search.median())
		set("adapt.decide_p99_us", search.quantile(0.99))
		if p.model != nil {
			steps, iters, total := p.model.AdaptStats()
			set("adapt.iters_per_decision", ratio(float64(iters), float64(steps)))
			set("adapt.search_us_per_decision", ratio(float64(total)/1e3, float64(steps)))
			set("adapt.gamma_prime_mean", ratio(gp, float64(len(p.decisions))))
		}
		set("adapt.share", share(spAdaptSearch))
		set("feedback.decideat_self_us", ratio(self(spFeedbackDecideAt)/1e3, decisions))
		set("feedback.share", share(spFeedbackDecideAt))

		set("join.self_ns_per_tuple", self(spJoinProcess)/tuples)
		set("join.cross_per_tuple", ratio(float64(p.sumCross), float64(p.inOrder)))
		set("join.on_per_cross", ratio(float64(p.sumOn), float64(p.sumCross)))
		set("join.results_per_tuple", float64(p.results)/tuples)
		set("join.out_of_order_frac", ratio(float64(p.op.OutOfOrder()), float64(p.op.Processed())))
		set("join.window_len_mean", ratio(p.winSum, decisions))
		set("join.share", share(spJoinProcess))
		set("sink.emit_ns_per_result", ratio(self(spSinkEmit), count(spSinkEmit)))
		set("sink.results_delivered", float64(p.delivered))
		set("sink.share", share(spSinkEmit))

		set("kslack.self_ns_per_tuple", (self(spKslackPush)+self(spKslackSetK))/tuples)
		set("kslack.setk_us_per_decision", ratio(self(spKslackSetK)/1e3, decisions))
		set("kslack.buffered_mean", ratio(float64(p.bufSum), float64(p.samples)))
		set("kslack.buffered_max", float64(p.bufMax))
		set("kslack.late_frac", float64(p.late)/tuples)
		set("kslack.share", share(spKslackPush, spKslackSetK))
		set("syncer.self_ns_per_tuple", self(spSyncerPush)/tuples)
		set("syncer.buffered_max", float64(p.syncMax))
		set("syncer.immediate_frac", float64(p.sync.Immediate())/tuples)
		set("syncer.share", share(spSyncerPush))

		set("stats.observe_ns_per_tuple", self(spStatsObserve)/tuples)
		set("stats.history_len_mean", ratio(p.histSum, decisions))
		set("stats.max_delay_ms", float64(p.loop.Stats().MaxDelayAllTime()))
		set("stats.share", share(spStatsObserve))
		set("profiler.record_ns_per_tuple", self(spProfilerRecord)/tuples)
		set("profiler.share", share(spProfilerRecord))
		set("monitor.add_ns_per_event", ratio(self(spMonitorAdd), count(spMonitorAdd)))
		set("monitor.share", share(spMonitorAdd))
		set("driver.share", share(spDriverPush))
		set("driver.trace_overhead_frac", slices.Min(r.tracedWall)/untraced-1)
	}

	// The latency pass is part of the untraced run; a traced run reports
	// what the one it made for its checks saw.
	set("driver.push_p50_us", r.p50.median())
	set("driver.push_p99_us", r.p99.median())
	set("driver.push_p999_us", r.p999.median())
	set("driver.push_p9999_us", r.p9999.median())
	set("driver.push_max_us", slices.Max(append(slices.Clone(r.pMax), 0)))

	if len(r.twinPlain) > 0 {
		set("shell.wall_ratio", untraced/slices.Min(walls(r.twinPlain)))
		set("shell.cpu_tax_frac", slices.Min(r.cpuPerTuple(r.plain))/slices.Min(r.cpuPerTuple(r.twinPlain))-1)
	}
	set("plan.sup_checkpoints", float64(r.checkpoints))
	set("plan.sup_checkpoint_ms", r.ckptTime.Seconds()*1e3)
	set("plan.sup_restarts", float64(r.restarts))
	set("replan.migrations", float64(len(r.migrations)))
	var pauseMax, pauseTotal float64
	var replayed int
	for _, ev := range r.migrations {
		ms := ev.Pause.Seconds() * 1e3
		pauseMax = max(pauseMax, ms)
		pauseTotal += ms
		replayed += ev.Replayed
	}
	set("replan.pause_max_ms", pauseMax)
	set("replan.pause_total_ms", pauseTotal)
	set("replan.replayed_tuples", float64(replayed))
	if ks := r.ref.stageKSum; len(ks) > 1 && decisions > 0 {
		var sum float64
		for i, k := range ks {
			sum += k / decisions
			if i < 2 {
				set(fmt.Sprintf("dist.stage%d_avg_k_ms", i), k/decisions)
			}
		}
		set("dist.sum_k_ms", sum)
	}
	return m
}
