//! The benchmark's metric tables. `BENCHMARK.json` at the repository
//! root repeats them for the driver; a unit test keeps the two equal.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it among `end_to_end`, which makes
    /// the benchmark driver hold it to `bound` across seeds. The others
    /// are printed, stored and judged by `compare` all the same, and
    /// reach the driver as per-layer values.
    pub driver_bounded: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver_bounded: true,
    }
}

/// What a user of `tune`, the daemon or `replay` waits for and pays.
/// Every workload reports all of them. Every bound is the largest the
/// benchmark driver allows: the driver judges steadiness across ten
/// *different* seeds on a host whose speed drifts by 15-20 %, and
/// README.md has the measured spreads that leave no room for less.
/// Tighter judgements come from `compare` on paired same-seed runs.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("op_ms_p50", "ms", Better::Lower, 0.25),
    // The tail is the second-slowest of a pass's 15-18 ops, and which
    // op that is moves with the seed: its quartiles lie 20 % apart on
    // `updates_mixed` and 21-32 % on `serve_fleet`. The driver gets it
    // as the per-layer `latency.op_ms_p90`.
    EndToEnd {
        driver_bounded: false,
        ..e2e("op_ms_p90", "ms", Better::Lower, 0.25)
    },
    e2e("optimizer_calls", "count/pass", Better::Lower, 0.25),
];

/// Recommendation quality, `improvement_pct`, is the paper's first
/// end-to-end number, and every run prints it, stores it and has it
/// compared. It is exact at a fixed seed but swings by a quarter of its
/// median from seed to seed (tight budgets make a session's outcome
/// knife-edge), which no bound the driver allows covers; the driver
/// therefore gets it as the per-layer `quality.improvement_pct`, and
/// `compare` holds it to this many percentage points.
pub const IMPROVEMENT_BOUND_POINTS: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One number per layer boundary the harness can reach from outside.
/// A metric that does not apply to a workload (the daemon's on a tune
/// workload) reads 0 there.
pub const PER_LAYER: [PerLayer; 64] = [
    lo("sql.parse_us_per_stmt", "us"),
    lo("expr.bind_us_per_stmt", "us"),
    lo("catalog.build_ms", "ms"),
    lo("opt.optimize_us_base", "us"),
    lo("opt.optimize_us_optimal", "us"),
    lo("opt.allocs_per_call", "count"),
    lo("opt.reprice_us", "us"),
    lo("core.instrument.gather_ms", "ms"),
    lo("core.instrument.structures", "count"),
    lo("physical.config_clone_us", "us"),
    lo("physical.signature_us", "us"),
    lo("physical.size_us", "us"),
    lo("core.transform.candidates_us", "us"),
    lo("core.transform.candidates_n", "count"),
    lo("core.transform.removal_candidates_us", "us"),
    lo("core.transform.apply_us", "us"),
    lo("core.transform.apply_allocs", "count"),
    lo("core.bound.bound_us", "us"),
    lo("core.bound.allocs_per_call", "count"),
    lo("core.eval.full_ms", "ms"),
    lo("core.eval.full_cached_us", "us"),
    lo("core.eval.incremental_us", "us"),
    hi("core.cache.hit_ratio", "ratio"),
    hi("core.cache.plan_hit_ratio", "ratio"),
    hi("core.cache.calls_avoided", "count/pass"),
    hi("core.incremental.amplification", "ratio"),
    hi("core.incremental.memo_hit_ratio", "ratio"),
    lo("core.search.setup_ms", "ms/pass"),
    lo("core.search.prepass_ms", "ms/pass"),
    lo("core.search.loop_ms", "ms/pass"),
    lo("core.search.candidates_ms", "ms/pass"),
    lo("core.search.pricing_ms", "ms/pass"),
    lo("core.search.eval_ms", "ms/pass"),
    lo("core.search.skyline_ms", "ms/pass"),
    lo("core.search.unattributed_pct", "%"),
    lo("core.search.iterations", "count/pass"),
    lo("core.search.logical_calls", "count/pass"),
    lo("core.search.allocs", "count/pass"),
    lo("core.search.alloc_mb", "MB/pass"),
    lo("core.checkpoint.bytes", "bytes"),
    lo("core.checkpoint.serialize_us", "us"),
    lo("core.checkpoint.restore_us", "us"),
    lo("core.checkpoint.session_overhead_pct", "%"),
    lo("serve.durable.atomic_write_us", "us"),
    lo("serve.ping_rtt_ms_p50", "ms"),
    lo("serve.submit_ack_ms_p50", "ms"),
    lo("serve.overhead_ms_p50", "ms"),
    lo("serve.rejected", "count/pass"),
    hi("core.shared.hit_ratio", "ratio"),
    lo("core.shared.entries", "count"),
    lo("core.shared.probe_us", "us"),
    lo("core.online.retunes", "count/pass"),
    hi("core.online.warm_serves", "count/pass"),
    lo("core.online.invocations_per_retune", "count"),
    lo("core.online.window_price_ms", "ms"),
    lo("trace.overhead_pct", "%"),
    lo("trace.events", "count/pass"),
    lo("trace.jsonl_mb", "MB/pass"),
    lo("trace.to_jsonl_ms", "ms/pass"),
    lo("harness.span_overhead_pct", "%"),
    lo("harness.warmup_s", "s"),
    lo("process.peak_rss_mb", "MB"),
    lo("latency.op_ms_p90", "ms"),
    hi("quality.improvement_pct", "%"),
];

/// Per-layer values of one traced run, every metric present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        // A ratio over an empty denominator is "did not happen" here.
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_trace::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(ok(name, "_.-") && name.len() <= 64, "bad name {name}");
            assert!(ok(unit, "_/%.-") && unit.len() <= 16, "bad unit {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        let listed = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bounded: Vec<_> = END_TO_END.iter().filter(|m| m.driver_bounded).collect();
        assert_eq!(listed.len(), bounded.len());
        for (entry, m) in listed.iter().zip(bounded) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.label());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let listed = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit);
            assert_eq!(str_field(entry, "better"), m.better.label());
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let doc = benchmark_json();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(crate::run::DEFAULT_SECONDS as i64)
        );
    }
}
