//! The metric registry and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit, and
//! every fraction or per-request ratio names the metric that is its base.
//! A `--trace 0` run prints exactly [`END_TO_END`]; a `--trace 1` run
//! prints exactly [`PER_LAYER`], with 0 for a layer the workload does not
//! run (an `explore` run has no router, so it rejected no requests).

use m3d_core::report::Json;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// For a ratio: the metric it divides by.
    pub base: Option<&'static str>,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        base: None,
    }
}

const fn ratio(name: &'static str, unit: &'static str, base: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        base: Some(base),
    }
}

/// What a user of each workload sees, measured with tracing off. An
/// operation is one answer the caller waits for: one search on
/// `explore`, one request on `serve_hot`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("rps", "1/s"),
    m("latency_p50_us", "us"),
    m("latency_p99_us", "us"),
    m("peak_rss_mb", "MB"),
];

/// Single layers, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // uarch: multicore cycle loop and the batch engine
    m("uarch.batch.busy_s", "s"),
    m("uarch.batch.points", "count"),
    m("uarch.batch.cycles", "count"),
    ratio("uarch.batch.cache_hit_frac", "frac", "uarch.batch.points"),
    m("uarch.cap_exhausted", "count"),
    m("uarch.multicore.core_cycles_per_s", "1/s"),
    m("uarch.multicore.uops_per_s", "1/s"),
    m("uarch.multicore.chip_cycles", "count"),
    ratio(
        "uarch.multicore.skipped_cycle_frac",
        "frac",
        "uarch.multicore.chip_cycles",
    ),
    // uarch: single-core cycle loop
    m("uarch.core.cycles_per_s", "1/s"),
    m("uarch.core.busy_s", "s"),
    // workloads: trace generation alone
    m("workloads.gen_uops_per_s", "1/s"),
    // power
    m("power.busy_s", "s"),
    m("power.accountings", "count"),
    // thermal
    m("thermal.busy_s", "s"),
    m("thermal.solves", "count"),
    m("thermal.iterations", "count"),
    m("thermal.iterations_per_s", "1/s"),
    ratio("thermal.warm_start_hit_frac", "frac", "thermal.solves"),
    m("thermal.model_build_s", "s"),
    // planner / sram
    m("planner.design_space_s", "s"),
    m("planner.stack_thermal_s", "s"),
    // search
    m("search.busy_s", "s"),
    ratio("search.self_s", "s", "search.busy_s"),
    m("search.candidates", "count"),
    m("search.pruned", "count"),
    m("search.simulated", "count"),
    m("search.frontier", "count"),
    ratio("search.prune_frac", "frac", "search.candidates"),
    m("search.first_chunk_s", "s"),
    // serve: server, engine, protocol
    m("serve.server_p50_us", "us"),
    m("serve.server_p99_us", "us"),
    m("serve.queue_p50_us", "us"),
    m("serve.queue_p99_us", "us"),
    m("serve.wire_gap_p50_us", "us"),
    m("serve.engine_answer_us", "us"),
    m("serve.parse_us", "us"),
    m("serve.requests.sim", "count"),
    ratio("serve.coalesced_frac", "frac", "serve.requests.sim"),
    m("serve.rejected", "count"),
    m("serve.write_errors", "count"),
    m("serve.memo_cache_len", "count"),
    // serve: router
    m("serve.routed_sim_requests", "count"),
    ratio(
        "serve.shard_subrequests_per_request",
        "ratio",
        "serve.routed_sim_requests",
    ),
    m("serve.router_gap_p50_us", "us"),
    m("serve.shard_deaths", "count"),
    m("serve.shard_rerouted", "count"),
    m("serve.shard_failed", "count"),
    // wall-time accounting of the traced operation
    m("bench.traced_unit_s", "s"),
    ratio("layer.uarch.self_s", "s", "bench.traced_unit_s"),
    ratio("layer.power.self_s", "s", "bench.traced_unit_s"),
    ratio("layer.thermal.self_s", "s", "bench.traced_unit_s"),
    ratio("layer.search.self_s", "s", "bench.traced_unit_s"),
    ratio("bench.unattributed_s", "s", "bench.traced_unit_s"),
    // the benchmark itself
    m("bench.untraced_unit_s", "s"),
    ratio("bench.trace_overhead_frac", "frac", "bench.untraced_unit_s"),
    m("bench.client_cpu_s", "s"),
    m("bench.latency_samples", "count"),
    m("bench.measured_s", "s"),
    m("bench.quiet_s", "s"),
    m("bench.host_steal_s", "s"),
    m("bench.attempted", "count"),
    ratio("error_frac", "frac", "bench.attempted"),
];

/// Metric values collected during a run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record (or overwrite) one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object for `defs`, in declaration order. An end-to-end
    /// metric must have been measured; a per-layer one the workload never
    /// ran reads 0. Non-finite values are errors: the result line must be
    /// plain numbers.
    pub fn to_json(&self, defs: &[MetricDef], fill_missing: bool) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match self.get(d.name) {
                Some(v) => v,
                None if fill_missing => 0.0,
                None => return Err(format!("metric `{}` was not measured", d.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite ({value})", d.name));
            }
            fields.push((
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(d.unit))]),
            ));
        }
        Ok(Json::obj(fields))
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn every_ratio_carries_a_declared_base() {
        for d in all() {
            let is_ratio = d.unit == "frac"
                || d.unit == "ratio"
                || d.name.ends_with("_frac")
                || d.name.contains("_per_request");
            if is_ratio {
                assert!(d.base.is_some(), "{} is a ratio without a base", d.name);
            }
            if let Some(b) = d.base {
                assert!(
                    all().any(|x| x.name == b),
                    "{}'s base {b} is not a printed metric",
                    d.name
                );
                assert_ne!(b, d.name);
            }
        }
    }

    #[test]
    fn names_and_units_follow_the_result_format() {
        let mut seen = std::collections::HashSet::new();
        for d in all() {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let j = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = j.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            let declared: Vec<(String, String)> = items
                .iter()
                .map(|it| match (it.get("name"), it.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("`{key}` entry without name/unit"),
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned()))
                .collect();
            assert_eq!(declared, ours, "`{key}` in BENCHMARK.json differs");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let line = result_line(true, 3, 0, m.to_json(END_TO_END, false).expect("all set"));
        let j = Json::parse(&line).expect("parses");
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = j
            .get("metrics")
            .and_then(|x| x.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit"), Some(&Json::from("s")));
    }

    #[test]
    fn missing_and_non_finite_values_are_refused() {
        let m = Metrics::default();
        assert!(m.to_json(END_TO_END, false).is_err());
        assert!(m.to_json(PER_LAYER, true).is_ok());
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.0);
        }
        m.set("latency_p99_us", f64::INFINITY);
        assert!(m.to_json(END_TO_END, false).is_err());
    }
}
