//! The metric catalog (names and units, as listed in `BENCHMARK.json`) and
//! the one-line JSON result every run ends with.

use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, printed by every untraced run (`--trace 0`). Each
/// workload defines its "operation"; see README.md for the map.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer the
/// workload does not run reports zero work; the probes run on every
/// workload.
pub const PER_LAYER: &[Metric] = &[
    ("repro.pool.busy_s", "s"),
    ("repro.pool.idle_s", "s"),
    ("apps.barnes_hut.host_s", "s"),
    ("apps.barnes_hut.mrefs_per_s", "Mref/s"),
    ("apps.block_cholesky.host_s", "s"),
    ("apps.block_cholesky.mrefs_per_s", "Mref/s"),
    ("apps.gauss.host_s", "s"),
    ("apps.gauss.mrefs_per_s", "Mref/s"),
    ("apps.locusroute.host_s", "s"),
    ("apps.locusroute.mrefs_per_s", "Mref/s"),
    ("apps.ocean.host_s", "s"),
    ("apps.ocean.mrefs_per_s", "Mref/s"),
    ("apps.panel_cholesky.host_s", "s"),
    ("apps.panel_cholesky.mrefs_per_s", "Mref/s"),
    ("apps.serve_adapter.body_us", "us"),
    ("dash_sim.refs", "count"),
    ("dash_sim.probe_refs", "count"),
    ("dash_sim.machine.ns_per_ref", "ns"),
    ("dash_sim.machine.ns_per_ref.cal", "calop"),
    ("dash_sim.engine.ns_per_ref", "ns"),
    ("dash_sim.engine.ns_per_ref.cal", "calop"),
    ("dash_sim.engine.ratio", "ratio"),
    ("dash_sim.engine.ns_per_txn", "ns"),
    ("dash_sim.engine.ns_per_txn.cal", "calop"),
    ("cool_sim.ns_per_task.p32", "ns"),
    ("cool_sim.ns_per_task.p32.cal", "calop"),
    ("cool_sim.ns_per_task.p64", "ns"),
    ("cool_sim.ns_per_task.p64.cal", "calop"),
    ("cool_sim.tasks", "count"),
    ("cool_sim.steal_success_ratio", "ratio"),
    ("cool_sim.remote_steals", "count"),
    ("feedback.adaptive_widenings", "count"),
    ("feedback.rebalanced_pages", "count"),
    ("feedback.adaptive_points_s", "s"),
    ("feedback.static_points_s", "s"),
    ("cool_rt.spawn_ns.unhinted", "ns"),
    ("cool_rt.spawn_ns.unhinted.cal", "calop"),
    ("cool_rt.spawn_ns.object", "ns"),
    ("cool_rt.spawn_ns.object.cal", "calop"),
    ("cool_rt.tasks", "count"),
    ("cool_rt.failed_steal_ratio", "ratio"),
    ("cool_rt.affinity_hit_ratio", "ratio"),
    ("cool_rt.mutex_parks", "count"),
    ("serve.lat_p50_us", "us"),
    ("serve.lat_tail_us", "us"),
    ("serve.goodput_rps", "1/s"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_tail_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("loadgen.lag_tail_us", "us"),
    ("host.calib_ops_per_s", "1/s"),
    ("host.nproc", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_s.bench.repro", "s"),
    ("trace.self_s.apps", "s"),
    ("trace.self_s.cool_rt", "s"),
    ("trace.self_s.serve", "s"),
    ("trace.self_s.loadgen", "s"),
];

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (points, factorizations, requests, probes).
    pub attempted: u64,
    /// Operations that failed a correctness check or did not complete.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Count one attempted operation, failed when `problem` is set.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `catalog` with its unit. Fails if a catalog metric is missing or not a
/// finite number, or if the run reports a metric the catalog lacks.
pub fn result_line(run: &RunResult, catalog: &[Metric]) -> Result<String, String> {
    for name in run.values.keys() {
        if !catalog.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the catalog"));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in catalog {
        let v = *run
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("array present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closed")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closed");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn catalog_pairs(c: &[Metric]) -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_catalog() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(listed(&doc, "end_to_end"), catalog_pairs(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalog_pairs(PER_LAYER));
    }

    #[test]
    fn every_catalog_metric_is_emitted_with_its_unit() {
        for catalog in [END_TO_END, PER_LAYER] {
            let mut run = RunResult::default();
            run.check(None);
            for (i, (name, _)) in catalog.iter().enumerate() {
                run.values.insert(name, 1.5 + i as f64);
            }
            let line = result_line(&run, catalog).unwrap();
            for (name, unit) in catalog {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {line}"
                );
                let at = line.find(&format!("\"{name}\":")).unwrap();
                assert!(line[at..].contains(&format!("\"unit\": \"{unit}\"}}")));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_refuse_to_print() {
        let mut run = RunResult::default();
        run.check(None);
        assert!(result_line(&run, END_TO_END).is_err());
        for (name, _) in END_TO_END {
            run.values.insert(name, 1.0);
        }
        assert!(result_line(&run, END_TO_END).is_ok());
        run.values.insert("setup_s", f64::NAN);
        assert!(result_line(&run, END_TO_END).is_err());
        run.values.insert("setup_s", 1.0);
        run.values.insert("not_a_metric", 1.0);
        assert!(result_line(&run, END_TO_END).is_err());
    }

    #[test]
    fn failures_show_in_the_error_rate_and_the_verdict() {
        let mut run = RunResult::default();
        for (name, _) in END_TO_END {
            run.values.insert(name, 1.0);
        }
        run.check(None);
        run.check(Some("wrong".into()));
        assert_eq!(run.error_rate(), 0.5);
        let line = result_line(&run, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
