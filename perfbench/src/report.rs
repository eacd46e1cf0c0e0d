//! Metric names, failure accounting and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("flow_p50_us", "us"),
    ("adapt_s", "s"),
    ("job_s", "s"),
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::cnd_ids — benchmark timers around the public calls.
    ("core.train_experience_s", "s"),
    ("core.anomaly_scores_s", "s"),
    // core::cfe + ml::kmeans
    ("cfe.pseudo_labels_s", "s"),
    ("core.k_selected", "count"),
    // nn
    ("cfe.epoch_s", "s"),
    ("pipeline.encode_s", "s"),
    // ml::pca
    ("pca.fit_s", "s"),
    ("pca.score_s", "s"),
    ("pca.components", "count"),
    // metrics
    ("metrics.eval_s", "s"),
    ("quality.pr_auc", "ratio"),
    ("protocol.avg_f1", "ratio"),
    ("protocol.fwd_trans", "ratio"),
    // core::deploy
    ("deploy.score_b1_us", "us"),
    ("deploy.score_b8_us", "us"),
    ("deploy.score_chunks_s", "s"),
    // parallel
    ("parallel.threads", "count"),
    ("parallel.score_speedup", "ratio"),
    ("parallel.protocol_speedup", "ratio"),
    // datasets::ingest
    ("ingest.mem_rows_per_s", "rows/s"),
    ("ingest.quarantined", "count"),
    // store
    ("store.read_rows_per_s", "rows/s"),
    ("store.bytes_read", "bytes"),
    ("ingest.csv_s", "s"),
    ("store.train_from_store_s", "s"),
    // serve::server — the server's own lifecycle telemetry.
    ("serve.parse_p50_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.batch_form_p50_us", "us"),
    ("serve.score_p50_us", "us"),
    ("serve.write_p50_us", "us"),
    ("serve.total_p50_us", "us"),
    ("serve.total_p99_us", "us"),
    ("serve.outside_p50_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.queue_depth_p50", "count"),
    ("serve.shed", "count"),
    ("serve.reply_failures", "count"),
    ("serve.records_dropped", "count"),
    // generator (not gated)
    ("serve.client_p99_us", "us"),
    ("serve.client_p999_us", "us"),
    ("serve.client_samples", "count"),
    ("gen.late_max_us", "us"),
    ("serve.capacity_flows_per_s", "flows/s"),
    // serve::continual
    ("continual.drift_detections", "count"),
    ("continual.retrains", "count"),
    ("continual.swaps", "count"),
    ("continual.shadow_rejects", "count"),
    ("continual.rollbacks", "count"),
    ("continual.step_p50_us", "us"),
    ("continual.step_max_us", "us"),
    ("continual.retrain_s", "s"),
    ("continual.mirror_dropped", "count"),
    ("continual.shipped_swaps", "count"),
    // obs
    ("obs.overhead_ratio", "ratio"),
    ("protocol.unattributed_s", "s"),
    ("serve.unattributed_s", "s"),
    ("store.unattributed_s", "s"),
    ("serve-continual.unattributed_s", "s"),
];

/// Collects a run's metrics and its attempted/failed operation counts.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric. Panics on a name neither table declares: that
    /// is a bug in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one attempted operation, and a failure when `ok` is false.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if failed > 0 {
            eprintln!("check failed: {} ({failed} of {attempted})", what());
        }
    }

    /// The result line: every metric of the chosen table with its unit.
    /// A metric that is missing or not finite fails the run.
    pub fn render(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name).copied() {
                Some(v) if v.is_finite() => v,
                // Layers a workload does not reach read 0 in traced runs.
                None if traced => 0.0,
                other => {
                    self.op(false, || format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnd_obs::json::{parse_json, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn manifest() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn names_of(json: &Json, key: &str) -> Vec<(String, String)> {
        match json.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    #[test]
    fn every_name_uses_allowed_characters_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        let json = manifest();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for (name, _) in names_of(&json, key) {
                assert!(valid_name(&name), "bad {key} name {name:?}");
            }
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w:?}");
        }
    }

    #[test]
    fn manifest_matches_the_code() {
        let json = manifest();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_of(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_of(&json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names_of(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_and_counts_failures() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.op(true, String::new);
        let line = r.render(false);
        let json = parse_json(&line).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        for (name, _) in END_TO_END {
            assert!(
                json.get("metrics").and_then(|m| m.get(name)).is_some(),
                "{name}"
            );
        }
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        let json = parse_json(&r.render(false)).expect("result line is JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    }
}
