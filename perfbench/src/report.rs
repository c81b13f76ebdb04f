//! The metric sets the benchmark declares and the result it prints.
//!
//! Every workload reports every end-to-end metric of [`END_TO_END`] from an
//! untraced run, and every per-layer metric of [`PER_LAYER`] from a traced
//! run; a layer that does no work on a workload reports 0 there.

use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tok_s", "tok/s"),
    ("op_ms_p50", "ms"),
    ("peak_bytes", "B"),
    ("model_bytes", "B"),
    ("eval_ppl", "ppl"),
];

/// `(name, unit)` of each per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 48] = [
    // train-edkm
    ("train.step_ms_p50", "ms"),
    ("train.step_ms_p90", "ms"),
    ("train.other_ms", "ms"),
    ("dkm.cluster_ms", "ms"),
    ("dkm.calls", "count"),
    ("dkm.iters_mean", "count"),
    ("nn.forward_self_ms", "ms"),
    ("autograd.backward_self_ms", "ms"),
    ("hooks.pack_ms", "ms"),
    ("hooks.unpack_ms", "ms"),
    ("hooks.packs", "count"),
    ("hooks.dedup_ratio", "ratio"),
    ("hooks.walk_hits", "count"),
    ("hooks.unpack_cache_ratio", "ratio"),
    ("uniquify.entries", "count"),
    ("uniquify.bytes_ratio", "ratio"),
    ("store.sharded_entries", "count"),
    ("store.local_bytes", "B"),
    ("runtime.d2h_bytes", "B"),
    ("runtime.h2d_bytes", "B"),
    ("runtime.sim_s", "s"),
    ("optim.step_ms", "ms"),
    ("pipeline.export_ms", "ms"),
    // serve-decode and serve-chat
    ("engine.submit_us_p50", "us"),
    ("infer.prefill_ms_p50", "ms"),
    ("infer.prefill_rows_mean", "count"),
    ("infer.prefill_calls", "count"),
    ("infer.decode_ms_p50", "ms"),
    ("infer.decode_rows_mean", "count"),
    ("infer.decode_calls", "count"),
    ("infer.busy_ratio", "ratio"),
    ("serve.step_gap_ms_p50", "ms"),
    ("serve.preemptions", "count"),
    ("serve.ttft_ms_p50", "ms"),
    ("serve.ttft_ms_p90", "ms"),
    ("serve.itl_ms_p50", "ms"),
    ("serve.itl_ms_p90", "ms"),
    ("kv.prefix_hit_ratio", "ratio"),
    ("kv.prefix_token_ratio", "ratio"),
    ("kv.peak_blocks", "count"),
    ("kv.cached_blocks_peak", "count"),
    ("scratch.grow_ratio", "ratio"),
    ("kernel.flops_per_token", "flop/tok"),
    ("kernel.bytes_per_token", "B/tok"),
    // harness, every workload
    ("harness.overhead_ratio", "ratio"),
    ("harness.gen_lag_ms_p50", "ms"),
    ("harness.gen_lag_ms_max", "ms"),
    ("harness.in_flight_max", "count"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (training steps or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness-gate failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Informational `key: value` lines printed before the result.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record an informational line.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Record a gate failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The declared metrics of this mode, each with its value. A per-layer
    /// metric the workload does not exercise reads 0; a missing end-to-end
    /// metric is a gate failure.
    pub fn declared(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            if !crate::stats::valid_metric_name(name) {
                self.errors.push(format!(
                    "metric name {name:?} uses a character outside [A-Za-z0-9_.-]"
                ));
            }
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.errors
                        .push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.errors
                    .push(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, value, unit));
        }
        out
    }
}

/// Format a number as JSON (non-finite values become `null`, which the
/// gates have already flagged).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }

    #[test]
    fn declared_sets_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = json
                .find(&quoted(name))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            let entry = &json[at..at + json[at..].find('}').expect("entry closes")];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: {entry}"
            );
        }
        let declared = json.matches("\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("tok_s", 12.5, "tok/s"), ("setup_s", 0.25, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"tok_s\": {\"value\": 12.5, \"unit\": \"tok/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn missing_end_to_end_metric_is_a_gate_failure_but_idle_layers_read_zero() {
        let mut o = Outcome::default();
        o.set("tok_s", 1.0);
        let traced = o.declared(true);
        assert!(traced.iter().all(|(_, v, _)| *v == 0.0));
        assert!(o.errors.is_empty());
        o.declared(false);
        assert!(o.errors.iter().any(|e| e.contains("setup_s")));
    }
}
