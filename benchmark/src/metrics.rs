//! The metric names and units of `BENCHMARK.json`, the correctness gate
//! that feeds `ok_share`, and what one run hands back to `main`.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics, reported by every workload of an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("steady_s", "s"),
    ("fit", "ratio"),
    ("plan_bytes", "B"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics of a traced run, named `<module>.<what>`.  A workload
/// reports 0 for a layer its harness never calls directly (the `service.*`
/// rows on a solver workload, the solver rows on `service-mix`).
pub const PER_LAYER: [(&str, &str); 67] = [
    ("io.ingest_s", "s"),
    ("io.ingest_mb_s", "MB/s"),
    ("io.peak_parse_words", "count"),
    ("plan.symbolic_s", "s"),
    ("plan.dimtree_s", "s"),
    ("plan.other_s", "s"),
    ("pool.build_s", "s"),
    ("plan.bytes", "B"),
    ("ttmc.s", "s"),
    ("ttmc.mode0_s", "s"),
    ("ttmc.mode1_s", "s"),
    ("ttmc.mode2_s", "s"),
    ("ttmc.mode3_s", "s"),
    ("ttmc.flops", "count"),
    ("ttmc.words", "count"),
    ("ttmc.gflops", "GFLOP/s"),
    ("ttmc.gbs", "GB/s"),
    ("ttmc.share", "ratio"),
    ("trsvd.s", "s"),
    ("trsvd.mode0_s", "s"),
    ("trsvd.mode1_s", "s"),
    ("trsvd.mode2_s", "s"),
    ("trsvd.mode3_s", "s"),
    ("trsvd.applications", "count"),
    ("trsvd.operator_s", "s"),
    ("trsvd.non_operator_s", "s"),
    ("trsvd.share", "ratio"),
    ("linalg.gemv_gbs", "GB/s"),
    ("linalg.gemv_t_gbs", "GB/s"),
    ("linalg.stream_gbs", "GB/s"),
    ("ttmc.roofline_frac", "ratio"),
    ("trsvd.roofline_frac", "ratio"),
    ("core.s", "s"),
    ("fit.s", "s"),
    ("solve.init_s", "s"),
    ("solve.iter1_s", "s"),
    ("solve.iter_rest_s", "s"),
    ("solve.cold_extra_s", "s"),
    ("solve.replay_ratio", "ratio"),
    ("solve.unattributed_share", "ratio"),
    ("solve.t1_s", "s"),
    ("solve.speedup", "ratio"),
    ("service.new_s", "s"),
    ("service.ingest_p50_ms", "ms"),
    ("service.decompose_p50_ms", "ms"),
    ("service.decompose_p95_ms", "ms"),
    ("service.predict_p50_ms", "ms"),
    ("service.req_p50_ms", "ms"),
    ("service.req_p95_ms", "ms"),
    ("service.req_p99_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.replans", "count"),
    ("service.evictions", "count"),
    ("service.fairness_spread", "ratio"),
    ("service.overhead_ratio", "ratio"),
    ("service.requests", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("host.calib_spread", "ratio"),
    ("host.steal_share", "ratio"),
    ("run.cycles", "count"),
    ("run.setup_s", "s"),
    ("run.e2e_s", "s"),
    ("run.steady_s", "s"),
    ("run.prepare_s", "s"),
    ("run.verify_s", "s"),
];

/// Counts operations attempted and failed.  An operation is a call into
/// the program that can return an error, or a check of what it returned.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts a fallible call; `None` (and a recorded failure) on `Err`.
    pub fn ok<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        // A systematic fault fails every cycle the same way; keep the log
        // readable.
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Metric name → in-run summary, as filled by a workload.
pub type Metrics = BTreeMap<&'static str, Summary>;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub metrics: Metrics,
    /// The samples behind each sampled metric, in the order taken; they go
    /// into the result file so a disturbed run can be read sample by sample.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub cycles: usize,
    /// Seconds of the fixed calibration loop, one per cycle.
    pub calib: Vec<f64>,
    /// Facts worth a line in the result file that are not metrics (resolved
    /// strategy, dims, nnz, ...).
    pub notes: Vec<(String, String)>,
}

impl Measured {
    pub fn sampled(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.metrics.insert(name, Summary::of(samples));
            self.samples.insert(name, samples.to_vec());
        }
    }

    /// A timed end-to-end metric: reports the fastest of its samples.
    pub fn timed(&mut self, name: &'static str, samples: &[f64]) {
        if !samples.is_empty() {
            self.metrics.insert(name, Summary::fastest_of(samples));
            self.samples.insert(name, samples.to_vec());
        }
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Summary::exact(value));
    }

    pub fn note(&mut self, key: &str, value: impl Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn gate_counts_attempts_and_failures() {
        let mut gate = Gate::default();
        gate.check(true, || unreachable!());
        gate.check(false, || "fit drifted".to_string());
        assert_eq!(gate.ok("parse", "7".parse::<u32>()), Some(7));
        assert_eq!(gate.ok("parse", "x".parse::<u32>()), None);
        assert_eq!((gate.attempted, gate.failed), (4, 2));
        assert_eq!(gate.ok_share(), 0.5);
        assert_eq!(gate.failures[0], "fit drifted");
        assert!(gate.failures[1].starts_with("parse: "));
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let decl = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = decl
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key}");
        }
        let workloads: Vec<&str> = decl
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
