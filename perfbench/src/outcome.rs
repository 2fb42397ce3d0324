//! What one workload process measured, and its JSON rendering.

use std::collections::BTreeMap;

use dlt_sim::shard::mix;
use dlt_testkit::json::Json;

use crate::probe::Trace;

/// Confirmation-latency samples of one workload, in simulated ms.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    /// One sample per confirmed transfer.
    pub samples_ms: Vec<f64>,
    /// Sampling resolution (0 = exact).
    pub resolution_ms: f64,
}

impl Latency {
    /// Median and tail percentile: p99 with at least 1000 samples,
    /// otherwise the highest percentile that leaves 10 samples beyond
    /// it. Returns `(p50, tail, tail_percentile)`.
    pub fn summary(&self) -> Option<(f64, f64, f64)> {
        let mut sorted = self.samples_ms.clone();
        let n = sorted.len();
        if n < 20 {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let tail_q = if n >= 1000 {
            0.99
        } else {
            1.0 - 10.0 / n as f64
        };
        Some((
            nearest_rank(&sorted, 0.5),
            nearest_rank(&sorted, tail_q),
            tail_q * 100.0,
        ))
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The result of one workload process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds spent building keys, funding, inputs and nodes.
    pub setup_s: f64,
    /// Host seconds of the timed run.
    pub run_s: f64,
    /// Honest transfers offered.
    pub offered: u64,
    /// Offered honest transfers refused or lost.
    pub failed: u64,
    /// Transfers confirmed inside the simulated load window.
    pub confirmed_in_window: u64,
    /// Length of the simulated load window, in seconds.
    pub window_s: f64,
    /// Confirmation latency, where the workload defines one.
    pub latency: Option<Latency>,
    /// Named correctness checks.
    pub checks: Vec<(String, bool)>,
    /// Fold of the simulated outcome.
    pub digest: u64,
    /// Fold of the generated inputs.
    pub input_digest: u64,
    /// Further exact simulated values.
    pub sim: BTreeMap<String, f64>,
    /// Layer metrics and spans of a traced run.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Every simulated (seed-exact) value, the ones the self-tests
    /// compare between runs.
    pub fn simulated(&self) -> BTreeMap<String, f64> {
        let mut out = self.sim.clone();
        out.insert("offered".into(), self.offered as f64);
        out.insert("failed".into(), self.failed as f64);
        out.insert(
            "sim_confirmed_tps".into(),
            self.confirmed_in_window as f64 / self.window_s,
        );
        if let Some(latency) = &self.latency {
            out.insert("confirm_samples".into(), latency.samples_ms.len() as f64);
            out.insert("confirm_resolution_ms".into(), latency.resolution_ms);
            if let Some((p50, tail, q)) = latency.summary() {
                out.insert("confirm_p50_ms".into(), p50);
                out.insert("confirm_p99_ms".into(), tail);
                out.insert("confirm_tail_percentile".into(), q);
            }
        }
        out
    }

    /// One JSON object per process.
    pub fn to_json(&self, workload: &str, seed: u64, peak_rss_mb: f64) -> Json {
        let number_map = |map: &BTreeMap<String, f64>| {
            Json::Object(
                map.iter()
                    .map(|(k, v)| (k.clone(), Json::number(*v)))
                    .collect(),
            )
        };
        let checks = Json::Object(
            self.checks
                .iter()
                .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
                .collect(),
        );
        let layers = self
            .trace
            .as_ref()
            .map_or(Json::Null, |t| number_map(t.values()));
        Json::object([
            ("workload", Json::string(workload)),
            ("seed", Json::number(seed as f64)),
            ("traced", Json::Bool(self.trace.is_some())),
            ("setup_s", Json::number(self.setup_s)),
            ("run_s", Json::number(self.run_s)),
            ("peak_rss_mb", Json::number(peak_rss_mb)),
            ("offered", Json::number(self.offered as f64)),
            ("failed", Json::number(self.failed as f64)),
            ("checks", checks),
            ("digest", Json::string(format!("{:016x}", self.digest))),
            (
                "input_digest",
                Json::string(format!("{:016x}", self.input_digest)),
            ),
            ("sim", number_map(&self.simulated())),
            ("layers", layers),
        ])
    }
}

/// Running SplitMix64 fold for digests.
#[derive(Debug, Clone, Copy)]
pub struct Fold(pub u64);

impl Fold {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }
}
