//! Machine-readable benchmark artefacts: the schema behind every
//! `BENCH_<name>.json` file the experiment harness emits.
//!
//! One experiment run produces one [`BenchReport`]: a named, seeded,
//! schema-versioned record of what was measured (instance sizes, thread
//! count, per-metric wall times) and where (an [`EnvFingerprint`] of the
//! machine). Reports are diffable run to run and are the unit the perf
//! gate ([`crate::gate`]) compares against committed baselines.
//!
//! The schema is deliberately boring: flat fields, derived `ns_per_op` /
//! `per_sec` numbers materialised at construction so a human reading the
//! JSON never has to divide, and a `schema_version` bumped on any breaking
//! shape change so stale baselines fail loudly instead of comparing
//! apples to oranges.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version of the `BENCH_*.json` shape. Bump on breaking changes; the gate
/// refuses to compare reports across versions.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Where a report was measured: enough environment to interpret (and
/// distrust) absolute numbers when two machines are compared.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvFingerprint {
    /// Workspace package version (`CARGO_PKG_VERSION` of hsa-bench).
    pub package_version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Logical CPUs available to the process.
    pub cpus: usize,
    /// True when the binary was built with debug assertions (a debug-build
    /// report must never be gated against a release baseline).
    pub debug_assertions: bool,
}

impl EnvFingerprint {
    /// Captures the current process environment.
    pub fn capture() -> EnvFingerprint {
        EnvFingerprint {
            package_version: env!("CARGO_PKG_VERSION").to_string(),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            debug_assertions: cfg!(debug_assertions),
        }
    }
}

/// One measured quantity: `ops` operations took `total_ns` nanoseconds
/// (median over repetitions; see [`crate::time_median_ns`]).
///
/// Latency-instrumented metrics additionally carry per-op `p50_ns` /
/// `p99_ns` tail percentiles. The fields are optional and *omitted from
/// the JSON when absent* (absent and `null` both read back as `None`), so
/// schema v1 artefacts written before percentiles existed still load — and
/// the gate can tell "never measured" from "stopped measuring".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, unique within its report (e.g. `"expanded_n40"`).
    pub name: String,
    /// Operations covered by `total_ns` (1 for single-shot measurements).
    pub ops: u64,
    /// Median wall time for the whole `ops` batch, nanoseconds.
    pub total_ns: u64,
    /// Derived: `total_ns / ops`.
    pub ns_per_op: f64,
    /// Derived: operations per second.
    pub per_sec: f64,
    /// Optional per-op median latency, nanoseconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p50_ns: Option<f64>,
    /// Optional per-op 99th-percentile latency, nanoseconds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub p99_ns: Option<f64>,
}

impl Metric {
    /// Builds a metric, materialising the derived rates.
    pub fn new(name: impl Into<String>, ops: u64, total_ns: u64) -> Metric {
        let ops = ops.max(1);
        let ns = total_ns.max(1);
        Metric {
            name: name.into(),
            ops,
            total_ns,
            ns_per_op: ns as f64 / ops as f64,
            per_sec: ops as f64 * 1e9 / ns as f64,
            p50_ns: None,
            p99_ns: None,
        }
    }

    /// Attaches tail-latency percentiles (per-op nanoseconds, clamped to
    /// ≥ 1 so validation and gate ratios stay well-defined).
    pub fn with_percentiles(mut self, p50_ns: u64, p99_ns: u64) -> Metric {
        self.p50_ns = Some(p50_ns.max(1) as f64);
        self.p99_ns = Some(p99_ns.max(1) as f64);
        self
    }
}

/// A free-form scalar annotation (speedups, cache counters, segment
/// counts…). Params are carried for humans and trend tooling; the perf
/// gate ignores them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Annotation key.
    pub key: String,
    /// Annotation value.
    pub value: f64,
}

/// One experiment's machine-readable result: the payload of
/// `BENCH_<name>.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Artefact stem: the file is named `BENCH_<name>.json`.
    pub name: String,
    /// Registry id of the generating experiment (e.g. `"t5"`).
    pub experiment: String,
    /// Human-readable one-liner.
    pub title: String,
    /// Workload profile: `"full"` or `"quick"`. The gate only compares
    /// reports of equal profile (the workload shapes differ).
    pub profile: String,
    /// RNG seed the workload generation actually used.
    pub seed: u64,
    /// Worker threads the harness actually used (1 = sequential timing).
    pub threads: usize,
    /// Instance sizes (CRUs, graph nodes, …) in workload order.
    pub instance_sizes: Vec<u64>,
    /// The measurements. Metric names are the gate's comparison keys.
    pub metrics: Vec<Metric>,
    /// Experiment-specific annotations (ignored by the gate).
    pub params: Vec<Param>,
    /// Where this was measured.
    pub env: EnvFingerprint,
}

impl BenchReport {
    /// Starts a report for experiment `experiment` with artefact stem
    /// `name`, capturing the current environment.
    pub fn new(
        name: impl Into<String>,
        experiment: impl Into<String>,
        title: impl Into<String>,
        profile: impl Into<String>,
        seed: u64,
    ) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            name: name.into(),
            experiment: experiment.into(),
            title: title.into(),
            profile: profile.into(),
            seed,
            threads: 1,
            instance_sizes: Vec::new(),
            metrics: Vec::new(),
            params: Vec::new(),
            env: EnvFingerprint::capture(),
        }
    }

    /// Appends a measurement.
    pub fn metric(&mut self, name: impl Into<String>, ops: u64, total_ns: u64) -> &mut Self {
        self.metrics.push(Metric::new(name, ops, total_ns));
        self
    }

    /// Appends a latency-instrumented measurement carrying per-op p50/p99
    /// tail percentiles (nanoseconds) next to the mean.
    pub fn metric_with_percentiles(
        &mut self,
        name: impl Into<String>,
        ops: u64,
        total_ns: u64,
        p50_ns: u64,
        p99_ns: u64,
    ) -> &mut Self {
        self.metrics
            .push(Metric::new(name, ops, total_ns).with_percentiles(p50_ns, p99_ns));
        self
    }

    /// Appends an annotation.
    pub fn param(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.params.push(Param {
            key: key.into(),
            value,
        });
        self
    }

    /// Looks up a metric by name.
    pub fn find_metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The artefact file name, `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Schema sanity: version match, non-empty identity and metrics,
    /// finite and positive numbers. Run on every load so a corrupt or
    /// stale artefact is rejected before anything compares against it.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema version {} (this build understands {})",
                self.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        if self.name.is_empty() || self.experiment.is_empty() {
            return Err("empty report name or experiment id".into());
        }
        if self.profile != "full" && self.profile != "quick" {
            return Err(format!("unknown profile `{}`", self.profile));
        }
        if self.metrics.is_empty() {
            return Err("report carries no metrics".into());
        }
        for m in &self.metrics {
            if m.name.is_empty() {
                return Err("unnamed metric".into());
            }
            if m.ops == 0 || m.total_ns == 0 {
                return Err(format!("metric `{}` has zero ops or time", m.name));
            }
            if !m.ns_per_op.is_finite() || !m.per_sec.is_finite() || m.ns_per_op <= 0.0 {
                return Err(format!("metric `{}` has non-finite rates", m.name));
            }
            for (pname, p) in [("p50_ns", m.p50_ns), ("p99_ns", m.p99_ns)] {
                if let Some(p) = p {
                    if !p.is_finite() || p <= 0.0 {
                        return Err(format!("metric `{}` has a bad {pname}", m.name));
                    }
                }
            }
            if let (Some(p50), Some(p99)) = (m.p50_ns, m.p99_ns) {
                if p50 > p99 {
                    return Err(format!("metric `{}` has p50_ns > p99_ns", m.name));
                }
            }
        }
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.metrics.len() {
            return Err("duplicate metric names".into());
        }
        Ok(())
    }

    /// Serialises as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BenchReport serialises") + "\n"
    }

    /// Writes `BENCH_<name>.json` under `dir` (created if missing).
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads and validates a report from a `BENCH_*.json` file.
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let report: BenchReport =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        report
            .validate()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("demo", "t0", "a demo report", "quick", 42);
        r.threads = 2;
        r.instance_sizes = vec![10, 20];
        r.metric("fast_path", 100, 1_000_000);
        r.metric("slow_path", 1, 5_000_000);
        r.param("speedup", 2.5);
        r
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let r = sample();
        let json = r.to_json();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        back.validate().unwrap();
    }

    #[test]
    fn derived_rates_are_materialised() {
        let m = Metric::new("x", 100, 1_000_000);
        assert_eq!(m.ns_per_op, 10_000.0);
        assert_eq!(m.per_sec, 100_000.0);
    }

    #[test]
    fn write_creates_directory_and_load_validates() {
        let dir = std::env::temp_dir().join("hsa-bench-report-test/nested");
        let _ = std::fs::remove_dir_all(&dir);
        let r = sample();
        let path = r.write_json(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_demo.json");
        let back = BenchReport::load(&path).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn validate_rejects_wrong_schema_version() {
        let mut r = sample();
        r.schema_version = 999;
        assert!(r.validate().unwrap_err().contains("schema version"));
    }

    #[test]
    fn validate_rejects_empty_metrics_and_duplicates() {
        let mut r = sample();
        r.metrics.clear();
        assert!(r.validate().is_err());
        let mut r = sample();
        let dup = r.metrics[0].clone();
        r.metrics.push(dup);
        assert!(r.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_unknown_profile() {
        let mut r = sample();
        r.profile = "warp".into();
        assert!(r.validate().unwrap_err().contains("profile"));
    }

    #[test]
    fn percentiles_round_trip_through_json() {
        let mut r = sample();
        r.metric_with_percentiles("tail_path", 1000, 2_000_000, 1_800, 9_500);
        let json = r.to_json();
        assert!(json.contains("\"p50_ns\"") && json.contains("\"p99_ns\""));
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let m = back.find_metric("tail_path").unwrap();
        assert_eq!((m.p50_ns, m.p99_ns), (Some(1_800.0), Some(9_500.0)));
        // Plain metrics keep their keys out of the JSON entirely.
        let plain = back.find_metric("fast_path").unwrap();
        assert_eq!((plain.p50_ns, plain.p99_ns), (None, None));
        back.validate().unwrap();
    }

    #[test]
    fn metrics_without_percentile_keys_still_load() {
        // A literal pre-percentile artefact shape: no p50_ns/p99_ns keys
        // anywhere. It must parse to `None`, not error.
        let legacy = r#"{
            "name": "old_path", "ops": 10, "total_ns": 1000,
            "ns_per_op": 100.0, "per_sec": 10000000.0
        }"#;
        let m: Metric = serde_json::from_str(legacy).unwrap();
        assert_eq!(m.name, "old_path");
        assert_eq!((m.p50_ns, m.p99_ns), (None, None));
        // And a serialised plain metric parses back without the keys.
        let re = serde_json::to_string(&m).unwrap();
        assert!(!re.contains("p50_ns") && !re.contains("null"));
    }

    /// Every committed baseline re-prints to its own bytes, both as a typed
    /// report and as an untyped `serde::Value`: the pretty printer's format
    /// is pinned by the files the gate compares against.
    #[test]
    fn committed_baselines_reprint_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let report: BenchReport = serde_json::from_str(&text).unwrap();
            assert!(
                report.to_json() == text,
                "{} re-prints differently",
                path.display()
            );
            let value: serde::Value = serde_json::from_str(&text).unwrap();
            let again = serde_json::to_string_pretty(&value).unwrap() + "\n";
            assert!(
                again == text,
                "{} re-prints differently as a Value",
                path.display()
            );
            seen += 1;
        }
        assert!(seen >= 9, "found {seen} baselines");
    }

    #[test]
    fn validate_rejects_bad_percentiles() {
        let mut r = sample();
        r.metric_with_percentiles("t", 1, 1_000, 10, 20);
        r.metrics.last_mut().unwrap().p99_ns = Some(f64::NAN);
        assert!(r.validate().unwrap_err().contains("p99_ns"));
        let mut r = sample();
        r.metric_with_percentiles("t", 1, 1_000, 500, 100);
        assert!(r.validate().unwrap_err().contains("p50_ns > p99_ns"));
    }
}
