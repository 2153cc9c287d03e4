//! # hsa-bench — the experiment subsystem
//!
//! Everything empirical lives behind one registry
//! ([`experiments::REGISTRY`]): figure reproductions, quantitative
//! studies and ablations are all named [`experiments::Experiment`]s with
//! declared artefacts and paper references. The **`repro` binary**
//! (`cargo run -p hsa-bench --bin repro --release`) is the one way to run
//! or time them: `--list` enumerates the registry, `--all` runs the full
//! matrix, `--exp <id>` one experiment, `--gate <dir>` the CI perf gate.
//!
//! Perf-tracked experiments emit schema-versioned `BENCH_<name>.json`
//! artefacts ([`report::BenchReport`]: seed, instance sizes, threads,
//! ns/op, solves/sec, environment fingerprint); [`gate`] compares a fresh
//! run against committed baselines with a configurable relative tolerance
//! and renders a human-readable regression table.
//!
//! This library also hosts the shared pieces: deterministic instance
//! suites, wall-clock measurement helpers and a tiny CSV writer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub mod experiments;
pub mod gate;
pub mod report;

pub use report::{BenchReport, EnvFingerprint, Metric, BENCH_SCHEMA_VERSION};

/// A measured duration in nanoseconds (median of `reps` runs).
pub fn time_median_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    median_ns(samples)
}

/// The median of non-empty `samples` (the upper middle one of an even
/// count).
pub(crate) fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A simple CSV table accumulated in memory and flushed to `results/`.
#[derive(Debug, Clone)]
pub struct CsvTable {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    pub fn new(name: &str, header: &[&str]) -> Self {
        CsvTable {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header length).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders an aligned text table for stdout.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(r, &widths, &mut out);
        }
        out
    }

    /// Writes `results/<name>.csv` under `dir`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut s = self.header.join(",");
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// The standard random-instance suite for solver sweeps: sizes × placements,
/// `per_cell` seeds each. Deterministic.
pub fn sweep_instances(
    sizes: &[usize],
    placements: &[Placement],
    n_satellites: u32,
    per_cell: u64,
) -> Vec<(
    usize,
    Placement,
    u64,
    hsa_tree::CruTree,
    hsa_tree::CostModel,
)> {
    let mut out = Vec::new();
    for &n in sizes {
        for &pl in placements {
            for seed in 0..per_cell {
                let (tree, costs) = random_instance(
                    &RandomTreeParams {
                        n_crus: n,
                        n_satellites,
                        placement: pl,
                        ..RandomTreeParams::default()
                    },
                    seed + 1000 * n as u64,
                );
                out.push((n, pl, seed, tree, costs));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let mut t = CsvTable::new("demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["30".into(), "40".into()]);
        assert_eq!(t.len(), 2);
        let text = t.render_text();
        assert!(text.contains("a") && text.contains("40"));
        let dir = std::env::temp_dir().join("hsa-bench-test");
        let p = t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n30,40\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = CsvTable::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep_instances(&[10, 20], &[Placement::Blocked], 3, 2);
        let b = sweep_instances(&[10, 20], &[Placement::Blocked], 3, 2);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.3, y.3);
        }
    }

    #[test]
    fn timing_returns_positive() {
        let ns = time_median_ns(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(ns > 0);
    }
}
