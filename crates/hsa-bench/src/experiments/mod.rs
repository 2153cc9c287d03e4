//! The central experiment registry: every figure reproduction, every
//! quantitative study and every ablation of this workspace, as one named,
//! enumerable, reproducible catalog. The `repro` binary is the one way to
//! run or time an entry; nothing else in the workspace measures them.
//!
//! One [`Experiment`] entry carries everything the harness needs:
//!
//! * a stable **id** (`f4`, `t5`, …) — what `repro --exp` dispatches on;
//! * the **artefacts** it emits under the output directory (CSV tables
//!   and, for perf-tracked experiments, a schema-versioned
//!   `BENCH_<name>.json` — see [`crate::report`]);
//! * its **paper reference**, so EXPERIMENTS.md's id ↔ artefact ↔ section
//!   table is generated from this registry ([`markdown_table`]) instead of
//!   drifting by hand.
//!
//! Experiments run under a [`Profile`]: `Full` is the paper-faithful
//! workload, `Quick` a shrunk one for CI and the perf gate (same code
//! path, smaller instances — the profile is recorded inside every emitted
//! report so the gate never compares across workload shapes).

use crate::report::BenchReport;
use std::path::Path;

mod figures;
mod studies;

/// Workload size: the paper-faithful matrix or the shrunk CI variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// The full experiment matrix (default for `repro`).
    Full,
    /// Shrunk instances and fewer repetitions — same code path, suitable
    /// for CI runners and the perf gate.
    Quick,
}

impl Profile {
    /// The name recorded in emitted reports (`"full"` / `"quick"`).
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Quick => "quick",
        }
    }

    /// Selects the profile-appropriate value.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Profile::Full => full,
            Profile::Quick => quick,
        }
    }
}

/// Everything an experiment's run function needs.
#[derive(Clone, Copy, Debug)]
pub struct ExpCtx<'a> {
    /// Directory artefacts are written under (created if missing).
    pub out_dir: &'a Path,
    /// Active workload profile.
    pub profile: Profile,
}

impl<'a> ExpCtx<'a> {
    /// Builds a context.
    pub fn new(out_dir: &'a Path, profile: Profile) -> ExpCtx<'a> {
        ExpCtx { out_dir, profile }
    }

    /// Writes a finished report under the output directory and prints the
    /// artefact path — the one funnel every BENCH artefact goes through.
    pub fn emit(&self, report: &BenchReport) {
        let path = report.write_json(self.out_dir).expect("write BENCH json");
        println!("bench artefact: {}", path.display());
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Stable id (`f2`…`f9`, `t1`…`t14`, `a1`).
    pub id: &'static str,
    /// Human-readable one-line title.
    pub title: &'static str,
    /// Paper section (or DESIGN.md section) the experiment reproduces.
    pub paper_ref: &'static str,
    /// Files emitted under the output directory.
    pub artefacts: &'static [&'static str],
    /// The `BENCH_*.json` artefact, when this experiment is perf-tracked.
    pub bench_artefact: Option<&'static str>,
    /// Runs the experiment, writing its artefacts.
    pub run: fn(&ExpCtx),
}

/// The registry. Order is presentation order (`repro --list`, `--all`).
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "f2",
        title: "Figure 2 — the CRU tree with pinned sensors",
        paper_ref: "§1, Fig. 2",
        artefacts: &[],
        bench_artefact: None,
        run: figures::f2,
    },
    Experiment {
        id: "f4",
        title: "Figure 3/4 — the SSB algorithm's worked trace",
        paper_ref: "§4, Fig. 3–4",
        artefacts: &["f4_ssb_trace.csv"],
        bench_artefact: None,
        run: figures::f4,
    },
    Experiment {
        id: "f5",
        title: "Figure 5 — colouring and host-forced CRUs",
        paper_ref: "§5.1, Fig. 5",
        artefacts: &["f5_colouring.csv"],
        bench_artefact: None,
        run: figures::f5,
    },
    Experiment {
        id: "f6",
        title: "Figure 6 — the coloured assignment graph",
        paper_ref: "§5.2, Fig. 6",
        artefacts: &["f6_assignment_graph.csv"],
        bench_artefact: None,
        run: figures::f6,
    },
    Experiment {
        id: "f8",
        title: "Figure 8 — σ (host time) labelling",
        paper_ref: "§5.3, Fig. 8",
        artefacts: &["f8_sigma_labels.csv"],
        bench_artefact: None,
        run: figures::f8,
    },
    Experiment {
        id: "f9",
        title: "Figure 9/10 — expansion & branching events",
        paper_ref: "§5.4, Fig. 9–10",
        artefacts: &["f9_expansion_events.csv"],
        bench_artefact: None,
        run: figures::f9,
    },
    Experiment {
        id: "t1",
        title: "T1 — generic SSB runtime vs |V|,|E| (O(|V|²|E|) claim)",
        paper_ref: "§4.2",
        artefacts: &["t1_ssb_scaling.csv", "BENCH_ssb_scaling.json"],
        bench_artefact: Some("BENCH_ssb_scaling.json"),
        run: studies::t1,
    },
    Experiment {
        id: "t2",
        title: "T2 — expanded graph size |E′| and adapted-algorithm work",
        paper_ref: "§5.4",
        artefacts: &["t2_expansion_cost.csv", "BENCH_expansion.json"],
        bench_artefact: Some("BENCH_expansion.json"),
        run: studies::t2,
    },
    Experiment {
        id: "t3",
        title: "T3 — SSB objective vs Bokhari's SB objective",
        paper_ref: "§2",
        artefacts: &["t3_objective_gap.csv"],
        bench_artefact: None,
        run: studies::t3,
    },
    Experiment {
        id: "t4",
        title: "T4 — simulator vs analytic model (and eager ablation)",
        paper_ref: "§3",
        artefacts: &["t4_sim_validation.csv"],
        bench_artefact: None,
        run: studies::t4,
    },
    Experiment {
        id: "t5",
        title: "T5 — exact solvers: agreement and runtime vs n",
        paper_ref: "§5.5",
        artefacts: &["t5_solver_comparison.csv", "BENCH_solver_comparison.json"],
        bench_artefact: Some("BENCH_solver_comparison.json"),
        run: studies::t5,
    },
    Experiment {
        id: "t6",
        title: "T6 — heterogeneity sweep: when does offloading win?",
        paper_ref: "§1",
        artefacts: &["t6_heterogeneity.csv"],
        bench_artefact: None,
        run: studies::t6,
    },
    Experiment {
        id: "t7",
        title: "T7 — future-work heuristics vs exact optimum",
        paper_ref: "§6",
        artefacts: &["t7_heuristics.csv"],
        bench_artefact: None,
        run: studies::t7,
    },
    Experiment {
        id: "t8",
        title: "T8 — epilepsy tele-monitoring end-to-end",
        paper_ref: "§1 (motivating scenario)",
        artefacts: &["t8_epilepsy.csv"],
        bench_artefact: None,
        run: studies::t8,
    },
    Experiment {
        id: "t9",
        title: "T9 — engine batch throughput: batched+cached vs naive per-call",
        paper_ref: "DESIGN.md §7",
        artefacts: &["t9_engine_throughput.csv", "BENCH_engine.json"],
        bench_artefact: Some("BENCH_engine.json"),
        run: studies::t9,
    },
    Experiment {
        id: "t10",
        title: "T10 — λ-frontier envelope: one-pass frontier vs per-λ solve grid",
        paper_ref: "DESIGN.md §7",
        artefacts: &["t10_lambda_frontier.csv", "BENCH_frontier.json"],
        bench_artefact: Some("BENCH_frontier.json"),
        run: studies::t10,
    },
    Experiment {
        id: "t11",
        title: "T11 — incremental re-solve (Session) vs from-scratch on drifting instances",
        paper_ref: "DESIGN.md §9",
        artefacts: &["t11_incremental.csv", "BENCH_incremental.json"],
        bench_artefact: Some("BENCH_incremental.json"),
        run: studies::t11,
    },
    Experiment {
        id: "t12",
        title: "T12 — service throughput vs workers under a Zipf request stream",
        paper_ref: "DESIGN.md §10",
        artefacts: &["t12_service_stream.csv", "BENCH_service.json"],
        bench_artefact: Some("BENCH_service.json"),
        run: studies::t12,
    },
    Experiment {
        id: "t13",
        title: "T13 — loopback TCP service: wire overhead & throughput vs concurrent connections",
        paper_ref: "DESIGN.md §13, §15",
        artefacts: &["t13_net_stream.csv", "BENCH_net.json"],
        bench_artefact: Some("BENCH_net.json"),
        run: studies::t13,
    },
    Experiment {
        id: "t14",
        title: "T14 — anytime portfolio: time-to-first-answer & certified gap vs instance scale",
        paper_ref: "DESIGN.md §14",
        artefacts: &["t14_portfolio.csv", "BENCH_portfolio.json"],
        bench_artefact: Some("BENCH_portfolio.json"),
        run: studies::t14,
    },
    Experiment {
        id: "a1",
        title: "A1 — ablations: elimination rule and iterate-vs-sweep",
        paper_ref: "DESIGN.md §2",
        artefacts: &["a1_ablations.csv"],
        bench_artefact: None,
        run: studies::a1,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// All registered ids, in presentation order.
pub fn ids() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.id).collect()
}

/// Runs one experiment by id.
pub fn run(id: &str, ctx: &ExpCtx) -> Result<(), String> {
    let exp = find(id).ok_or_else(|| format!("unknown experiment id `{id}`"))?;
    std::fs::create_dir_all(ctx.out_dir).map_err(|e| e.to_string())?;
    (exp.run)(ctx);
    Ok(())
}

/// Generates EXPERIMENTS.md's experiment-id ↔ artefact ↔ paper-section
/// table from the registry (also printed by `repro --table`).
pub fn markdown_table() -> String {
    let mut out = String::new();
    out.push_str("| Id | Experiment | Paper ref | Artefacts | Perf-gated |\n");
    out.push_str("|---|---|---|---|---|\n");
    for e in REGISTRY {
        let artefacts = if e.artefacts.is_empty() {
            "*(stdout only)*".to_string()
        } else {
            e.artefacts
                .iter()
                .map(|a| format!("`{a}`"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            e.id,
            e.title.replace('|', "\\|"),
            e.paper_ref,
            artefacts,
            if e.bench_artefact.is_some() {
                "✅"
            } else {
                ""
            }
        ));
    }
    out
}

/// Renders the measured metrics of every perf-tracked artefact found
/// under `dir` as a markdown table, with per-op mean and — when the
/// artefact carries them — p50/p99 columns (dash when absent, so
/// pre-percentile artefacts still render). Returns `None` when `dir`
/// holds no readable bench artefact at all.
pub fn metrics_table(dir: &Path) -> Option<String> {
    let fmt = |v: Option<f64>| match v {
        Some(ns) => format!("{:.1}", ns / 1000.0),
        None => "-".to_string(),
    };
    let mut out = String::new();
    out.push_str("| Id | Metric | ns/op | p50 (µs) | p99 (µs) |\n");
    out.push_str("|---|---|---|---|---|\n");
    let mut any = false;
    for e in REGISTRY {
        let Some(bench) = e.bench_artefact else {
            continue;
        };
        let Ok(report) = BenchReport::load(&dir.join(bench)) else {
            continue;
        };
        any = true;
        for m in &report.metrics {
            out.push_str(&format!(
                "| {} | {} | {:.0} | {} | {} |\n",
                e.id,
                m.name,
                m.ns_per_op,
                fmt(m.p50_ns),
                fmt(m.p99_ns),
            ));
        }
    }
    any.then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut seen = std::collections::BTreeSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
            assert_eq!(find(e.id).unwrap().id, e.id);
        }
        assert!(find("zz").is_none());
    }

    #[test]
    fn bench_artefacts_are_listed_among_artefacts() {
        for e in REGISTRY {
            if let Some(bench) = e.bench_artefact {
                assert!(
                    e.artefacts.contains(&bench),
                    "{}: bench artefact {bench} missing from artefact list",
                    e.id
                );
                assert!(bench.starts_with("BENCH_") && bench.ends_with(".json"));
            }
        }
    }

    #[test]
    fn at_least_five_experiments_are_perf_tracked() {
        let tracked = REGISTRY
            .iter()
            .filter(|e| e.bench_artefact.is_some())
            .count();
        assert!(tracked >= 5, "only {tracked} perf-tracked experiments");
    }

    #[test]
    fn markdown_table_names_every_experiment() {
        let table = markdown_table();
        for e in REGISTRY {
            assert!(table.contains(e.id), "table misses {}", e.id);
        }
        assert!(table.contains("BENCH_engine.json"));
    }

    #[test]
    fn experiments_md_table_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
        let start = doc
            .find("| Id | Experiment |")
            .expect("EXPERIMENTS.md carries the registry table");
        let table: String = doc[start..]
            .lines()
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            table,
            markdown_table(),
            "EXPERIMENTS.md's registry table is stale: paste `repro --table`"
        );
    }

    #[test]
    fn metrics_table_renders_percentiles_and_dashes() {
        let dir = std::env::temp_dir().join("hsa-bench-metrics-table-test");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(metrics_table(&dir).is_none(), "empty dir has no table");
        // A mixed artefact: one pre-percentile metric, one instrumented.
        let mut r = BenchReport::new("engine", "t9", "test", "quick", 1);
        r.metric("plain", 10, 20_000);
        r.metric_with_percentiles("tail", 10, 20_000, 1_500, 9_000);
        r.write_json(&dir).unwrap();
        let table = metrics_table(&dir).expect("one artefact renders");
        assert!(table.contains("| t9 | plain | 2000 | - | - |"), "{table}");
        assert!(
            table.contains("| t9 | tail | 2000 | 1.5 | 9.0 |"),
            "{table}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_id_is_an_error() {
        let dir = std::env::temp_dir().join("hsa-bench-registry-test");
        let ctx = ExpCtx::new(&dir, Profile::Quick);
        assert!(run("zz", &ctx).is_err());
    }
}
