//! `repro` — the experiment harness CLI and the one way to run or time an
//! experiment: regenerates every figure and experiment of the paper from
//! the central registry, and runs the perf gate against committed
//! baselines.
//!
//! ```sh
//! cargo run -p hsa-bench --bin repro --release -- --list       # enumerate
//! cargo run -p hsa-bench --bin repro --release -- --all        # full matrix
//! cargo run -p hsa-bench --bin repro --release -- --exp f4     # one artefact
//! cargo run -p hsa-bench --bin repro --release -- --bench-only --quick
//! cargo run -p hsa-bench --bin repro --release -- --gate baselines --quick
//! ```
//!
//! Experiment ids follow DESIGN.md §4: `f2 f4 f5 f6 f8 f9` reproduce the
//! paper's figures, `t1 … t14` are the quantitative studies and `a1` the
//! design ablations — `repro --list` is authoritative. Tables are printed
//! and written as CSV under the output directory; perf-tracked experiments
//! additionally emit schema-versioned `BENCH_*.json` artefacts.
//!
//! Gate modes (exit code 1 on regression, 2 on usage errors):
//!
//! * `--gate <baseline-dir>` runs every perf-tracked experiment into
//!   `--out`, then compares the fresh `BENCH_*.json` artefacts against the
//!   same-named baselines;
//! * `--compare <baseline-dir>` skips the run and compares whatever
//!   already sits in `--out` (useful to re-render a regression table);
//! * `--tolerance <x>` sets the allowed `current/baseline` ns/op ratio
//!   (default 4.0 — generous, for shared CI runners).

use hsa_bench::experiments::{self, ExpCtx, Profile, REGISTRY};
use hsa_bench::gate::{gate_directories, GateConfig};
use std::path::PathBuf;

const USAGE: &str = "usage: repro [--list] [--table] [--all] [--exp <id>] [--out <dir>]
             [--quick] [--bench-only] [--gate <baseline-dir>]
             [--compare <baseline-dir>] [--tolerance <x>]";

fn main() {
    let mut out_dir = PathBuf::from("results");
    let mut only: Option<String> = None;
    let mut list = false;
    let mut table = false;
    let mut quick = false;
    let mut bench_only = false;
    let mut gate_baseline: Option<PathBuf> = None;
    let mut compare_baseline: Option<PathBuf> = None;
    let mut tolerance = GateConfig::default().tolerance;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--out" => out_dir = PathBuf::from(value("--out")),
            "--exp" => only = Some(value("--exp")),
            "--gate" => gate_baseline = Some(PathBuf::from(value("--gate"))),
            "--compare" => compare_baseline = Some(PathBuf::from(value("--compare"))),
            "--tolerance" => {
                let raw = value("--tolerance");
                tolerance = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance needs a number, got `{raw}`");
                    std::process::exit(2);
                });
                // NaN would make every `ratio > tolerance` check false and
                // silently disable the gate.
                if !tolerance.is_finite() || tolerance <= 0.0 {
                    eprintln!("--tolerance must be a finite positive number, got `{raw}`");
                    std::process::exit(2);
                }
            }
            "--list" => list = true,
            "--table" => table = true,
            "--quick" => quick = true,
            "--bench-only" => bench_only = true,
            "--all" => {} // running everything is the default
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("ids: {}", experiments::ids().join(" "));
                return;
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    if list {
        println!("{:<4} {:<10} {:<62} artefacts", "id", "perf-gate", "title");
        for e in REGISTRY {
            println!(
                "{:<4} {:<10} {:<62} {}",
                e.id,
                if e.bench_artefact.is_some() {
                    "gated"
                } else {
                    "-"
                },
                e.title,
                if e.artefacts.is_empty() {
                    "(stdout only)".to_string()
                } else {
                    e.artefacts.join(", ")
                }
            );
        }
        return;
    }
    if table {
        print!("{}", experiments::markdown_table());
        // When the output directory already holds bench artefacts (a prior
        // run, or --out baselines), render their measured metrics too —
        // percentile columns when present, dashes when not.
        if let Some(metrics) = experiments::metrics_table(&out_dir) {
            println!("\nmeasured metrics under {}/:\n", out_dir.display());
            print!("{metrics}");
        }
        return;
    }

    let profile = if quick { Profile::Quick } else { Profile::Full };
    let cfg = GateConfig { tolerance };
    let ctx = ExpCtx::new(&out_dir, profile);

    // The gate modes compare the *full* perf-tracked artefact set; running
    // a single experiment underneath them would fabricate missing-artefact
    // failures (or gate stale files), so the combination is rejected.
    if only.is_some() && (gate_baseline.is_some() || compare_baseline.is_some()) {
        eprintln!("--exp cannot be combined with --gate/--compare (the gate covers every perf-tracked experiment)");
        std::process::exit(2);
    }

    if let Some(baseline) = compare_baseline {
        let outcome = gate_directories(&baseline, &out_dir, &cfg);
        print!("{}", outcome.render_text(&cfg));
        std::process::exit(if outcome.passed() { 0 } else { 1 });
    }

    if let Some(o) = only.as_deref() {
        match experiments::find(o) {
            None => {
                eprintln!(
                    "unknown experiment id `{o}`; known ids: {}",
                    experiments::ids().join(" ")
                );
                std::process::exit(2);
            }
            Some(e) if bench_only && e.bench_artefact.is_none() => {
                eprintln!("experiment `{o}` is not perf-tracked; drop --bench-only to run it");
                std::process::exit(2);
            }
            Some(_) => {}
        }
    }

    let gating = gate_baseline.is_some();
    for e in REGISTRY {
        if only.as_deref().map(|o| o != e.id).unwrap_or(false) {
            continue;
        }
        // Gate runs (and --bench-only) cover exactly the perf-tracked set.
        if (bench_only || gating) && e.bench_artefact.is_none() {
            continue;
        }
        println!("\n════ {}: {} ════\n", e.id, e.title);
        experiments::run(e.id, &ctx).expect("registered id runs");
    }
    println!("\nartefacts written under {}/", out_dir.display());

    if let Some(baseline) = gate_baseline {
        println!();
        let outcome = gate_directories(&baseline, &out_dir, &cfg);
        print!("{}", outcome.render_text(&cfg));
        std::process::exit(if outcome.passed() { 0 } else { 1 });
    }
}
