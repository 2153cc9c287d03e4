//! End-to-end tests for the `repro` CLI: registry enumeration, error
//! paths, the full `--all` artefact matrix, and the round trip of every
//! emitted `BENCH_*.json` through the report schema.

use hsa_bench::experiments::REGISTRY;
use hsa_bench::gate::{bench_artefacts, gate_directories, GateConfig};
use hsa_bench::report::BenchReport;
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsa-repro-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_enumerates_every_registered_experiment() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for e in REGISTRY {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{} ", e.id)))
            .unwrap_or_else(|| panic!("--list misses {}", e.id));
        assert!(line.contains(e.title), "{}: title missing", e.id);
        for artefact in e.artefacts {
            assert!(
                line.contains(artefact),
                "{}: artefact {artefact} missing",
                e.id
            );
        }
    }
}

#[test]
fn table_emits_the_registry_markdown() {
    let out = repro(&["--table"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("| Id | Experiment |"));
    for e in REGISTRY {
        assert!(stdout.contains(&format!("| {} |", e.id)));
    }
}

#[test]
fn unknown_exp_id_exits_nonzero_and_names_the_known_ids() {
    let out = repro(&["--exp", "zz"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment id `zz`"));
    assert!(stderr.contains("t9"), "error should list the known ids");
}

#[test]
fn unknown_flag_exits_nonzero() {
    let out = repro(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn invalid_flag_combinations_are_usage_errors() {
    // --exp under a gate mode would fabricate missing-artefact failures.
    let out = repro(&["--gate", "baselines", "--exp", "t9"]);
    assert_eq!(out.status.code(), Some(2));
    let out = repro(&["--compare", "baselines", "--exp", "t9"]);
    assert_eq!(out.status.code(), Some(2));
    // --bench-only with an untracked id would silently run nothing.
    let out = repro(&["--exp", "t3", "--bench-only"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("not perf-tracked"));
    // NaN / non-positive tolerances would silently disable the gate.
    for bad in ["nan", "0", "-3", "inf"] {
        let out = repro(&["--compare", "baselines", "--tolerance", bad]);
        assert_eq!(out.status.code(), Some(2), "tolerance `{bad}` accepted");
    }
}

#[test]
fn single_experiment_creates_the_output_directory() {
    // `--exp t9 --quick` into a directory that does not exist: the harness
    // must create it and the emitted JSON must be self-describing.
    let dir = temp_out("t9").join("nested");
    let out = repro(&["--exp", "t9", "--quick", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = BenchReport::load(&dir.join("BENCH_engine.json")).unwrap();
    assert_eq!(report.experiment, "t9");
    assert_eq!(report.seed, 100, "t9's workload seed");
    assert!(report.threads >= 1);
    assert_eq!(report.profile, "quick");
    for arm in ["naive", "batched"] {
        let m = report.find_metric(arm).unwrap();
        assert!(m.p50_ns.is_some() && m.p99_ns.is_some(), "{arm} has tails");
    }
    let param = |key: &str| report.params.iter().find(|p| p.key == key).map(|p| p.value);
    for key in ["speedup", "cache_misses", "cache_hits"] {
        assert!(param(key).is_some(), "param `{key}` emitted");
    }
    assert_eq!(Some(report.instance_sizes.len() as f64), param("instances"));
}

#[test]
fn all_quick_emits_every_artefact_and_reports_round_trip() {
    let dir = temp_out("all");
    let out = repro(&["--all", "--quick", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every artefact the registry declares must exist…
    for e in REGISTRY {
        for artefact in e.artefacts {
            assert!(
                dir.join(artefact).exists(),
                "{}: artefact {artefact} not written",
                e.id
            );
        }
    }

    // …and every BENCH_*.json parses against the schema, tagged with its
    // generating experiment and profile.
    let benches = bench_artefacts(&dir).unwrap();
    let tracked: Vec<_> = REGISTRY
        .iter()
        .filter(|e| e.bench_artefact.is_some())
        .collect();
    assert_eq!(benches.len(), tracked.len());
    assert!(benches.len() >= 5, "fewer than 5 BENCH artefacts");
    for path in &benches {
        let report = BenchReport::load(path).unwrap();
        assert_eq!(report.profile, "quick");
        let exp = tracked
            .iter()
            .find(|e| e.id == report.experiment)
            .unwrap_or_else(|| panic!("{}: unknown generating experiment", path.display()));
        assert_eq!(
            exp.bench_artefact.unwrap(),
            report.file_name(),
            "artefact name drifted from the registry"
        );
        assert!(!report.metrics.is_empty());
    }

    // The emitted set gates cleanly against itself…
    let cfg = GateConfig::default();
    let outcome = gate_directories(&dir, &dir, &cfg);
    assert!(outcome.passed(), "{}", outcome.render_text(&cfg));

    // …including through the CLI's --compare mode.
    let out = repro(&[
        "--compare",
        dir.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("PASS"));
}

#[test]
fn compare_against_a_doctored_slow_baseline_fails() {
    // Emit one quick artefact, then hand the gate a baseline claiming the
    // same metrics used to be 64× faster: the CLI must exit 1 and render
    // the regression table.
    let dir = temp_out("gate-fail");
    let out = repro(&["--exp", "t9", "--quick", "--out", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let mut baseline = BenchReport::load(&dir.join("BENCH_engine.json")).unwrap();
    for m in &mut baseline.metrics {
        *m = hsa_bench::Metric::new(m.name.clone(), m.ops, (m.total_ns / 64).max(1));
    }
    let base_dir = dir.join("baseline");
    baseline.write_json(&base_dir).unwrap();
    let out = repro(&[
        "--compare",
        base_dir.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
        "--tolerance",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("REGRESSED") && stdout.contains("FAIL"));
}
