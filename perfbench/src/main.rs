//! The repository benchmark: a single-process load generator.
//!
//! It starts a `NetServer` on 127.0.0.1 with the shipped default
//! configurations, drives it with `hsa_engine::net::Client` traffic
//! generated from `--seed`, checks every answer, and prints every metric
//! by name and unit. The last line of standard output is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced pass with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-solve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads, their load constants and the interaction map (which
//! end-to-end metric each per-layer metric should move, on which workload)
//! live in `perfbench/interaction.json`.

mod drive;
mod inputs;
mod spec;
mod stats;
mod trace;

use drive::{Record, Tally};
use stats::Samples;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rounds per run: each runs a closed and a pipelined segment on fresh
/// servers, and every `ROUNDS / LADDERS`-th also climbs the open-loop
/// ladder. Many short segments on fresh servers average over the thread
/// placements a two-CPU machine gives each server, which move round trips
/// by a quarter from one server to the next.
const ROUNDS: usize = 15;
const LADDERS: usize = 5;

/// Shares of the measured seconds given to the closed, pipelined and open
/// phases (with `--trace 1` the traced pass first takes its own share of
/// `--seconds`).
const CLOSED_SHARE: f64 = 0.3;
const PIPELINED_SHARE: f64 = 0.2;
const OPEN_SHARE: f64 = 0.5;

/// Set-ups per run beyond the phase set-ups (closed, pipelined, one per
/// open-loop rate); `setup_s` is the median of all of them.
const EXTRA_SETUPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { -1.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::workload_names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(3);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!(
            "perfbench: the open phase needs a sender and a receiver thread; nproc is {nproc}"
        );
        return ExitCode::from(3);
    }
    let Some(spec) = spec::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {}",
            args.workload,
            spec::workload_names().join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&args, spec, nproc) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, spec: spec::Spec, nproc: usize) -> Result<ExitCode, String> {
    let globals = spec::globals();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# env: nproc={nproc} profile=release generator_threads<=2 connections<=2 transport=loopback held_out_seed={}",
        globals.held_out_seed
    );
    println!(
        "# open ladder_rps={:?} reference_rps={} latency_limit_us={} max_lag_share_of_gap={}",
        spec.ladder_rps, spec.reference_rps, spec.latency_limit_us, globals.max_lag_share_of_gap
    );
    let t_gen = Instant::now();
    let w = inputs::generate(spec, args.seed);
    println!(
        "# inputs: {} distinct requests, order of {}, generated and checked in process in {:.2} s (not timed)",
        w.keys.len(),
        w.seq.len(),
        t_gen.elapsed().as_secs_f64()
    );
    let measured = if args.trace {
        args.seconds * (1.0 - globals.traced_share)
    } else {
        args.seconds
    };
    let sp = &w.spec;
    // Each phase's time is split over the rounds, so every metric pools
    // samples from the whole run and from several fresh servers.
    let secs = |share: f64, parts: usize| Duration::from_secs_f64(measured * share / parts as f64);
    // A segment's fixed request count takes its share of the run on the
    // machine the rates were measured on; the deadline stops it on a
    // machine three times slower.
    let budget = |share: f64, rps: f64| drive::Budget {
        requests: (rps * secs(share, ROUNDS).as_secs_f64()).ceil() as usize,
        until: Instant::now() + 3 * secs(share, ROUNDS),
    };
    let conns = nproc.min(drive::NAMESPACES);
    let mut tally = Tally::default();
    let mut setups = Samples::new();
    let (mut completed, mut elapsed_s) = (0u64, 0.0);
    let mut round_rps = Samples::new();
    let mut round_p50s: Vec<f64> = Vec::new();
    // Per request kind, the closed rounds' p50s.
    let mut by_kind: BTreeMap<u8, Samples> = BTreeMap::new();
    let (mut frames_out, mut writes, mut parks, mut bp_waits) = (0u64, 0u64, 0u64, 0u64);
    let mut engine_counts = (0u64, 0u64, 0usize);
    let (mut ol_p50s, mut ol_tails, mut lag_p50s) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut queue_p99 = Samples::new();
    // What grows through the run is built before the resident-set base is
    // read, so `rss_peak_mb` counts the servers and not the generator: the
    // delta oracle, and room for every pooled latency, already resident.
    let mut oracle = drive::DeltaOracle::new(&w);
    let mut rtt =
        Samples::with_resident_capacity(ROUNDS * budget(CLOSED_SHARE, sp.closed_rps).requests);
    let mut ladder = drive::Ladder::new(sp, secs(OPEN_SHARE, LADDERS).as_secs_f64(), LADDERS);
    drive::trim_heap();
    let rss_base = drive::rss_kib();
    let mut rss_peak = rss_base;
    println!("# open: one connection, sender + receiver, latency timed from due time; fresh server per rate");
    for round in 0..ROUNDS {
        // Closed: one connection, one request in flight.
        let (live, mut client, s) = drive::setup(&w, &mut tally)?;
        setups.push(s);
        let work = budget(CLOSED_SHARE, sp.closed_rps);
        let closed = drive::closed(&w, &live, &mut client, work, &mut tally);
        rss_peak = rss_peak.max(drive::rss_kib());
        oracle.verify(&w, &live, &[(0, &closed.rec)], &mut tally);
        let mut round_rtt = closed.rtt_us;
        let p50 = round_rtt
            .p50()
            .ok_or("too few closed-loop samples in a round")?
            .value;
        round_p50s.push(p50);
        rtt.append(round_rtt);
        for (k, mut v) in closed.by_kind {
            if let Some(m) = v.median() {
                by_kind.entry(k).or_default().push(m);
            }
        }
        drop(client);
        drop(live);

        // Pipelined: a fixed window per connection, closed loop.
        let (live, client, s) = drive::setup(&w, &mut tally)?;
        drop(client);
        setups.push(s);
        let work = budget(PIPELINED_SHARE, sp.pipelined_rps);
        let pipe = drive::pipelined(&w, &live, conns, work, &mut tally);
        rss_peak = rss_peak.max(drive::rss_kib());
        let recs: Vec<(usize, &Record)> = pipe.recs.iter().enumerate().collect();
        oracle.verify(&w, &live, &recs, &mut tally);
        completed += pipe.completed;
        elapsed_s += pipe.elapsed_s;
        round_rps.push(pipe.completed as f64 / pipe.elapsed_s.max(1e-9));
        let net = live.net.net_stats();
        frames_out += net.frames_out;
        writes += net.writes;
        parks += net.saturation_parks;
        bp_waits += live.net.service().stats().backpressure_waits;
        let engine = live.net.service().engine();
        let e = engine.stats();
        engine_counts = (e.cache_hits, e.cache_misses, engine.len());
        drop(live);

        // Open: the ladder, one fresh server per rate.
        if round % (ROUNDS / LADDERS) != 0 {
            continue;
        }
        let mut open = drive::open(
            &w,
            secs(OPEN_SHARE, LADDERS).as_secs_f64(),
            &mut oracle,
            &mut setups,
            &mut tally,
        )?;
        rss_peak = rss_peak.max(open.rss_peak_kib);
        parks += open.saturation_parks;
        bp_waits += open.backpressure_waits;
        queue_p99.push(open.queue_p99_ns as f64);
        for s in &mut open.steps {
            if s.rate == sp.reference_rps {
                let p50 = s
                    .lat_us
                    .p50()
                    .ok_or("too few reference-rate samples for a p50")?;
                let p90 = s
                    .lat_us
                    .pct(0.9)
                    .ok_or("too few reference-rate samples for a p90")?;
                ol_p50s.push(p50.value);
                ol_tails.push(p90.value);
                lag_p50s.push(s.lag_us.median().unwrap_or(0.0));
            }
        }
        ladder.add(open.steps);
    }
    for _ in 0..EXTRA_SETUPS {
        let (live, client, s) = drive::setup(&w, &mut tally)?;
        setups.push(s);
        drop(client);
        drop(live);
    }

    // End-to-end figures.
    let setup_s = setups.median().unwrap_or(f64::NAN);
    let mut p50s = Samples::new();
    round_p50s.iter().for_each(|&x| p50s.push(x));
    let rtt_p50 = p50s.median();
    let rtt_tail = rtt.tail();
    let throughput = round_rps.median().unwrap_or(f64::NAN);
    let mut rungs = Vec::new();
    let capacity = ladder.capacity(sp.latency_limit_us, &mut rungs);
    println!("  ladder pooled over {LADDERS} climbs: {}", rungs.join(" "));
    let ol_p50 = ol_p50s.median();
    let ol_tail = ol_tails.median();
    let ref_gap_us = 1e6 / sp.reference_rps;
    let ref_lag = lag_p50s.median().unwrap_or(0.0);
    println!(
        "  capacity {capacity:.1} req/s (limit {} us on the p90); at the reference {} req/s, medians over climbs: p50 {:.2} us, p90 {:.2} us; generator lag p50 {ref_lag:.2} us",
        sp.latency_limit_us,
        sp.reference_rps,
        ol_p50.unwrap_or(f64::NAN),
        ol_tail.unwrap_or(f64::NAN),
    );
    println!("# closed: one connection, one request in flight");
    println!(
        "  rtt p50 {:.2} us (median of {ROUNDS} round p50s); pooled: {} ; tail {} ; highest supported {}",
        rtt_p50.unwrap_or(f64::NAN),
        rtt.p50().map_or("-".to_string(), |p| p.render("us")),
        rtt_tail.map_or("-".to_string(), |p| p.render("us")),
        rtt.highest_supported()
            .map_or("-".to_string(), |h| h.render("us"))
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  per-round rtt p50s (us): {}", list(&round_p50s));
    for (kind, s) in &mut by_kind {
        if let Some(p) = s.median() {
            println!(
                "  {:<15} p50 {p:.2} us (median of {} round p50s)",
                trace::kind_name(*kind),
                s.len()
            );
        }
    }
    println!(
        "# pipelined: {conns} connections x window {}: {completed} completed in {elapsed_s:.3} s; median round {throughput:.1} req/s; frames/write {:.2}",
        drive::WINDOW,
        frames_out as f64 / writes.max(1) as f64
    );
    let rss_peak_mb = (rss_peak - rss_base) / 1024.0;
    let error_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "# setup_s median {setup_s:.4} s over {} set-ups; rss_peak_mb {rss_peak_mb:.2}; error_share {error_share} ({} of {})",
        setups.len(),
        tally.failed,
        tally.attempted
    );

    let lag_ok = ref_lag <= globals.max_lag_share_of_gap * ref_gap_us;
    if !lag_ok {
        eprintln!(
            "perfbench: rejected: open-phase generator lag p50 {ref_lag:.1} us exceeds {} of the {ref_gap_us:.1} us gap at the reference rate",
            globals.max_lag_share_of_gap
        );
        return Ok(ExitCode::from(4));
    }

    let mut metrics: Vec<String> = Vec::new();
    if args.trace {
        let untraced: BTreeMap<u8, f64> = by_kind
            .iter_mut()
            .filter_map(|(k, s)| Some((*k, s.median()?)))
            .collect();
        let t = trace::traced(
            &w,
            args.seed,
            budget(CLOSED_SHARE, sp.closed_rps).requests,
            args.seconds * globals.traced_share,
            &untraced,
            rtt_p50.unwrap_or(f64::NAN),
            &mut tally,
        )?;
        for line in &t.report {
            println!("{line}");
        }
        let mut traced_rtt = t.traced_rtt_us;
        let overhead = match (traced_rtt.median(), rtt_p50) {
            (Some(a), Some(b)) => a - b,
            _ => f64::NAN,
        };
        println!("# tracing overhead: traced rtt p50 minus untraced = {overhead:.2} us");
        if let Some(f) = &t.span_file {
            println!("# spans written to {f}");
        }
        let mut values: BTreeMap<String, f64> = t.metrics;
        values.insert(
            "net.frames_per_write".to_string(),
            frames_out as f64 / writes.max(1) as f64,
        );
        values.insert("net.saturation_parks".to_string(), parks as f64);
        values.insert(
            "service.queue_p99_ns".to_string(),
            queue_p99.median().unwrap_or(0.0),
        );
        values.insert("service.backpressure_waits".to_string(), bp_waits as f64);
        values.insert("engine.hits".to_string(), engine_counts.0 as f64);
        values.insert("engine.misses".to_string(), engine_counts.1 as f64);
        values.insert("engine.entries".to_string(), engine_counts.2 as f64);
        values.insert("trace.overhead_us".to_string(), overhead);
        values.insert(
            "rtt_tail_us".to_string(),
            rtt_tail.map_or(f64::NAN, |p| p.value),
        );
        values.insert("throughput_rps".to_string(), throughput);
        values.insert("ol_rtt_p50_us".to_string(), ol_p50.unwrap_or(f64::NAN));
        values.insert("ol_rtt_tail_us".to_string(), ol_tail.unwrap_or(f64::NAN));
        values.insert("capacity_rps".to_string(), capacity);
        for (name, unit) in spec::per_layer_metrics() {
            let v = *values
                .get(&name)
                .ok_or(format!("per-layer metric {name} was not measured"))?;
            println!("  {name:<32} {v:>14.3} {unit}");
            metrics.push(metric_json(&name, v, &unit));
        }
    } else {
        for (name, value, unit) in [
            ("setup_s", setup_s, "s"),
            ("rtt_p50_us", rtt_p50.unwrap_or(f64::NAN), "us"),
            ("rss_peak_mb", rss_peak_mb, "MiB"),
        ] {
            metrics.push(metric_json(name, value, unit));
        }
    }
    for r in &tally.reasons {
        eprintln!("perfbench: failed: {r}");
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
