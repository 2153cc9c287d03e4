//! Per-workload constants, read from `perfbench/interaction.json` at
//! compile time so the file that documents the benchmark is also the one
//! the benchmark runs from.

use serde::Value;

const MAP: &str = include_str!("../interaction.json");

/// The load shape of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// Closed and pipelined request rates of the machine the benchmark was
    /// tuned on: they size each segment's fixed request count from its
    /// share of `--seconds`.
    pub closed_rps: f64,
    pub pipelined_rps: f64,
    /// Offered rates of the open phase, ascending, requests per second.
    pub ladder_rps: Vec<f64>,
    /// The ladder rate whose latencies are reported as `ol_rtt_*`.
    pub reference_rps: f64,
    /// Limit on an open-loop rate's p90 latency, microseconds.
    pub latency_limit_us: f64,
}

/// Run-wide constants.
#[derive(Clone, Debug)]
pub struct Globals {
    /// Share of the traced run's seconds given to the traced pass.
    pub traced_share: f64,
    /// A run is rejected when the open-phase generator's median send lag at
    /// the reference rate exceeds this share of the request gap.
    pub max_lag_share_of_gap: f64,
    /// The seed later changes confirm their claims on.
    pub held_out_seed: u64,
}

fn num(v: &Value, key: &str) -> f64 {
    let m = v.as_map().expect("interaction.json: object expected");
    let (_, x) = m
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("interaction.json: missing key {key}"));
    match x {
        Value::UInt(u) => *u as f64,
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("interaction.json: {key} is not a number: {other:?}"),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, x)| x)
        .unwrap_or_else(|| panic!("interaction.json: missing key {key}"))
}

fn root() -> Value {
    serde_json::from_str::<Value>(MAP).expect("interaction.json parses")
}

/// Names of every workload, in file order.
pub fn workload_names() -> Vec<String> {
    let r = root();
    get(&r, "workloads")
        .as_map()
        .expect("workloads is an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// The spec of workload `name`, if it exists.
pub fn spec(name: &str) -> Option<Spec> {
    let r = root();
    let w = get(&r, "workloads")
        .as_map()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())?;
    let load = get(&w, "load");
    let ladder_rps = get(load, "ladder_rps")
        .as_seq()
        .expect("ladder_rps is a list")
        .iter()
        .map(|x| match x {
            Value::UInt(u) => *u as f64,
            Value::Float(f) => *f,
            other => panic!("ladder rate {other:?} is not a number"),
        })
        .collect::<Vec<_>>();
    let reference_rps = num(load, "reference_rps");
    assert!(
        ladder_rps.windows(2).all(|p| p[0] < p[1]) && ladder_rps.contains(&reference_rps),
        "{name}: the ladder must ascend and contain the reference rate"
    );
    Some(Spec {
        name: name.to_string(),
        closed_rps: num(load, "closed_rps"),
        pipelined_rps: num(load, "pipelined_rps"),
        ladder_rps,
        reference_rps,
        latency_limit_us: num(load, "latency_limit_us"),
    })
}

/// The run-wide constants.
pub fn globals() -> Globals {
    let r = root();
    Globals {
        traced_share: num(&r, "traced_share"),
        max_lag_share_of_gap: num(&r, "max_lag_share_of_gap"),
        held_out_seed: num(&r, "held_out_seed") as u64,
    }
}

/// `(name, unit)` of every per-layer metric, in file order.
pub fn per_layer_metrics() -> Vec<(String, String)> {
    let r = root();
    get(&r, "per_layer")
        .as_map()
        .expect("per_layer is an object")
        .iter()
        .map(|(k, v)| {
            let unit = get(v, "unit").as_str().expect("unit is a string");
            (k.clone(), unit.to_string())
        })
        .collect()
}
