//! Request decode is linear in the payload (DESIGN.md §13): a payload 16×
//! larger must decode in well under 256× (quadratic) the time. Checked on
//! the two shapes that make a payload large — one long string, and a large
//! tree of many short strings and numbers.

use hsa_engine::net::wire::{self, FrameEncoder, NetRequest};
use hsa_engine::Request;
use hsa_graph::Lambda;
use hsa_tree::CruTree;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::time::Instant;

/// Growth a linear decoder stays far below (16× is linear, 256× quadratic).
const MAX_GROWTH: f64 = 40.0;
const REPS: usize = 9;

fn payload(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    let (_, payload) = FrameEncoder::new().put_request(&mut out, 0, request);
    out[payload].to_vec()
}

fn instance_payload(n_crus: usize, root_name: Option<&str>) -> Vec<u8> {
    let (mut tree, costs) = random_instance(
        &RandomTreeParams {
            n_crus,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        5,
    );
    if let Some(name) = root_name {
        let json = serde_json::to_string(&tree).unwrap();
        let old = &tree.node(tree.root()).unwrap().name;
        let renamed = json.replacen(
            &format!("\"name\":\"{old}\""),
            &format!("\"name\":\"{name}\""),
            1,
        );
        tree = serde_json::from_str::<CruTree>(&renamed).unwrap();
    }
    payload(&Request::solve(&tree, &costs, Lambda::HALF))
}

fn decode_ns(payload: &[u8]) -> f64 {
    let t = Instant::now();
    let decoded = wire::decode_request_parts(wire::kind::SOLVE, 0, payload);
    let ns = t.elapsed().as_nanos() as f64;
    assert!(matches!(decoded, Ok(NetRequest::Submit(_))), "{decoded:?}");
    ns
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median decode times of `small` and `large`, measured interleaved so a
/// slow phase of the machine hits both alike; returns `large / small`.
fn growth(small: &[u8], large: &[u8]) -> f64 {
    assert!(
        large.len() >= 15 * small.len(),
        "{} vs {}",
        large.len(),
        small.len()
    );
    decode_ns(small);
    decode_ns(large);
    let (mut s, mut l) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        s.push(decode_ns(small));
        l.push(decode_ns(large));
    }
    median(l) / median(s)
}

#[test]
fn long_string_decodes_in_linear_time() {
    let base = instance_payload(12, Some("x")).len();
    let small_len = 8 * 1024;
    let large_len = 16 * (base + small_len) - base;
    let small = instance_payload(12, Some(&"a".repeat(small_len)));
    let large = instance_payload(12, Some(&"a".repeat(large_len)));
    let g = growth(&small, &large);
    assert!(g < MAX_GROWTH, "16x the string took {g:.1}x the time");
}

#[test]
fn large_tree_decodes_in_linear_time() {
    let small = instance_payload(64, None);
    let large = instance_payload(1024, None);
    let g = growth(&small, &large);
    assert!(g < MAX_GROWTH, "16x the tree took {g:.1}x the time");
}
