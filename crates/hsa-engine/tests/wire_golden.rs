//! Golden protocol-v1 payloads (DESIGN.md §13).
//!
//! `golden/wire_v1.tsv` holds the payload bytes of every frame kind, built
//! from fixed seeds: each `Request`, `Reply` and `WireError` variant,
//! `HELLO_ACK`, `TENANT_CLOSED`, a multi-segment frontier, and a delta
//! carrying every `DeltaOp`. The file was captured from the codec that
//! first shipped protocol v1, so unlike the round-trip checks elsewhere
//! (which compare the codec with itself) these tests catch a change of
//! format: the encoder must reproduce every line byte for byte, and
//! decoding a line then encoding it again must give the line back.
//!
//! Each line is `name <TAB> kind <TAB> tenant <TAB> payload`. The file is
//! never rewritten: a new protocol version gets a fixture file of its own.

use hsa_engine::net::wire::{
    self, Decoded, FrameDecoder, FrameEncoder, NetReply, NetRequest, WireError,
};
use hsa_engine::{
    Engine, EngineConfig, InstanceId, Reply, Request, Service, ServiceConfig, TenantId,
};
use hsa_graph::{Cost, Lambda};
use hsa_tree::{CostModel, CruId, CruTree, Delta, SatelliteId};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::sync::Arc;

const FIXTURES: &str = include_str!("golden/wire_v1.tsv");

/// Which side of the connection sends a frame kind.
fn client_sent(kind: u8) -> bool {
    kind & 0x80 == 0
}

struct Golden {
    name: &'static str,
    kind: u8,
    tenant: u64,
    payload: Vec<u8>,
}

fn instance(n_crus: usize, seed: u64) -> (CruTree, CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        seed,
    )
}

/// The paper scenario with its root renamed to a string that exercises
/// every escape the printer knows, plus raw non-ASCII text.
fn escaped_names() -> (CruTree, CostModel) {
    let sc = hsa_workloads::paper_scenario();
    let json = serde_json::to_string(&sc.tree).unwrap();
    let name = &sc.tree.node(sc.tree.root()).unwrap().name;
    let from = format!("\"name\":\"{name}\"");
    assert!(json.contains(&from), "the root name prints unescaped");
    let to = r#""name":"q\"b\\s\/n\nr\rt\tb\bf\fc\u0001d\u007f é 😀""#;
    let tree: CruTree = serde_json::from_str(&json.replacen(&from, to, 1)).unwrap();
    (tree, sc.costs)
}

/// A delta carrying every `DeltaOp`, valid on `tree`.
fn every_op(tree: &CruTree) -> Delta {
    let root = tree.root();
    let inner = tree.children(root)[0];
    let leaf = (0..tree.len() as u32)
        .map(CruId)
        .find(|&c| tree.children(c).is_empty())
        .expect("a tree has leaves");
    Delta::new()
        .set_host_time(root, Cost::new(17))
        .set_satellite_time(inner, Cost::new(23))
        .set_comm_up(inner, Cost::new(5))
        .set_comm_raw(leaf, Cost::new(41))
        .scale_subtree(inner, 11, 10)
        .scale_satellite(SatelliteId(1), 9, 8)
        .repin(leaf, SatelliteId(2))
}

/// The kind, tenant and payload of the one frame in `out`, read back
/// through the decoder; empties `out` for the next frame.
fn take_frame(out: &mut Vec<u8>) -> (u8, u64, Vec<u8>) {
    let mut dec = FrameDecoder::new();
    dec.push(out);
    out.clear();
    let Some(Decoded::Frame(f)) = dec.next(wire::DEFAULT_MAX_FRAME_LEN) else {
        panic!("an encoded frame decodes");
    };
    let parts = (f.kind, f.tenant, f.payload.to_vec());
    assert_eq!(dec.buffered(), 0, "exactly one frame");
    parts
}

fn answer(service: &Service, request: Request) -> Reply {
    service
        .submit(request)
        .wait()
        .expect("fixture requests succeed")
}

/// Every fixture, encoded by the current encoder from the fixed seeds.
fn build() -> Vec<Golden> {
    let lambda = Lambda::new(3, 8).unwrap();
    let (tree, costs) = instance(12, 7);
    let (wide, wide_costs) = instance(24, 11);
    let (named, named_costs) = escaped_names();
    let delta = every_op(&tree);
    let tenant = TenantId(42);
    let service = Service::new(
        Arc::new(Engine::new(EngineConfig::default())),
        ServiceConfig {
            workers: 1,
            verify: true,
            ..ServiceConfig::default()
        },
    );

    let solution = answer(&service, Request::solve(&tree, &costs, lambda));
    let id = solution.instance_id().expect("a solve answers its id");
    let frontier = answer(&service, Request::frontier(&wide, &wide_costs));
    let segments = frontier.frontier().expect("frontier reply").num_segments();
    assert!(
        segments > 1,
        "the frontier fixture must have several segments ({segments})"
    );
    let anytime = answer(
        &service,
        Request::solve_anytime(&tree, &costs, lambda, 60_000),
    );
    assert!(anytime.anytime().expect("anytime reply").exact_finished);
    service.open_tenant(tenant, &tree, &costs).unwrap();
    let applied = answer(&service, Request::delta(tenant, delta.clone(), lambda));
    let closed = answer(&service, Request::close_tenant(tenant));
    let unknown = service
        .submit(Request::solve_by_id(
            InstanceId::from_raw(0xDEAD_BEEF),
            lambda,
        ))
        .wait()
        .expect_err("an unknown id fails");

    let mut enc = FrameEncoder::new();
    let mut out = Vec::new();
    let mut all = Vec::new();
    let mut push = |name: &'static str, out: &mut Vec<u8>| {
        let (kind, tenant, payload) = take_frame(out);
        all.push(Golden {
            name,
            kind,
            tenant,
            payload,
        });
    };

    enc.put_hello(&mut out, 1);
    push("hello", &mut out);
    enc.put_request(&mut out, 1, &Request::solve(&tree, &costs, lambda));
    push("solve", &mut out);
    enc.put_request(
        &mut out,
        1,
        &Request::solve(&named, &named_costs, Lambda::HALF),
    );
    push("solve_escaped_names", &mut out);
    enc.put_request(&mut out, 1, &Request::solve_by_id(id, lambda));
    push("solve_by_id", &mut out);
    enc.put_request(&mut out, 1, &Request::frontier(&wide, &wide_costs));
    push("frontier", &mut out);
    enc.put_request(&mut out, 1, &Request::frontier_by_id(id));
    push("frontier_by_id", &mut out);
    enc.put_request(&mut out, 1, &Request::delta(tenant, delta, lambda));
    push("delta_every_op", &mut out);
    enc.put_request(
        &mut out,
        1,
        &Request::solve_anytime(&tree, &costs, lambda, 25),
    );
    push("solve_anytime", &mut out);
    enc.put_request(&mut out, 1, &Request::open_tenant(tenant, &tree, &costs));
    push("open_tenant", &mut out);
    enc.put_request(&mut out, 1, &Request::close_tenant(tenant));
    push("close_tenant", &mut out);

    enc.put_hello_ack(&mut out, 1, wire::DEFAULT_MAX_FRAME_LEN);
    push("hello_ack", &mut out);
    enc.put_reply(&mut out, 1, 0, &solution);
    push("solution", &mut out);
    enc.put_reply(&mut out, 1, 0, &frontier);
    push("frontier_reply", &mut out);
    enc.put_reply(&mut out, 1, tenant.0, &applied);
    push("applied", &mut out);
    enc.put_reply(&mut out, 1, 0, &anytime);
    push("anytime", &mut out);
    enc.put_reply(&mut out, 1, tenant.0, &Reply::TenantOpened);
    push("tenant_opened", &mut out);
    enc.put_reply(&mut out, 1, tenant.0, &closed);
    push("tenant_closed", &mut out);
    for (name, err) in [
        ("error_version", WireError::UnsupportedVersion(77, 1)),
        ("error_kind", WireError::UnknownKind(0x6F)),
        ("error_oversized", WireError::Oversized(u64::MAX, 1 << 26)),
        (
            "error_malformed",
            WireError::Malformed("tree: missing field `nodes` at \"x\"\n".to_string()),
        ),
        ("error_quota", WireError::Quota(42)),
        ("error_conn_limit", WireError::ConnLimit(64)),
        ("error_service", WireError::from(&unknown)),
    ] {
        enc.put_error(&mut out, 1, 0, &err);
        push(name, &mut out);
    }
    all
}

fn parse(text: &str) -> Vec<(String, u8, u64, String)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let mut cols = line.splitn(4, '\t');
            let mut col = || cols.next().expect("four tab-separated columns");
            let name = col().to_string();
            let kind = u8::from_str_radix(col().trim_start_matches("0x"), 16).unwrap();
            let tenant = col().parse().unwrap();
            (name, kind, tenant, col().to_string())
        })
        .collect()
}

#[test]
fn encoder_reproduces_every_golden_payload() {
    let built = build();
    let golden = parse(FIXTURES);
    let names: Vec<&str> = golden.iter().map(|g| g.0.as_str()).collect();
    let built_names: Vec<&str> = built.iter().map(|g| g.name).collect();
    assert_eq!(names, built_names, "the fixture set changed");
    for (g, b) in golden.iter().zip(&built) {
        assert_eq!((g.1, g.2), (b.kind, b.tenant), "{}: header", g.0);
        assert!(
            g.3.as_bytes() == b.payload.as_slice(),
            "{}: payload differs from the v1 fixture\n want {}\n  got {}",
            g.0,
            g.3,
            String::from_utf8_lossy(&b.payload)
        );
    }
}

/// Decodes one fixture with the decoder of its direction and encodes the
/// result again.
fn reencode(kind: u8, tenant: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = FrameEncoder::new();
    let mut out = Vec::new();
    if client_sent(kind) {
        match wire::decode_request_parts(kind, tenant, payload).expect("fixture decodes") {
            NetRequest::Hello => enc.put_hello(&mut out, 1),
            NetRequest::Submit(req) => {
                enc.put_request(&mut out, 1, &req);
            }
        }
    } else {
        let frame = wire::Frame {
            version: wire::PROTOCOL_VERSION,
            kind,
            tenant,
            corr: 1,
            payload: payload.to_vec(),
        };
        match wire::decode_server_frame(&frame).expect("fixture decodes") {
            NetReply::HelloAck(cap) => enc.put_hello_ack(&mut out, 1, cap as usize),
            NetReply::Reply(reply) => {
                enc.put_reply(&mut out, 1, tenant, &reply);
            }
            NetReply::Error(err) => enc.put_error(&mut out, 1, tenant, &err),
        }
    }
    let (again, _, payload) = take_frame(&mut out);
    assert_eq!(again, kind, "re-encoded under another kind");
    payload
}

#[test]
fn golden_payloads_decode_then_encode_to_themselves() {
    let golden = parse(FIXTURES);
    assert!(golden.len() >= 24, "every frame kind has a fixture");
    for (name, kind, tenant, payload) in &golden {
        let again = reencode(*kind, *tenant, payload.as_bytes());
        assert!(
            again == payload.as_bytes(),
            "{name}: decode then encode changed the payload\n want {payload}\n  got {}",
            String::from_utf8_lossy(&again)
        );
    }
}
