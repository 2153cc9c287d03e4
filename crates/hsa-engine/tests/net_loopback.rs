//! Integration coverage of the TCP front door over loopback: round
//! trips, malformed frames answered with error frames, per-tenant
//! quotas, graceful shutdown draining every accepted ticket, and
//! reconnect resuming id-addressed requests via the raw instance id.

use hsa_engine::net::wire::{self, FrameEncoder, WireError};
use hsa_engine::net::{Client, ClientError, NetConfig, NetServer};
use hsa_engine::{Engine, EngineConfig, Reply, Request, Service, ServiceConfig, TenantId};
use hsa_graph::{Cost, Lambda};
use hsa_tree::Delta;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn server(cfg: ServiceConfig, net: NetConfig) -> NetServer {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Arc::new(Service::new(engine, cfg));
    NetServer::bind("127.0.0.1:0", service, net).expect("binding loopback")
}

fn verify_service() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        verify: true,
        ..ServiceConfig::default()
    }
}

#[test]
fn full_round_trip_over_loopback() {
    let server = server(verify_service(), NetConfig::default());
    let sc = hsa_workloads::paper_scenario();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // First contact by value; every answer under verify mode.
    let first = client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .unwrap();
    let id = first.instance_id().expect("first contact learns the id");
    let sol = first.solution().expect("solve answers a solution").clone();

    // Hot path by id: same answer, no tree on the wire.
    let again = client
        .call(&Request::solve_by_id(id, Lambda::HALF))
        .unwrap();
    assert_eq!(
        wire::reply_json(&again),
        wire::reply_json(&first),
        "id-addressed solve must answer byte-identically"
    );

    // Frontier, by value then by id.
    let frontier = client
        .call(&Request::frontier(&sc.tree, &sc.costs))
        .unwrap();
    assert_eq!(frontier.instance_id(), Some(id));
    let fr = frontier.frontier().expect("frontier reply");
    assert_eq!(fr.objective_at(Lambda::HALF), sol.objective);
    let frontier_by_id = client.call(&Request::frontier_by_id(id)).unwrap();
    assert_eq!(
        wire::reply_json(&frontier_by_id),
        wire::reply_json(&frontier)
    );

    // A tenant session over the wire: open, delta, close.
    let tenant = TenantId(42);
    client.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
    let busier = Delta::new().scale_subtree(sc.tree.root(), 11, 10);
    let applied = client
        .call(&Request::delta(tenant, busier, Lambda::HALF))
        .unwrap();
    let post = applied.solution().expect("delta answers a solution");
    assert!(post.objective >= sol.objective);
    let stats = client.close_tenant(tenant).unwrap();
    assert_eq!(stats.applies, 1);

    // Server-side counters saw exactly the submitted requests, the
    // tenant's open and close included.
    let svc = server.service().stats();
    assert_eq!(svc.completed, 7);
    assert_eq!(svc.failed, 0);
    assert_eq!(svc.latency.tenant.count, 2);
    server.shutdown();
}

#[test]
fn anytime_over_loopback_matches_in_process_byte_for_byte() {
    let server = server(verify_service(), NetConfig::default());
    let sc = hsa_workloads::paper_scenario();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A budget no paper-scale instance can exhaust: the exact arm always
    // finishes, so the anytime answer is deterministic — byte-identity
    // against the in-process service is a fair assertion.
    let budget_ms = 60_000;
    let remote = client
        .call(&Request::solve_anytime(
            &sc.tree,
            &sc.costs,
            Lambda::HALF,
            budget_ms,
        ))
        .unwrap();
    let answer = remote.anytime().expect("anytime reply");
    assert!(answer.exact_finished, "a generous budget lets exact finish");
    assert!(answer.certificate.is_tight());
    assert_eq!(answer.certificate.upper, answer.solution.objective);

    // The same request through the same service, no wire in the way.
    let local = server
        .service()
        .submit(Request::solve_anytime(
            &sc.tree,
            &sc.costs,
            Lambda::HALF,
            budget_ms,
        ))
        .wait()
        .unwrap();
    assert_eq!(
        wire::reply_json(&remote),
        wire::reply_json(&local),
        "the wire must not change the anytime answer"
    );

    // And the anytime solution is the exact solution: the plain solve
    // path answers the identical cut.
    let solve = client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .unwrap();
    let sol = solve.solution().expect("solve answers a solution");
    assert_eq!(sol.cut, answer.solution.cut);
    assert_eq!(sol.objective, answer.solution.objective);
    assert_eq!(solve.instance_id(), remote.instance_id());
    server.shutdown();
}

#[test]
fn service_errors_travel_as_typed_frames() {
    let server = server(verify_service(), NetConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unknown instance id.
    let unknown = hsa_engine::InstanceId::from_raw(0xDEAD_BEEF);
    let err = client
        .call(&Request::solve_by_id(unknown, Lambda::HALF))
        .unwrap_err();
    match err {
        ClientError::Remote(WireError::Service(code, _)) => {
            assert_eq!(code, "engine.unknown_instance")
        }
        other => panic!("expected a service error frame, got {other}"),
    }

    // Unknown tenant.
    let err = client
        .call(&Request::delta(TenantId(7), Delta::new(), Lambda::HALF))
        .unwrap_err();
    match err {
        ClientError::Remote(WireError::Service(code, _)) => assert_eq!(code, "unknown_tenant"),
        other => panic!("expected a service error frame, got {other}"),
    }

    // The connection survives error frames.
    let sc = hsa_workloads::paper_scenario();
    assert!(client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    server.shutdown();
}

#[test]
fn malformed_frames_answer_error_frames_not_hangs() {
    let server = server(verify_service(), NetConfig::default());
    let sc = hsa_workloads::paper_scenario();

    // Bad version byte: refused under its own correlation id, connection
    // stays up (the header layout is version-stable).
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut bad_version = Vec::new();
    FrameEncoder::new().put_request(
        &mut bad_version,
        99,
        &Request::solve_by_id(hsa_engine::InstanceId::from_raw(1), Lambda::HALF),
    );
    bad_version[4] = 77; // the version byte, right after the length prefix
    client.send_raw(&bad_version).unwrap();
    let frame = client.recv_raw().unwrap();
    assert_eq!(frame.kind, wire::kind::ERROR);
    assert_eq!(frame.corr, 99, "version refusals echo the correlation id");
    let wire::NetReply::Error(err) = wire::decode_server_frame(&frame).unwrap() else {
        panic!("expected an error body");
    };
    assert_eq!(
        err,
        WireError::UnsupportedVersion(77, wire::PROTOCOL_VERSION)
    );

    // Unknown kind byte.
    let mut unknown_kind = Vec::new();
    wire::put_raw_frame(&mut unknown_kind, 0x6F, 0, 123, b"{}");
    client.send_raw(&unknown_kind).unwrap();
    let frame = client.recv_raw().unwrap();
    assert_eq!(frame.kind, wire::kind::ERROR);
    assert_eq!(frame.corr, 123);
    let wire::NetReply::Error(err) = wire::decode_server_frame(&frame).unwrap() else {
        panic!("expected an error body");
    };
    assert_eq!(err, WireError::UnknownKind(0x6F));

    // Garbage payload under a valid kind.
    let mut garbage = Vec::new();
    wire::put_raw_frame(&mut garbage, wire::kind::SOLVE, 0, 7, b"not json at all");
    client.send_raw(&garbage).unwrap();
    let frame = client.recv_raw().unwrap();
    assert_eq!((frame.kind, frame.corr), (wire::kind::ERROR, 7));
    assert!(matches!(
        wire::decode_server_frame(&frame).unwrap(),
        wire::NetReply::Error(WireError::Malformed(_))
    ));

    // The same connection still answers real requests after all three.
    assert!(client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());

    // Oversized length prefix: answered with an explicit error frame,
    // then the connection closes (the stream cannot re-synchronise).
    let mut oversized = Client::connect(server.local_addr()).unwrap();
    oversized
        .send_raw(&u32::MAX.to_be_bytes())
        .expect("writing a hostile prefix");
    let frame = oversized.recv_raw().unwrap();
    assert_eq!(frame.kind, wire::kind::ERROR);
    assert!(matches!(
        wire::decode_server_frame(&frame).unwrap(),
        wire::NetReply::Error(WireError::Oversized(..))
    ));
    assert!(oversized.recv_raw().is_err(), "connection must close");

    // Undersized length prefix: same story.
    let mut undersized = Client::connect(server.local_addr()).unwrap();
    undersized.send_raw(&4u32.to_be_bytes()).unwrap();
    undersized.send_raw(&[0u8; 4]).unwrap();
    let frame = undersized.recv_raw().unwrap();
    assert_eq!(frame.kind, wire::kind::ERROR);
    assert!(matches!(
        wire::decode_server_frame(&frame).unwrap(),
        wire::NetReply::Error(WireError::Malformed(_))
    ));
    assert!(undersized.recv_raw().is_err(), "connection must close");

    // A frame truncated mid-payload (client hangs up): the server drops
    // the connection without wedging — new connections still answer.
    let mut truncated = Client::connect(server.local_addr()).unwrap();
    let mut bytes = Vec::new();
    FrameEncoder::new().put_request(
        &mut bytes,
        1,
        &Request::solve(&sc.tree, &sc.costs, Lambda::HALF),
    );
    truncated.send_raw(&bytes[..bytes.len() / 2]).unwrap();
    drop(truncated);
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(fresh
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    server.shutdown();
}

/// The cap a server announces bounds what the client sends, not what it
/// receives: a reply longer than the cap still arrives, and a request
/// longer than the cap is refused locally with nothing queued.
#[test]
fn announced_frame_cap_bounds_requests_not_replies() {
    let (tree, costs) = random_instance(
        &RandomTreeParams {
            n_crus: 40,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        7,
    );
    let service = Arc::new(Service::new(
        Arc::new(Engine::new(EngineConfig::default())),
        verify_service(),
    ));
    let id = service
        .submit(Request::frontier(&tree, &costs))
        .wait()
        .unwrap()
        .instance_id()
        .unwrap();
    let cap = 512;
    let net = NetConfig {
        max_frame_len: cap,
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), net).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let frontier = client.call(&Request::frontier_by_id(id)).unwrap();
    assert!(
        wire::reply_json(&frontier).len() > cap,
        "the reply must outgrow the cap for this test to mean anything"
    );
    match client.call(&Request::solve(&tree, &costs, Lambda::HALF)) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("an over-cap request must be refused locally, got {other:?}"),
    }
    match client.open_tenant(TenantId(1), &tree, &costs) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("an over-cap open-tenant must be refused locally, got {other:?}"),
    }
    let again = client.call(&Request::frontier_by_id(id)).unwrap();
    assert_eq!(wire::reply_json(&again), wire::reply_json(&frontier));
    assert_eq!(
        server.service().stats().submitted,
        3,
        "the refused frames never reached the server"
    );
    server.shutdown();
}

/// A payload nested far past the decoder's depth cap answers a typed
/// `Malformed` frame under its own correlation id (it must not overflow the
/// reactor thread's stack), and the same connection then serves a solve.
#[test]
fn deeply_nested_payload_answers_malformed_and_the_connection_survives() {
    let server = server(verify_service(), NetConfig::default());
    let sc = hsa_workloads::paper_scenario();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let brackets = "[".repeat(100_000);
    // The bare brackets are refused as the wrong shape; under an unknown
    // key they are skipped, which is where the depth cap has to hold.
    for (corr, payload) in [(5, brackets.clone()), (6, format!("{{\"x\":{brackets}"))] {
        let mut frame = Vec::new();
        wire::put_raw_frame(&mut frame, wire::kind::SOLVE, 0, corr, payload.as_bytes());
        client.send_raw(&frame).unwrap();
        let answer = client.recv_raw().unwrap();
        assert_eq!((answer.kind, answer.corr), (wire::kind::ERROR, corr));
        match wire::decode_server_frame(&answer).unwrap() {
            wire::NetReply::Error(WireError::Malformed(msg)) => {
                assert!(corr == 5 || msg.contains("nesting deeper than"), "{msg}")
            }
            other => panic!("expected a malformed-payload error, got {other:?}"),
        }
    }
    assert!(client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    server.shutdown();
}

/// One pipelined window mixes requests the service hands to its pool
/// (by-value `SOLVE`, `DELTA`) with the id-addressed reads it answers on
/// the reactor thread (`SOLVE_BY_ID`, `FRONTIER_BY_ID`, an unknown id).
/// The answers leave in submission order, each byte-identical to a
/// sequential in-process service.
#[test]
fn pool_and_inline_answers_share_one_connection_in_submission_order() {
    let server = server(
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        NetConfig::default(),
    );
    let local = Service::new(
        Arc::new(Engine::new(EngineConfig::default())),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let sc = hsa_workloads::paper_scenario();
    // A first contact big enough that the reads behind it are answered
    // while it is still on a worker.
    let (big_tree, big_costs) = random_instance(
        &RandomTreeParams {
            n_crus: 220,
            n_satellites: 4,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        11,
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .unwrap()
        .instance_id()
        .unwrap();
    let tenant = TenantId(5);
    client.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();
    assert!(local
        .submit(Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .wait()
        .is_ok());
    local.open_tenant(tenant, &sc.tree, &sc.costs).unwrap();

    let unknown = hsa_engine::InstanceId::from_raw(0xDEAD_BEEF);
    let busier = Delta::new().scale_subtree(sc.tree.root(), 11, 10);
    let window = [
        Request::solve(&big_tree, &big_costs, Lambda::HALF),
        Request::solve_by_id(id, Lambda::new(1, 4).unwrap()),
        Request::frontier_by_id(id),
        Request::delta(tenant, busier.clone(), Lambda::HALF),
        Request::solve_by_id(unknown, Lambda::HALF),
        Request::solve_by_id(id, Lambda::ONE),
        Request::delta(tenant, busier, Lambda::ZERO),
        Request::frontier_by_id(id),
    ];
    let corrs: Vec<u64> = window.iter().map(|r| client.send(r).unwrap()).collect();
    client.flush().unwrap();
    for (request, corr) in window.iter().zip(corrs) {
        let frame = client.recv_raw().unwrap();
        assert_eq!(frame.corr, corr, "answers leave in submission order");
        let ticket = local.submit(request.clone());
        let answer = if matches!(
            request,
            Request::SolveById { .. } | Request::FrontierById { .. }
        ) {
            ticket
                .try_take()
                .unwrap_or_else(|_| panic!("an id-addressed read is answered inside submit"))
        } else {
            ticket.wait()
        };
        match answer {
            Ok(reply) => assert_eq!(
                String::from_utf8_lossy(&frame.payload),
                wire::reply_json(&reply)
            ),
            Err(e) => match wire::decode_server_frame(&frame) {
                Ok(wire::NetReply::Error(err)) => assert_eq!(err, WireError::from(&e)),
                other => panic!("expected an error frame, got {other:?}"),
            },
        }
    }
    let lat = local.stats().latency;
    assert_eq!((lat.solve.count, lat.frontier.count), (5, 2));
    let remote = server.service().stats();
    assert_eq!(remote.submitted, remote.completed + remote.failed);
    assert_eq!(remote.failed, 1, "only the unknown id fails");
    server.shutdown();
}

/// A tenant's close pipelined behind two of its deltas is answered after
/// them, with counters that include both: tenant frames take the same
/// in-order reply path as every other request, and the close queues behind
/// its tenant's deltas. Each delta rescales a 192-CRU tree, long enough
/// that a close answered on arrival would overtake both.
#[test]
fn close_tenant_answers_after_the_deltas_sent_before_it() {
    let server = server(ServiceConfig::default(), NetConfig::default());
    let (tree, costs) = random_instance(
        &RandomTreeParams {
            n_crus: 192,
            n_satellites: 8,
            placement: Placement::Blocked,
            ..RandomTreeParams::default()
        },
        3,
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let tenant = TenantId(8);
    client.open_tenant(tenant, &tree, &costs).unwrap();
    let rescale = Delta::new().scale_subtree(tree.root(), 11, 10);
    let mut sent = Vec::new();
    for _ in 0..2 {
        let delta = Request::delta(tenant, rescale.clone(), Lambda::HALF);
        sent.push((client.send(&delta).unwrap(), wire::kind::APPLIED));
    }
    // An empty CLOSE_TENANT frame, byte for byte what any client sends.
    let close = client.send_encoded(wire::kind::CLOSE_TENANT, tenant.0, &[]);
    sent.push((close, wire::kind::TENANT_CLOSED));
    client.flush().unwrap();
    let frames: Vec<wire::Frame> = (0..sent.len())
        .map(|_| client.recv_raw().unwrap())
        .collect();
    let got: Vec<(u64, u8)> = frames.iter().map(|f| (f.corr, f.kind)).collect();
    assert_eq!(got, sent, "answers leave in submission order");
    match wire::decode_server_frame(&frames[2]) {
        Ok(wire::NetReply::Reply(Reply::TenantClosed { stats })) => {
            assert_eq!(
                stats.applies, 2,
                "the close counts the deltas sent before it"
            )
        }
        other => panic!("expected the closed tenant's counters, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn per_tenant_quota_refuses_with_typed_frames() {
    let server = server(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        NetConfig {
            per_tenant_inflight: 1,
            ..NetConfig::default()
        },
    );
    // A tree big enough that its frontier keeps the single worker busy
    // while the follow-up burst arrives.
    let (tree, costs) = random_instance(
        &RandomTreeParams {
            n_crus: 220,
            n_satellites: 4,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        7,
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    const BURST: usize = 16;
    let mut corrs = Vec::new();
    corrs.push(client.send(&Request::frontier(&tree, &costs)).unwrap());
    for _ in 1..BURST {
        corrs.push(client.send(&Request::frontier(&tree, &costs)).unwrap());
    }
    let mut ok = 0usize;
    let mut refused = 0usize;
    for _ in 0..BURST {
        let (corr, outcome) = client.recv_any().unwrap();
        assert!(corrs.contains(&corr));
        match outcome {
            Ok(_) => ok += 1,
            Err(ClientError::Remote(WireError::Quota(0))) => refused += 1,
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert_eq!(ok + refused, BURST);
    assert!(ok >= 1, "the first request must be admitted");
    assert!(
        refused >= 1,
        "a 1-deep quota must refuse part of a {BURST}-burst"
    );
    // Quota slots are released: a fresh request sails through.
    assert!(client.call(&Request::frontier(&tree, &costs)).is_ok());
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_accepted_ticket() {
    let server = server(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        NetConfig::default(),
    );
    let sc = hsa_workloads::paper_scenario();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Pipeline a burst and wait until the service has *accepted* all of
    // it (submitted counter), so shutdown finds real in-flight work.
    const BURST: u64 = 24;
    for i in 0..BURST {
        let lambda = Lambda::new(u32::try_from(i % 9).unwrap(), 8).unwrap();
        client
            .send(&Request::solve(&sc.tree, &sc.costs, lambda))
            .unwrap();
    }
    // `send` only queues; the burst travels as one write.
    client.flush().unwrap();
    let service = Arc::clone(server.service());
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.stats().submitted < BURST {
        assert!(Instant::now() < deadline, "submission stalled");
        std::thread::yield_now();
    }

    // Shut down while the burst is (at least partly) in flight.
    server.shutdown();
    // Shutdown closed the listener, so a new client is refused.
    assert!(Client::connect(server.local_addr()).is_err());

    // Every accepted ticket was drained and its answer flushed before
    // the connection closed.
    let mut answered = 0u64;
    while let Ok((_corr, outcome)) = client.recv_any() {
        outcome.expect("drained answers are real answers");
        answered += 1;
    }
    assert_eq!(answered, BURST, "shutdown must drain all accepted tickets");
    assert_eq!(service.stats().completed, BURST);
}

#[test]
fn reconnecting_client_resumes_by_raw_id() {
    let server = server(verify_service(), NetConfig::default());
    let sc = hsa_workloads::paper_scenario();

    // First connection: learn the id, persist only its raw u64.
    let raw = {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client
            .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
            .unwrap();
        reply
            .instance_id()
            .expect("first contact learns the id")
            .raw()
    };

    // Second connection: resume id-addressed requests without ever
    // sending the tree again.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = hsa_engine::InstanceId::from_raw(raw);
    let reply = client
        .call(&Request::solve_by_id(id, Lambda::HALF))
        .unwrap();
    let sol = reply.solution().expect("id-addressed solve answers");
    assert!(sol.objective > 0 || sol.report.end_to_end >= Cost::ZERO);
    let frontier = client.call(&Request::frontier_by_id(id)).unwrap();
    assert_eq!(
        frontier.frontier().unwrap().objective_at(Lambda::HALF),
        sol.objective
    );
    server.shutdown();
}
