//! Failure modes of the reactor front door (DESIGN.md §15): the
//! connection cap refuses with a typed frame and readmits, a refused peer
//! that keeps writing cannot hold up new connections, a peer that dies
//! mid-frame cannot wedge its shard, and a parked request does not stop
//! the shard from accepting. The many-connection stress with its fd and
//! thread leak check lives in `net_stress_leaks.rs`, a binary of its own.

use hsa_engine::net::wire;
use hsa_engine::net::{Client, ClientError, NetConfig, NetServer};
use hsa_engine::{Engine, EngineConfig, Request, Service, ServiceConfig};
use hsa_graph::Lambda;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service(cfg: ServiceConfig) -> Arc<Service> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    Arc::new(Service::new(engine, cfg))
}

/// The accept-time connection cap answers a typed refusal instead of
/// letting fd tables grow toward EMFILE, and a freed slot readmits.
#[test]
fn connection_cap_refuses_with_typed_frame_then_readmits() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        svc,
        NetConfig {
            max_connections: 2,
            reactor_threads: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();

    let held1 = Client::connect(server.local_addr()).unwrap();
    let held2 = Client::connect(server.local_addr()).unwrap();
    match Client::connect(server.local_addr()) {
        Err(ClientError::Remote(wire::WireError::ConnLimit(cap))) => assert_eq!(cap, 2),
        Err(other) => panic!("expected a ConnLimit refusal, got {other:?}"),
        Ok(_) => panic!("expected a ConnLimit refusal, got an admitted connection"),
    }
    assert_eq!(server.net_stats().refused, 1);
    // Two HELLO_ACKs and the refusal: every encoded frame counts.
    assert_eq!(server.net_stats().frames_out, 3);

    // Freeing one slot readmits (the release happens when the reactor
    // reaps the closed connection, so poll briefly).
    drop(held1);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut readmitted = loop {
        match Client::connect(server.local_addr()) {
            Ok(client) => break client,
            Err(ClientError::Remote(wire::WireError::ConnLimit(_))) => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected connect failure: {other}"),
        }
    };
    let sc = hsa_workloads::paper_scenario();
    assert!(readmitted
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    drop(held2);
    server.shutdown();
}

/// A refused peer is never read: its shard drains it until the peer's EOF
/// or the drain's deadline. A refused
/// peer that keeps writing must not hold that drain past the deadline, and
/// new connections must be accepted while it writes.
#[test]
fn refused_peer_that_keeps_writing_does_not_block_accepts() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        svc,
        NetConfig {
            max_connections: 1,
            reactor_threads: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let held = Client::connect(server.local_addr()).unwrap();

    // Over the cap: read the whole refusal (the server half-closes after
    // it), then keep writing a byte every 50 ms for 3 s.
    let mut refused = TcpStream::connect(server.local_addr()).unwrap();
    let mut got = Vec::new();
    refused.read_to_end(&mut got).unwrap();
    let mut want = Vec::new();
    wire::FrameEncoder::new().put_error(&mut want, 0, 0, &wire::WireError::ConnLimit(1));
    assert_eq!(got, want, "expected exactly the ConnLimit refusal");
    let writer = std::thread::spawn(move || {
        let stop = Instant::now() + Duration::from_secs(3);
        while Instant::now() < stop && refused.write_all(&[0]).is_ok() {
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    drop(held);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(1);
    let mut client = loop {
        match Client::connect(server.local_addr()) {
            Ok(client) => break client,
            Err(ClientError::Remote(wire::WireError::ConnLimit(_))) => {
                assert!(Instant::now() < deadline, "held slot never freed");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected connect failure: {other}"),
        }
    };
    let sc = hsa_workloads::paper_scenario();
    assert!(client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "a new client got in {waited:?} after the held one dropped"
    );
    writer.join().unwrap();
    server.shutdown();
}

/// A peer that dies mid-frame (write half a header, then vanish) must
/// not wedge the reactor or leak its connection slot.
#[test]
fn truncated_writer_does_not_wedge_the_shard() {
    let svc = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        svc,
        NetConfig {
            max_connections: 1,
            reactor_threads: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();

    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Announce a 100-byte frame, deliver 3 bytes, disappear.
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
    }

    // The shard reaped the dead connection: the single slot frees and a
    // real client gets served on the same shard.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut client = loop {
        match Client::connect(server.local_addr()) {
            Ok(client) => break client,
            Err(ClientError::Remote(wire::WireError::ConnLimit(_))) => {
                assert!(Instant::now() < deadline, "dead conn never reaped");
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected connect failure: {other}"),
        }
    };
    let sc = hsa_workloads::paper_scenario();
    let reply = client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .unwrap();
    assert!(reply.instance_id().is_some());
    server.shutdown();
}

/// A server with a one-connection cap and one reactor shard.
fn capped_server() -> NetServer {
    let svc = service(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    NetServer::bind(
        "127.0.0.1:0",
        svc,
        NetConfig {
            max_connections: 1,
            reactor_threads: 1,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

/// Refused peers are drained in the background of the shard loop, so ten
/// silent peers past the cap (each drained until its bound) do not hold up
/// the refusal of the next one.
#[test]
fn silent_refused_peers_do_not_delay_the_next_refusal() {
    let server = capped_server();
    let held = Client::connect(server.local_addr()).unwrap();
    let silent: Vec<TcpStream> = (0..10)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    let t0 = Instant::now();
    match Client::connect(server.local_addr()) {
        Err(ClientError::Remote(wire::WireError::ConnLimit(cap))) => assert_eq!(cap, 1),
        Err(other) => panic!("expected a ConnLimit refusal, got {other:?}"),
        Ok(_) => panic!("expected a ConnLimit refusal, got an admitted connection"),
    }
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(300),
        "the refusal took {waited:?} behind 10 silent refused peers"
    );
    drop(silent);
    drop(held);
    server.shutdown();
}

/// A peer that triggers a fatal protocol error, reads the error frame and
/// then stays open without writing loses its slot when the drain reaches
/// its bound, so a new client gets in and is served within 1 s.
#[test]
fn silent_peer_after_a_fatal_error_frees_its_slot() {
    let server = capped_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let announced = wire::DEFAULT_MAX_FRAME_LEN as u32 + 1;
    stream.write_all(&announced.to_be_bytes()).unwrap();
    // The server answers and half-closes; the peer keeps its end open.
    let mut got = Vec::new();
    stream.read_to_end(&mut got).unwrap();
    let mut want = Vec::new();
    let oversized =
        wire::WireError::Oversized(u64::from(announced), wire::DEFAULT_MAX_FRAME_LEN as u64);
    wire::FrameEncoder::new().put_error(&mut want, 0, 0, &oversized);
    assert_eq!(got, want, "expected exactly the Oversized error frame");

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(1);
    let mut client = loop {
        match Client::connect(server.local_addr()) {
            Ok(client) => break client,
            Err(ClientError::Remote(wire::WireError::ConnLimit(_))) => {
                assert!(
                    Instant::now() < deadline,
                    "the silent peer kept its slot for {:?}",
                    t0.elapsed()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected connect failure: {other}"),
        }
    };
    let sc = hsa_workloads::paper_scenario();
    assert!(client
        .call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))
        .is_ok());
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(1),
        "a new client was served {waited:?} after the error"
    );
    drop(stream);
    server.shutdown();
}

/// Shard 0 accepts in the same loop that serves its connections, so a
/// connection parked on a full service gate must not hold up the next
/// client's handshake. One shard, one worker and a one-request gate: a
/// burst of by-value frontiers pipelined behind a 220-CRU one parks at
/// once, and as each frontier prepares an instance of its own, the burst
/// stays parked for tens of milliseconds, through the whole handshake.
#[test]
fn a_parked_request_does_not_hold_up_accepts() {
    let svc = service(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let server = NetServer::bind(
        "127.0.0.1:0",
        svc,
        NetConfig {
            reactor_threads: 1,
            ..NetConfig::default()
        },
    )
    .unwrap();
    const BURST: u64 = 64;
    let burst: Vec<Request> = (0..BURST)
        .map(|seed| {
            let params = RandomTreeParams {
                n_crus: 220,
                n_satellites: 4,
                placement: Placement::Random,
                ..RandomTreeParams::default()
            };
            let (tree, costs) = random_instance(&params, 7 + seed);
            Request::frontier(&tree, &costs)
        })
        .collect();
    let mut busy = Client::connect(server.local_addr()).unwrap();
    for request in &burst {
        busy.send(request).unwrap();
    }
    busy.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.net_stats().saturation_parks == 0 {
        assert!(Instant::now() < deadline, "the burst never parked");
        std::thread::yield_now();
    }

    let t0 = Instant::now();
    let second = Client::connect(server.local_addr()).expect("a handshake while parked");
    let waited = t0.elapsed();
    let answered = server.service().stats().completed;
    assert!(
        waited < Duration::from_secs(1),
        "the handshake took {waited:?} behind a parked request"
    );
    assert!(
        answered < BURST / 2,
        "the handshake waited for the burst ({answered} of {BURST} answered)"
    );
    drop(second);
    for _ in 0..BURST {
        let (_corr, outcome) = busy.recv_any().unwrap();
        assert!(outcome.is_ok(), "a parked burst is answered in full");
    }
    server.shutdown();
}
