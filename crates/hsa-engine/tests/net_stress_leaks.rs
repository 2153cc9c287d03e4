//! Multi-connection stress of the reactor front door (DESIGN.md §15):
//! many concurrent clients with interleaved pipelined bursts, slow
//! readers, half-closing peers, a saturated service gate — every answer
//! byte-identical to the in-process service, no reply ever leaking
//! across connections, and a clean shutdown that leaks neither fds nor
//! threads.
//!
//! The leak check counts the whole process's fds and threads, so this
//! binary holds this one test only: a sibling test running in parallel
//! would move the counts.

use hsa_engine::net::wire::{self, FrameDecoder, FrameEncoder, NetReply};
use hsa_engine::net::{Client, NetConfig, NetServer};
use hsa_engine::{Engine, EngineConfig, Request, Service, ServiceConfig};
use hsa_graph::Lambda;
use hsa_tree::{CostModel, CruTree};
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 64;
const BURSTS: usize = 3;
const BURST_LEN: usize = 4;

fn instance_for(client: usize) -> (CruTree, CostModel) {
    random_instance(
        &RandomTreeParams {
            n_crus: 10,
            n_satellites: 3,
            placement: Placement::Random,
            ..RandomTreeParams::default()
        },
        9000 + client as u64,
    )
}

fn lambda_for(client: usize, i: usize) -> Lambda {
    Lambda::new(u32::try_from((client + i) % 9).unwrap(), 8).unwrap()
}

/// The canonical wire JSON the in-process service answers for one
/// request — computed on a reference service so the loopback answers
/// can be compared byte-for-byte.
fn expected_json(reference: &Service, requests: &[Request]) -> Vec<String> {
    requests
        .iter()
        .map(|req| {
            let reply = reference
                .submit(req.clone())
                .wait()
                .expect("reference replay cannot fail");
            wire::reply_json(&reply)
        })
        .collect()
}

fn service(cfg: ServiceConfig) -> Arc<Service> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    Arc::new(Service::new(engine, cfg))
}

#[cfg(target_os = "linux")]
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// 64 concurrent clients, each with its own instance, pipelining bursts
/// against a deliberately shallow service gate (so saturation parks are
/// exercised). A quarter of the clients read slowly; another quarter
/// half-close after their last burst and still drain every answer.
#[test]
fn stress_many_connections_byte_identical_no_leaks() {
    #[cfg(target_os = "linux")]
    let (fds_before, threads_before) = (fd_count(), thread_count());

    {
        let svc = service(ServiceConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServiceConfig::default()
        });
        let server = NetServer::bind(
            "127.0.0.1:0",
            Arc::clone(&svc),
            NetConfig {
                reactor_threads: 2,
                ..NetConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // One reference service replays every client's stream in process:
        // same structural ids, same canonical bytes.
        let reference = service(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });

        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    let (tree, costs) = instance_for(c);
                    let requests: Vec<Request> = (0..BURSTS * BURST_LEN)
                        .map(|i| {
                            if i % 2 == 0 {
                                Request::solve(&tree, &costs, lambda_for(c, i))
                            } else {
                                Request::frontier(&tree, &costs)
                            }
                        })
                        .collect();
                    let expected = expected_json(&reference, &requests);

                    if c % 4 == 3 {
                        half_close_client(addr, &requests, &expected, c);
                    } else {
                        pipelined_client(addr, &requests, &expected, c % 4 == 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }

        let stats = server.net_stats();
        assert_eq!(stats.accepted, CLIENTS as u64);
        assert_eq!(stats.refused, 0);
        assert!(
            stats.frames_out >= (CLIENTS * (BURSTS * BURST_LEN + 1)) as u64,
            "every request (plus each handshake) must answer a frame"
        );
        // A 4-deep gate under 64 pipelining clients must have parked.
        assert!(
            stats.saturation_parks > 0,
            "the stress must exercise backpressure parking"
        );
        // Batched flushes: strictly fewer syscalls than frames written.
        assert!(
            stats.writes < stats.frames_out,
            "pipelined replies must coalesce ({} writes for {} frames)",
            stats.writes,
            stats.frames_out,
        );

        server.shutdown();
    }

    // Everything joined and closed: no fd and no thread outlives the
    // server + service + clients (linux: exact counts via procfs).
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (fds, threads) = (fd_count(), thread_count());
            if (fds, threads) == (fds_before, threads_before) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "leak: {fds_before}→{fds} fds, {threads_before}→{threads} threads"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A well-behaved pipelining client: send a burst as one flush, then
/// drain it, matching answers by correlation id against the expected
/// canonical bytes. Slow readers nap between receives so the server's
/// write queues stay nonempty across readiness events.
fn pipelined_client(
    addr: std::net::SocketAddr,
    requests: &[Request],
    expected: &[String],
    slow: bool,
) {
    let mut client = Client::connect(addr).unwrap();
    let mut answers: HashMap<u64, &String> = HashMap::new();
    for (burst_idx, burst) in requests.chunks(BURST_LEN).enumerate() {
        let mut corrs = Vec::new();
        for (i, req) in burst.iter().enumerate() {
            let corr = client.send(req).unwrap();
            answers.insert(corr, &expected[burst_idx * BURST_LEN + i]);
            corrs.push(corr);
        }
        client.flush().unwrap();
        for _ in &corrs {
            if slow {
                std::thread::sleep(Duration::from_millis(2));
            }
            let (corr, outcome) = client.recv_any().unwrap();
            let reply = outcome.expect("stress answers are real answers");
            let want = answers
                .remove(&corr)
                .expect("answer for a correlation id this client never sent");
            assert_eq!(
                &wire::reply_json(&reply),
                want,
                "reply bytes diverged from in-process (cross-connection leak?)"
            );
        }
    }
    assert!(answers.is_empty(), "every pipelined answer must arrive");
}

/// The next whole frame off a blocking stream, or `None` at a clean EOF
/// between frames.
fn next_frame(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<wire::Frame> {
    loop {
        match dec.next(wire::DEFAULT_MAX_FRAME_LEN) {
            Some(wire::Decoded::Frame(f)) => return Some(f.to_frame()),
            Some(bad) => panic!("unusable length prefix: {bad:?}"),
            None => {}
        }
        if dec.fill_from(stream, 16 * 1024).unwrap() == 0 {
            assert_eq!(dec.buffered(), 0, "the stream ended mid-frame");
            return None;
        }
    }
}

/// A half-closing peer speaking raw wire bytes: handshake, write every
/// request, FIN the write half, then drain all answers until EOF. The
/// server must keep serving a read-closed connection until its queue is
/// empty.
fn half_close_client(
    addr: std::net::SocketAddr,
    requests: &[Request],
    expected: &[String],
    client_id: usize,
) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let (mut enc, mut dec) = (FrameEncoder::new(), FrameDecoder::new());
    let mut bytes = Vec::new();
    enc.put_hello(&mut bytes, 0);
    stream.write_all(&bytes).unwrap();
    let ack = next_frame(&mut stream, &mut dec).expect("handshake answered");
    assert!(matches!(
        wire::decode_server_frame(&ack),
        Ok(NetReply::HelloAck(_))
    ));

    // The whole stream in one write, then FIN.
    bytes.clear();
    let base = (client_id as u64) << 32;
    for (i, req) in requests.iter().enumerate() {
        enc.put_request(&mut bytes, base + i as u64, req);
    }
    stream.write_all(&bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let mut got = vec![false; requests.len()];
    for _ in 0..requests.len() {
        let frame = next_frame(&mut stream, &mut dec).expect("an answer frame");
        let idx = usize::try_from(frame.corr - base).expect("answer for someone else's corr");
        assert!(idx < requests.len(), "answer for someone else's corr");
        assert!(!got[idx], "duplicate answer for one correlation id");
        got[idx] = true;
        assert_eq!(
            std::str::from_utf8(&frame.payload).unwrap(),
            expected[idx],
            "reply bytes diverged from in-process (cross-connection leak?)"
        );
    }
    // All answered, then a clean EOF.
    if let Some(extra) = next_frame(&mut stream, &mut dec) {
        panic!("expected EOF after the drain, got {extra:?}");
    }
    assert!(got.into_iter().all(|g| g), "every answer must arrive");
}

// Interleaved bursts across many clients hammering one shard must answer
// strictly per connection: the stress parameters really do interleave.
const _: () = assert!(CLIENTS >= 64 && BURSTS * BURST_LEN >= 8);
