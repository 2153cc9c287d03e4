//! The thread budget of the serving stack: an `Engine` owns no thread, a
//! `Service` owns its workers plus one portfolio worker per arm, a
//! `NetServer` owns its reactor shards and nothing else, and a batch
//! call's fan-out threads end with the call.
//!
//! The check counts the whole process's threads, so this binary holds
//! this one test only: a sibling test running in parallel would move the
//! count.

#![cfg(target_os = "linux")]

use hsa_engine::net::{Client, NetConfig, NetServer};
use hsa_engine::{Engine, EngineConfig, Service, ServiceConfig};
use hsa_graph::Lambda;
use hsa_workloads::{random_instance, Placement, RandomTreeParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

/// Waits until the thread count reads `want`: a joined thread can stay
/// listed for a moment after `join` returns.
fn settles_at(want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {now} threads, want {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn engine_owns_no_thread_and_service_owns_a_fixed_set() {
    let baseline = thread_count();

    let engine = Arc::new(Engine::new(EngineConfig::default()));
    assert_eq!(thread_count(), baseline, "Engine::new spawned threads");

    let service = Arc::new(Service::new(Arc::clone(&engine), ServiceConfig::default()));
    assert_eq!(
        thread_count(),
        baseline + service.workers() + 4,
        "a default service runs its workers plus one portfolio worker per arm"
    );
    let serving = thread_count();

    // The front door is its reactor shards: the first one also accepts,
    // so a served connection adds no thread, and shutdown ends them all.
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            reactor_threads: 2,
            ..NetConfig::default()
        },
    )
    .expect("binding loopback");
    assert_eq!(thread_count(), serving + 2, "a server runs its 2 shards");
    let client = Client::connect(server.local_addr()).expect("the first shard accepts");
    assert_eq!(thread_count(), serving + 2, "a connection adds no thread");
    drop(client);
    server.shutdown();
    settles_at(serving, "after shutting the server down");
    drop(server);

    // A 64-query batch fanned across two threads answers cut-for-cut what
    // the one-query path answers, and its threads end with the call.
    let batcher = Engine::new(EngineConfig {
        threads: 2,
        ..EngineConfig::default()
    });
    let ids: Vec<_> = (0..4u64)
        .map(|seed| {
            let (tree, costs) = random_instance(
                &RandomTreeParams {
                    n_crus: 12,
                    n_satellites: 3,
                    placement: Placement::Interleaved,
                    ..RandomTreeParams::default()
                },
                700 + seed,
            );
            batcher.prepare(&tree, &costs).expect("instance prepares")
        })
        .collect();
    let queries: Vec<_> = (0..64u32)
        .map(|i| (ids[i as usize % ids.len()], Lambda::new(i % 9, 8).unwrap()))
        .collect();
    let batch = batcher.solve_batch(&queries);
    assert_eq!(batch.len(), queries.len());
    for (&(id, lambda), got) in queries.iter().zip(&batch) {
        let got = got.as_ref().expect("batched query solves");
        let want = batcher.solve(id, lambda).expect("single query solves");
        assert_eq!(got.cut, want.cut);
        assert_eq!(got.objective, want.objective);
    }
    settles_at(serving, "after a 64-query batch");

    drop(service);
    drop(engine);
    settles_at(baseline, "after dropping the service");
}
