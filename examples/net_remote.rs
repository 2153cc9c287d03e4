//! The service behind its TCP front door: bind a loopback `NetServer`,
//! connect a `Client`, solve by value once to learn the instance id,
//! then go id-addressed — including a reconnect that resumes from
//! nothing but the persisted raw id (DESIGN.md §13).
//!
//! Run with `cargo run --release --example net_remote`.

use hsa::engine::net::{Client, NetConfig, NetServer};
use hsa::engine::{Engine, EngineConfig, Service, ServiceConfig, TenantId};
use hsa::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = hsa::workloads::paper_scenario();
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let service = Arc::new(Service::new(Arc::clone(&engine), ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", service, NetConfig::default())?;
    println!("serving on {}", server.local_addr());

    // First contact goes by value; the answer carries the instance id.
    let mut client = Client::connect(server.local_addr())?;
    let first = client.call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF))?;
    let id = first.instance_id().expect("first contact learns the id");
    let sol = first.solution().expect("solve answers a solution");
    println!(
        "solved by value: objective {}, S {} / B {}, id {:#018x}",
        sol.objective,
        sol.report.host_time,
        sol.report.bottleneck,
        id.raw()
    );

    // Hot path: id-addressed, a λ sweep without trees on the wire.
    for n in [0u32, 2, 4, 6, 8] {
        let lambda = Lambda::new(n, 8).unwrap();
        let reply = client.call(&Request::solve_by_id(id, lambda))?;
        let sol = reply.solution().expect("id-addressed solve answers");
        println!("  λ = {n}/8 → objective {}", sol.objective);
    }

    // A tenant session over the wire: one drift step, answered FIFO.
    let tenant = TenantId(1);
    client.open_tenant(tenant, &sc.tree, &sc.costs)?;
    let busier = Delta::new().scale_subtree(sc.tree.root(), 11, 10);
    let applied = client.call(&Request::delta(tenant, busier, Lambda::HALF))?;
    let drifted = applied.solution().expect("delta answers a solution");
    println!(
        "after a 10% busier tree: objective {} (was {})",
        drifted.objective, sol.objective
    );
    let stats = client.close_tenant(tenant)?;
    println!("tenant closed after {} applies", stats.applies);

    // Reconnect and resume from nothing but the persisted raw id.
    let raw = id.raw();
    drop(client);
    let mut client = Client::connect(server.local_addr())?;
    let resumed = client.call(&Request::solve_by_id(
        hsa::engine::InstanceId::from_raw(raw),
        Lambda::HALF,
    ))?;
    println!(
        "reconnected, resumed by raw id: objective {}",
        resumed.solution().expect("resumed solve answers").objective
    );

    server.shutdown();
    println!("server drained and closed");
    Ok(())
}
