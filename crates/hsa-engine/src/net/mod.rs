//! The network front door (DESIGN.md §13): a TCP server speaking a
//! versioned, length-prefixed binary protocol over the in-process
//! [`Service`], and the blocking [`Client`] that drives it.
//!
//! The core engine stays transport-agnostic — this module only maps
//! frames onto the existing [`Request`] / [`Reply`] / `ServiceError`
//! surface (the single source of truth for the schema: every frame but
//! the handshake is a request, a reply or an error) and adds the
//! production concerns a wire needs: per-tenant admission quotas on top
//! of the service's global backpressure gate, explicit error frames for
//! unknown kinds/versions and malformed payloads, graceful shutdown that
//! drains every accepted ticket, and reconnect-friendly instance ids
//! ([`crate::InstanceId::from_raw`]) so a hot client resumes id-addressed
//! requests on a fresh connection. [`Client::call`] sends any
//! [`Request`], built with the same constructors as in process.
//!
//! ```
//! use hsa_engine::net::{Client, NetConfig, NetServer};
//! use hsa_engine::{Engine, EngineConfig, Request, Service, ServiceConfig};
//! use hsa_graph::Lambda;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! let service = Arc::new(Service::new(engine, ServiceConfig::default()));
//! let server = NetServer::bind("127.0.0.1:0", service, NetConfig::default()).unwrap();
//!
//! let sc = hsa_workloads::paper_scenario();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let first = client.call(&Request::solve(&sc.tree, &sc.costs, Lambda::HALF)).unwrap();
//! let id = first.instance_id().expect("first contact returns the id");
//! let again = client.call(&Request::solve_by_id(id, Lambda::HALF)).unwrap();
//! assert_eq!(
//!     again.solution().unwrap().objective,
//!     first.solution().unwrap().objective,
//! );
//! server.shutdown();
//! ```
//!
//! [`Service`]: crate::Service
//! [`Request`]: crate::Request
//! [`Reply`]: crate::Reply

pub mod wire;

mod client;
mod reactor;
mod server;
mod sys;

pub use client::{Client, ClientError};
pub use server::{NetConfig, NetServer, NetStats};
