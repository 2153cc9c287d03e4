//! # hsa-sim — discrete-event simulation of the host–satellites platform
//!
//! The paper evaluates analytically on per-CRU cost numbers; its intended
//! platform was the MobiHealth-style PDA + sensor-box testbed. This crate
//! is the substitute substrate (DESIGN.md §5): a deterministic
//! discrete-event simulator that executes a deployed CRU tree on the star
//! platform — one CPU per satellite, one uplink per satellite, one host CPU.
//!
//! * [`simulate`] runs one context frame. Under [`SimConfig::paper_model`]
//!   the measured end-to-end delay **equals** the analytic objective
//!   `S + B`, which is exactly the validation the reproduction needs; the
//!   [`HostStartPolicy::EagerPrecedence`] / [`UplinkModel::OverlapCompute`]
//!   relaxations quantify how conservative the paper's model is
//!   (experiment T4).
//! * [`simulate_periodic`] extends to streamed frames (pipelining,
//!   saturation, steady-state latency) — the regime the tele-monitoring
//!   scenario actually runs in.
//! * [`render_gantt`] visualises a trace as a text Gantt chart.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
mod payload;
mod queue;
mod throughput;
mod trace;

pub use config::{HostStartPolicy, SimConfig, UplinkModel};
pub use engine::{simulate, Busy, Resource, SimResult};
pub use payload::{sensor_frame, LinkProfile};
pub use queue::{EventQueue, SimTime};
pub use throughput::{simulate_periodic, ThroughputResult};
pub use trace::render_gantt;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        render_gantt, simulate, simulate_periodic, HostStartPolicy, SimConfig, SimResult,
        UplinkModel,
    };
}
