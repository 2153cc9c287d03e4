//! # hsa-workloads — scenarios and instance families
//!
//! The paper motivates its algorithm with concrete systems; this crate
//! builds them as costed, pinned CRU trees ([`Scenario`]):
//!
//! * [`epilepsy_scenario`] — the §1/Figure 1 epilepsy tele-monitoring
//!   application (PDA + sensor boxes over Bluetooth-class links);
//! * [`snmp_scenario`] — the §3 SNMP network-monitoring observation;
//! * [`industrial_scenario`] — Bokhari-style production-line chains (deep
//!   chains ⇒ parallel-edge bundles in the assignment graph);
//! * [`paper_scenario`] — the Figure 2 worked example itself;
//! * [`random_scenario`] — seeded random families with independently
//!   controlled shape and sensor placement ([`Placement`]), the axes the
//!   benchmark sweeps (T1/T2/T5/T6) walk;
//! * [`scale_host_times`] — host-speed sweeps over any scenario (T6);
//! * [`drift_trace`] — deterministic random-walk drift + satellite churn
//!   over any scenario, as replayable [`hsa_tree::Delta`] traces (the T11
//!   incremental re-solve workload);
//! * [`request_stream`] — deterministic open-loop multi-tenant request
//!   streams (Zipf-skewed hot instances, configurable
//!   solve/frontier/delta mix) for the service layer (the T12 workload).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost_gen;
mod drift;
mod epilepsy;
mod industrial;
mod random_tree;
mod request_stream;
mod scenario;
mod snmp;

pub use cost_gen::scale_host_times;
pub use drift::{drift_trace, DriftConfig, DriftTrace};
pub use epilepsy::{epilepsy_scenario, EpilepsyParams};
pub use industrial::{industrial_scenario, IndustrialParams};
pub use random_tree::{random_instance, random_scenario, Placement, RandomTreeParams};
pub use request_stream::{request_stream, RequestStream, StreamConfig, StreamOp, StreamRequest};
pub use scenario::{catalog, paper_scenario, Scenario};
pub use snmp::{snmp_scenario, SnmpParams};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::{
        catalog, drift_trace, epilepsy_scenario, industrial_scenario, paper_scenario,
        random_scenario, request_stream, snmp_scenario, DriftConfig, DriftTrace, EpilepsyParams,
        IndustrialParams, Placement, RandomTreeParams, RequestStream, Scenario, SnmpParams,
        StreamConfig, StreamOp, StreamRequest,
    };
}
