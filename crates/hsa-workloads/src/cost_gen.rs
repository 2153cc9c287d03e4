//! Heterogeneity sweeps: re-derive a scenario's cost model under different
//! host/satellite speed ratios and link qualities.
//!
//! Experiment T6 asks *when* distributing wins: as the host gets faster (or
//! the satellites/links slower), the optimal cut climbs towards all-on-host
//! and the advantage of the optimal assignment shrinks. These helpers apply
//! such transformations to any scenario without regenerating its shape, so
//! a sweep varies exactly one factor.

use crate::Scenario;
use hsa_graph::Cost;
use hsa_tree::CruId;

fn scaled(v: Cost, num: u64, den: u64) -> Cost {
    Cost::new(v.ticks().saturating_mul(num) / den)
}

/// Multiplies every *host* processing time by `num/den` (exact, rounding
/// down, minimum preserved at zero).
pub fn scale_host_times(sc: &Scenario, num: u64, den: u64) -> Scenario {
    assert!(den > 0, "zero denominator");
    let mut out = sc.clone();
    for i in 0..out.tree.len() {
        let c = CruId(i as u32);
        out.costs.set_host_time(c, scaled(out.costs.h(c), num, den));
    }
    out.name = format!("{}-host×{num}/{den}", sc.name);
    out
}

/// Multiplies every *satellite* processing time by `num/den`.
pub fn scale_satellite_times(sc: &Scenario, num: u64, den: u64) -> Scenario {
    assert!(den > 0, "zero denominator");
    let mut out = sc.clone();
    for i in 0..out.tree.len() {
        let c = CruId(i as u32);
        out.costs
            .set_satellite_time(c, scaled(out.costs.s(c), num, den));
    }
    out.name = format!("{}-sat×{num}/{den}", sc.name);
    out
}

/// Multiplies every communication time (`c_up` and `c_raw`) by `num/den` —
/// a link-quality sweep.
pub fn scale_comm_times(sc: &Scenario, num: u64, den: u64) -> Scenario {
    assert!(den > 0, "zero denominator");
    let mut out = sc.clone();
    for i in 0..out.tree.len() {
        let c = CruId(i as u32);
        out.costs
            .set_comm_up(c, scaled(out.costs.c_up(c), num, den));
        out.costs
            .set_comm_raw(c, scaled(out.costs.c_raw(c), num, den));
    }
    out.name = format!("{}-comm×{num}/{den}", sc.name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{epilepsy_scenario, EpilepsyParams};
    use hsa_assign::{AllOnHost, Expanded, Prepared, Solver};
    use hsa_graph::Lambda;

    #[test]
    fn scaling_is_exact_and_validates() {
        let sc = epilepsy_scenario(&EpilepsyParams::default());
        let half = scale_host_times(&sc, 1, 2);
        half.validate().unwrap();
        for (a, b) in sc.costs.host_times().iter().zip(half.costs.host_times()) {
            assert_eq!(b.ticks(), a.ticks() / 2);
        }
        let double = scale_comm_times(&sc, 2, 1);
        for (a, b) in sc.costs.comm_raws().iter().zip(double.costs.comm_raws()) {
            assert_eq!(b.ticks(), a.ticks() * 2);
        }
    }

    #[test]
    fn fast_host_shrinks_the_offloading_advantage() {
        // The crossover claim behind T6: advantage(slow host) ≥
        // advantage(fast host), where advantage = all-on-host / optimal.
        let sc = epilepsy_scenario(&EpilepsyParams::default());
        let advantage = |s: &Scenario| {
            let prep = Prepared::new(&s.tree, &s.costs).unwrap();
            let opt = Expanded::default().solve(&prep, Lambda::HALF).unwrap();
            let naive = AllOnHost.solve(&prep, Lambda::HALF).unwrap();
            naive.delay().ticks() as f64 / opt.delay().ticks().max(1) as f64
        };
        let slow = advantage(&scale_host_times(&sc, 4, 1));
        let fast = advantage(&scale_host_times(&sc, 1, 4));
        assert!(
            slow >= fast,
            "slow-host advantage {slow} < fast-host advantage {fast}"
        );
    }
}
