//! Heterogeneity sweeps: re-derive a scenario's cost model under a
//! different host speed.
//!
//! Experiment T6 asks *when* distributing wins: as the host gets faster,
//! the optimal cut climbs towards all-on-host and the advantage of the
//! optimal assignment shrinks. [`scale_host_times`] applies that
//! transformation to any scenario without regenerating its shape, so a
//! sweep varies exactly one factor.

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
