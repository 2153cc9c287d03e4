//! Exact cost arithmetic.
//!
//! All times in this reproduction are integral "ticks" (the workload crates
//! interpret one tick as one microsecond). Keeping every weight an integer
//! makes path comparisons, DP pruning and test oracles exact — the 2007
//! paper's worked examples (e.g. Figure 4) are reproduced digit-for-digit.
//!
//! The paper weighs the two path measures with a coefficient λ ∈ [0, 1]:
//! `SSB(P) = λ·S(P) + (1−λ)·B(P)`. To stay in integers we represent λ as an
//! exact rational `num/den` and compare the *scaled* value
//! `num·S + (den−num)·B` (a common positive factor `den` does not change the
//! argmin). With the paper's λ = ½ and `den = 2` the scaled SSB is exactly
//! the `S + B` figure printed in the paper.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};
use serde::{Deserialize, Serialize};

/// A non-negative time/cost in integral ticks.
///
/// Arithmetic is saturating: the algorithms treat [`Cost::MAX`] as "infinity"
/// (e.g. the initial candidate SSB weight in the paper's Figure 3 pseudo
/// code is `+∞`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Cost(u64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0);
    /// The largest representable cost; acts as `+∞` in searches.
    pub const MAX: Cost = Cost(u64::MAX);

    /// Creates a cost from raw ticks.
    #[inline]
    pub const fn new(ticks: u64) -> Self {
        Cost(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Cost) -> Cost {
        Cost(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (floors at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Cost) -> Cost {
        Cost(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a plain factor.
    #[inline]
    pub const fn saturating_mul(self, factor: u64) -> Cost {
        Cost(self.0.saturating_mul(factor))
    }

    /// The larger of two costs.
    #[inline]
    pub fn max(self, rhs: Cost) -> Cost {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// True if this cost is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Cost {
    type Output = Cost;
    #[inline]
    fn add(self, rhs: Cost) -> Cost {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Cost {
    #[inline]
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl Sub for Cost {
    type Output = Cost;
    #[inline]
    fn sub(self, rhs: Cost) -> Cost {
        self.saturating_sub(rhs)
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Cost::saturating_add)
    }
}

impl From<u64> for Cost {
    #[inline]
    fn from(ticks: u64) -> Self {
        Cost(ticks)
    }
}

impl fmt::Debug for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Cost::MAX {
            write!(f, "Cost(∞)")
        } else {
            write!(f, "Cost({})", self.0)
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Cost::MAX {
            write!(f, "∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A scaled SSB value: `num·S + (den−num)·B` computed in 128 bits so that no
/// admissible `Cost` combination can overflow.
pub type ScaledSsb = u128;

/// The `+∞` scaled SSB used to initialise candidate weights.
pub const SSB_INFINITY: ScaledSsb = u128::MAX;

/// An exact rational weighting coefficient λ = `num/den` between the S and B
/// path weights (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub struct Lambda {
    num: u32,
    den: u32,
}

impl Lambda {
    /// λ = ½ with denominator 2: the scaled SSB equals the paper's `S + B`.
    pub const HALF: Lambda = Lambda { num: 1, den: 2 };

    /// λ = 1 (pure host-time / S-weight objective).
    pub const ONE: Lambda = Lambda { num: 1, den: 1 };

    /// λ = 0 (pure bottleneck / B-weight objective).
    pub const ZERO: Lambda = Lambda { num: 0, den: 1 };

    /// Creates λ = `num/den`. Requires `den > 0` and `num ≤ den`.
    pub fn new(num: u32, den: u32) -> Result<Lambda, crate::GraphError> {
        if den == 0 || num > den {
            return Err(crate::GraphError::InvalidLambda { num, den });
        }
        Ok(Lambda { num, den })
    }

    /// The numerator of λ.
    #[inline]
    pub const fn num(self) -> u32 {
        self.num
    }

    /// The denominator of λ.
    #[inline]
    pub const fn den(self) -> u32 {
        self.den
    }

    /// λ as a float, for reporting only.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The scaled SSB weight `num·S + (den−num)·B`.
    #[inline]
    pub fn ssb_scaled(self, s: Cost, b: Cost) -> ScaledSsb {
        self.num as u128 * s.ticks() as u128 + (self.den - self.num) as u128 * b.ticks() as u128
    }

    /// The scaled contribution of the S weight alone (`num·S`); every path's
    /// scaled SSB is at least this value, which justifies the paper's
    /// termination test "S weight of Pᵢ exceeds the candidate SSB weight".
    #[inline]
    pub fn s_scaled(self, s: Cost) -> ScaledSsb {
        self.num as u128 * s.ticks() as u128
    }
}

impl Default for Lambda {
    fn default() -> Self {
        Lambda::HALF
    }
}

impl fmt::Display for Lambda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_saturates_instead_of_overflowing() {
        assert_eq!(Cost::MAX + Cost::new(1), Cost::MAX);
        assert_eq!(Cost::new(3) - Cost::new(5), Cost::ZERO);
        assert_eq!(Cost::MAX.saturating_mul(2), Cost::MAX);
    }

    #[test]
    fn cost_sum_and_ordering() {
        let total: Cost = [1u64, 2, 3].into_iter().map(Cost::new).sum();
        assert_eq!(total, Cost::new(6));
        assert!(Cost::new(2) < Cost::new(3));
        assert_eq!(Cost::new(7).max(Cost::new(4)), Cost::new(7));
    }

    #[test]
    fn lambda_half_matches_paper_s_plus_b() {
        // Figure 4 numbers: S=10, B=10 → SSB printed as 20.
        assert_eq!(Lambda::HALF.ssb_scaled(Cost::new(10), Cost::new(10)), 20);
        // S=9, B=20 → 29.
        assert_eq!(Lambda::HALF.ssb_scaled(Cost::new(9), Cost::new(20)), 29);
    }

    #[test]
    fn lambda_extremes() {
        assert_eq!(Lambda::ONE.ssb_scaled(Cost::new(7), Cost::new(100)), 7);
        assert_eq!(Lambda::ZERO.ssb_scaled(Cost::new(7), Cost::new(100)), 100);
    }

    #[test]
    fn lambda_validation() {
        assert!(Lambda::new(3, 2).is_err());
        assert!(Lambda::new(0, 0).is_err());
        let l = Lambda::new(1, 4).unwrap();
        assert_eq!(l.ssb_scaled(Cost::new(4), Cost::new(8)), 4 + 3 * 8);
        assert!((l.as_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn lambda_no_overflow_at_extremes() {
        // u64::MAX costs with u32::MAX coefficients must not panic.
        let l = Lambda::new(u32::MAX - 1, u32::MAX).unwrap();
        let v = l.ssb_scaled(Cost::MAX, Cost::MAX);
        assert!(v > 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cost::new(42).to_string(), "42");
        assert_eq!(Cost::MAX.to_string(), "∞");
        assert_eq!(Lambda::HALF.to_string(), "1/2");
        assert_eq!(format!("{:?}", Cost::MAX), "Cost(∞)");
    }
}
