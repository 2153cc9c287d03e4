//! The piecewise-linear lower envelope of `(S, B)` candidates over λ ∈ [0, 1].
//!
//! For a fixed candidate (a path or a cut) with sum weight `S` and
//! bottleneck weight `B`, the SSB objective is *linear in λ*:
//! `f(λ) = λ·S + (1−λ)·B = B + λ·(S−B)`. Given the full (λ-independent)
//! candidate set that some exact solver minimises over, the optimum *as a
//! function of λ* is the lower envelope of those lines — a piecewise-linear
//! concave function with at most |candidates| segments, computable in one
//! `O(n log n)` pass instead of one solve per λ.
//!
//! Geometrically, a line is the point `(S, B)` and the envelope's segment
//! owners are exactly the vertices of the **lower-left convex hull** of the
//! point set (minimisers of the dot product with the weight vector
//! `(λ, 1−λ)`, which sweeps the closed positive quadrant as λ runs over
//! [0, 1]). Construction: Pareto-prune (B ascending, S strictly
//! descending), then a monotone-chain hull, then read the breakpoints off
//! consecutive hull vertices: the handover from `(S₁,B₁)` to `(S₂,B₂)`
//! (with `S₁ > S₂`, `B₁ < B₂`) happens at the exact rational
//! `λ* = (B₂−B₁) / ((B₂−B₁) + (S₁−S₂))`.
//!
//! Everything is exact integer arithmetic: breakpoints are reduced
//! rationals ([`LambdaQ`]) compared by cross-multiplication, so envelope
//! queries agree digit-for-digit with an independent solve at the same λ.

use crate::{Cost, Lambda, ScaledSsb};
use serde::{DeError, Deserialize, Deserializer, Serialize, Serializer};
use std::cmp::Ordering;

/// An exact rational λ ∈ [0, 1] with 64-bit numerator and denominator —
/// the breakpoint currency of [`LambdaEnvelope`].
///
/// Values are kept reduced; comparisons cross-multiply in 128 bits and are
/// exact. (Denominators beyond 2⁶⁴ — which would require bottleneck-weight
/// differences above 2⁶³ ticks — are halved into range; no realistic cost
/// model gets near that.)
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LambdaQ {
    num: u64,
    den: u64,
}

impl LambdaQ {
    /// λ = 0 (pure bottleneck objective).
    pub const ZERO: LambdaQ = LambdaQ { num: 0, den: 1 };
    /// λ = 1 (pure sum objective).
    pub const ONE: LambdaQ = LambdaQ { num: 1, den: 1 };

    /// Builds the reduced rational `num/den` (clamped into [0, 1]).
    pub fn new(num: u64, den: u64) -> LambdaQ {
        LambdaQ::reduced(num as u128, den.max(1) as u128)
    }

    fn reduced(num: u128, den: u128) -> LambdaQ {
        debug_assert!(den > 0);
        let num = num.min(den);
        let g = gcd(num, den).max(1);
        let (mut n, mut d) = (num / g, den / g);
        while d > u64::MAX as u128 {
            n >>= 1;
            d >>= 1;
        }
        LambdaQ {
            num: n as u64,
            den: (d as u64).max(1),
        }
    }

    /// The numerator (of the reduced form).
    #[inline]
    pub fn num(self) -> u64 {
        self.num
    }

    /// The denominator (of the reduced form).
    #[inline]
    pub fn den(self) -> u64 {
        self.den
    }

    /// The value as a float, for reporting only.
    pub fn as_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Converts into a [`Lambda`] when numerator and denominator fit u32.
    pub fn as_lambda(self) -> Option<Lambda> {
        if self.num <= u32::MAX as u64 && self.den <= u32::MAX as u64 {
            Lambda::new(self.num as u32, self.den as u32).ok()
        } else {
            None
        }
    }

    /// The exact midpoint of two rationals. When the exact denominator
    /// `2·aden·bden` would overflow 128 bits (possible only with both
    /// denominators near 2⁶⁴), the operands are halved into range first —
    /// the same lossy fallback [`LambdaQ`] documents for construction.
    pub fn midpoint(a: LambdaQ, b: LambdaQ) -> LambdaQ {
        let (mut an, mut ad) = (a.num as u128, a.den as u128);
        let (mut bn, mut bd) = (b.num as u128, b.den as u128);
        loop {
            let num = an
                .checked_mul(bd)
                .and_then(|x| bn.checked_mul(ad).and_then(|y| x.checked_add(y)));
            let den = ad.checked_mul(bd).and_then(|d| d.checked_mul(2));
            if let (Some(num), Some(den)) = (num, den) {
                return LambdaQ::reduced(num, den);
            }
            an >>= 1;
            ad = (ad >> 1).max(1);
            bn >>= 1;
            bd = (bd >> 1).max(1);
        }
    }

    /// Exact comparison against a [`Lambda`].
    pub fn cmp_lambda(self, l: Lambda) -> Ordering {
        (self.num as u128 * l.den() as u128).cmp(&(l.num() as u128 * self.den as u128))
    }
}

impl PartialEq for LambdaQ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for LambdaQ {}

impl PartialOrd for LambdaQ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LambdaQ {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num as u128 * other.den as u128).cmp(&(other.num as u128 * self.den as u128))
    }
}

impl std::fmt::Display for LambdaQ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A [`LambdaQ`] as it arrives, before reduction.
#[derive(Deserialize)]
struct RawLambdaQ {
    num: u64,
    den: u64,
}

// Deserialisation funnels through [`LambdaQ::new`], so incoming rationals
// are re-reduced and clamped into [0, 1] — values we encoded ourselves are
// already reduced and round-trip bit-for-bit.
impl Deserialize for LambdaQ {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let raw = RawLambdaQ::deserialize(d)?;
        Ok(LambdaQ::new(raw.num, raw.den))
    }
}

/// One maximal λ interval on which a single candidate is optimal.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnvelopeSegment<T> {
    /// Inclusive left end of the interval.
    pub lo: LambdaQ,
    /// Inclusive right end of the interval (the next segment's `lo`).
    pub hi: LambdaQ,
    /// The candidate's sum weight.
    pub s: Cost,
    /// The candidate's bottleneck weight.
    pub b: Cost,
    /// The candidate itself (a path, a cut, …).
    pub payload: T,
}

impl<T> EnvelopeSegment<T> {
    /// The segment's exact midpoint λ.
    pub fn midpoint(&self) -> LambdaQ {
        LambdaQ::midpoint(self.lo, self.hi)
    }
}

/// The lower envelope: λ-ordered segments covering [0, 1] without gaps.
#[derive(Clone, Debug)]
pub struct LambdaEnvelope<T> {
    segments: Vec<EnvelopeSegment<T>>,
}

impl<T> LambdaEnvelope<T> {
    /// The segments, ordered by λ from 0 to 1.
    pub fn segments(&self) -> &[EnvelopeSegment<T>] {
        &self.segments
    }

    /// Number of segments (= number of envelope-optimal candidates).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Always false — an envelope has at least one segment.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The interior breakpoints (segment boundaries strictly inside (0, 1)).
    pub fn breakpoints(&self) -> Vec<LambdaQ> {
        self.segments[..self.segments.len() - 1]
            .iter()
            .map(|seg| seg.hi)
            .collect()
    }

    /// Number of interior breakpoints (= [`Self::len`] − 1) without
    /// materialising them — what trend reports record.
    pub fn num_breakpoints(&self) -> usize {
        self.segments.len() - 1
    }

    /// The segment owning `lambda` (at a breakpoint: the left segment, whose
    /// value ties with the right one anyway).
    pub fn segment_at(&self, lambda: Lambda) -> &EnvelopeSegment<T> {
        self.segments
            .iter()
            .find(|seg| seg.hi.cmp_lambda(lambda) != Ordering::Less)
            .unwrap_or_else(|| self.segments.last().expect("envelope is never empty"))
    }

    /// The envelope's exact scaled objective `λ·S + (1−λ)·B` at `lambda`.
    pub fn objective_at(&self, lambda: Lambda) -> ScaledSsb {
        let seg = self.segment_at(lambda);
        lambda.ssb_scaled(seg.s, seg.b)
    }

    /// Maps every segment's payload, preserving the segment structure.
    /// Lets callers build the envelope over cheap keys (indexes, picks) and
    /// materialise expensive payloads only for the few surviving segments.
    pub fn try_map<U, E>(
        self,
        mut f: impl FnMut(T) -> Result<U, E>,
    ) -> Result<LambdaEnvelope<U>, E> {
        let segments = self
            .segments
            .into_iter()
            .map(|seg| {
                Ok(EnvelopeSegment {
                    lo: seg.lo,
                    hi: seg.hi,
                    s: seg.s,
                    b: seg.b,
                    payload: f(seg.payload)?,
                })
            })
            .collect::<Result<Vec<_>, E>>()?;
        Ok(LambdaEnvelope { segments })
    }
}

impl<T: Serialize> Serialize for LambdaEnvelope<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        self.segments.serialize(s);
    }
}

// The "never empty" invariant is checked on the way in; λ-ordering and
// coverage of [0, 1] are taken on trust from the encoder (the query methods
// degrade gracefully — `segment_at` falls back to the last segment).
impl<T: Deserialize> Deserialize for LambdaEnvelope<T> {
    fn deserialize(d: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let segments = Vec::<EnvelopeSegment<T>>::deserialize(d)?;
        if segments.is_empty() {
            return Err(DeError::custom("LambdaEnvelope must have ≥ 1 segment"));
        }
        Ok(LambdaEnvelope { segments })
    }
}

/// Builds the lower envelope of `(S, B, payload)` candidates over λ ∈ [0, 1].
///
/// Returns `None` for an empty candidate set. Deterministic: among
/// candidates with identical `(S, B)` the earliest in input order wins, and
/// dominated or hull-interior candidates are dropped exactly (collinear
/// middles never strictly improve, so dropping them cannot change any
/// envelope value).
pub fn lower_envelope<T>(candidates: Vec<(Cost, Cost, T)>) -> Option<LambdaEnvelope<T>> {
    if candidates.is_empty() {
        return None;
    }
    let sb: Vec<(u64, u64)> = candidates
        .iter()
        .map(|(s, b, _)| (s.ticks(), b.ticks()))
        .collect();
    let mut payloads: Vec<Option<T>> = candidates.into_iter().map(|(_, _, t)| Some(t)).collect();

    // Stable sort by (B asc, S asc): ties keep input (e.g. threshold) order.
    let mut idx: Vec<usize> = (0..sb.len()).collect();
    idx.sort_by(|&i, &j| sb[i].1.cmp(&sb[j].1).then(sb[i].0.cmp(&sb[j].0)));

    // Pareto: walking B upward, keep only strict S improvements.
    let mut pareto: Vec<usize> = Vec::new();
    for &i in &idx {
        match pareto.last() {
            Some(&last) if sb[i].0 >= sb[last].0 => {}
            _ => pareto.push(i),
        }
    }
    // Now S ascending (B descending) for the monotone chain.
    pareto.reverse();

    // Lower-left convex chain: drop any middle point on or above the chord
    // of its neighbours (its line never strictly beats both).
    let mut hull: Vec<usize> = Vec::new();
    for &i in &pareto {
        while hull.len() >= 2 {
            let p1 = sb[hull[hull.len() - 2]];
            let p2 = sb[hull[hull.len() - 1]];
            let p3 = sb[i];
            // p2 strictly below chord p1→p3 ⇔ cross < 0.
            let cross = (p3.0 as i128 - p1.0 as i128) * (p2.1 as i128 - p1.1 as i128)
                - (p2.0 as i128 - p1.0 as i128) * (p3.1 as i128 - p1.1 as i128);
            if cross < 0 {
                break;
            }
            hull.pop();
        }
        hull.push(i);
    }

    // Segments from λ=0 (min-B vertex = hull.last) to λ=1 (min-S = hull[0]).
    let mut segments = Vec::with_capacity(hull.len());
    let mut lo = LambdaQ::ZERO;
    for w in (0..hull.len()).rev() {
        let (s_w, b_w) = sb[hull[w]];
        let hi = if w == 0 {
            LambdaQ::ONE
        } else {
            let (s_next, b_next) = sb[hull[w - 1]];
            debug_assert!(s_next < s_w && b_next > b_w);
            let db = (b_next - b_w) as u128;
            let ds = (s_w - s_next) as u128;
            LambdaQ::reduced(db, db + ds)
        };
        segments.push(EnvelopeSegment {
            lo,
            hi,
            s: Cost::new(s_w),
            b: Cost::new(b_w),
            payload: payloads[hull[w]].take().expect("hull indexes are unique"),
        });
        lo = hi;
    }
    Some(LambdaEnvelope { segments })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: u64) -> Cost {
        Cost::new(v)
    }

    fn env(points: &[(u64, u64)]) -> LambdaEnvelope<usize> {
        lower_envelope(
            points
                .iter()
                .enumerate()
                .map(|(i, &(s, b))| (c(s), c(b), i))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn lambda_q_arithmetic() {
        let half = LambdaQ::new(2, 4);
        assert_eq!(half.num(), 1);
        assert_eq!(half.den(), 2);
        assert_eq!(half, LambdaQ::new(1, 2));
        assert!(LambdaQ::new(1, 3) < half);
        assert_eq!(half.as_lambda(), Some(Lambda::HALF));
        let mid = LambdaQ::midpoint(LambdaQ::ZERO, half);
        assert_eq!(mid, LambdaQ::new(1, 4));
        assert_eq!(half.cmp_lambda(Lambda::HALF), Ordering::Equal);
        assert_eq!(LambdaQ::ZERO.cmp_lambda(Lambda::HALF), Ordering::Less);
        assert_eq!(LambdaQ::ONE.cmp_lambda(Lambda::HALF), Ordering::Greater);
        assert_eq!(LambdaQ::new(5, 5), LambdaQ::ONE);
        assert!((LambdaQ::new(3, 4).as_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_candidate_covers_the_whole_interval() {
        let e = env(&[(7, 3)]);
        assert_eq!(e.len(), 1);
        let seg = &e.segments()[0];
        assert_eq!((seg.lo, seg.hi), (LambdaQ::ZERO, LambdaQ::ONE));
        assert_eq!(e.objective_at(Lambda::HALF), 10);
        assert_eq!(e.objective_at(Lambda::ZERO), 3);
        assert_eq!(e.objective_at(Lambda::ONE), 7);
        assert!(e.breakpoints().is_empty());
    }

    #[test]
    fn two_candidates_cross_at_the_exact_rational() {
        // (S=1, B=10) vs (S=10, B=1): symmetric, breakpoint at λ = 1/2.
        let e = env(&[(1, 10), (10, 1)]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.breakpoints(), vec![LambdaQ::new(1, 2)]);
        // λ=0 → min B wins (payload 1); λ=1 → min S wins (payload 0).
        assert_eq!(e.segment_at(Lambda::ZERO).payload, 1);
        assert_eq!(e.segment_at(Lambda::ONE).payload, 0);
        // λ=1/4 scaled by 4: 1·S + 3·B; candidate 1: 10 + 3 = 13 < 31.
        assert_eq!(e.objective_at(Lambda::new(1, 4).unwrap()), 13);
    }

    #[test]
    fn dominated_and_hull_interior_candidates_are_dropped() {
        // (6,6) is above the chord of (1,10)-(10,1); (12,12) is dominated.
        let e = env(&[(1, 10), (6, 6), (10, 1), (12, 12)]);
        assert_eq!(e.len(), 2);
        // (5,5) is strictly below the chord → a real middle segment.
        let e2 = env(&[(1, 10), (5, 5), (10, 1)]);
        assert_eq!(e2.len(), 3);
        assert_eq!(e2.segment_at(Lambda::HALF).payload, 1);
    }

    #[test]
    fn envelope_matches_brute_force_minimum_everywhere() {
        let pts = [(3u64, 40u64), (5, 22), (9, 14), (14, 9), (30, 2), (18, 18)];
        let e = env(&pts);
        for num in 0..=20u32 {
            let lambda = Lambda::new(num, 20).unwrap();
            let brute = pts
                .iter()
                .map(|&(s, b)| lambda.ssb_scaled(c(s), c(b)))
                .min()
                .unwrap();
            assert_eq!(e.objective_at(lambda), brute, "λ={num}/20");
        }
    }

    #[test]
    fn duplicate_candidates_keep_the_first() {
        let e = env(&[(4, 4), (4, 4), (4, 4)]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.segments()[0].payload, 0);
    }

    #[test]
    fn segment_midpoints_lie_inside_their_segment() {
        let e = env(&[(1, 10), (5, 5), (10, 1)]);
        for seg in e.segments() {
            let mid = seg.midpoint();
            assert!(seg.lo <= mid && mid <= seg.hi);
            let lam = mid.as_lambda().unwrap();
            assert_eq!(e.segment_at(lam).payload, seg.payload);
        }
    }
}
