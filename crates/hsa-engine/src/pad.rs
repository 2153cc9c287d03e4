//! Cache-line isolation for contended hot fields.
//!
//! Every modern x86/ARM server core owns cache lines of 64 bytes. Two
//! atomics that share a line **false-share**: a core bumping counter A
//! steals the line from the core bumping counter B even though the two
//! values are logically unrelated, and each increment degenerates into a
//! cross-core cache-line ping-pong. The engine's counter bank and the
//! sharded cache's locks are written from every worker thread at once, so
//! they are exactly the fields this bites (the `contended_counters`
//! example measures the effect on this machine).
//!
//! [`CachePadded`] is the fix: `#[repr(align(64))]` rounds the wrapper's
//! size and alignment up to one full line, so every wrapped value owns its
//! line outright. It derefs to the inner value, making the wrap invisible
//! at use sites.

/// Aligns (and thereby pads) `T` to a 64-byte cache line so adjacent
/// instances never false-share. Transparent via `Deref`/`DerefMut`.
#[derive(Clone, Copy, Default, Debug)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wraps a value onto its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn padded_values_occupy_whole_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicU64>>(), 64);
        // An array of padded atomics puts every element on its own line.
        let bank: [CachePadded<AtomicU64>; 4] = Default::default();
        let addrs: Vec<usize> = bank.iter().map(|c| &c.0 as *const _ as usize).collect();
        for w in addrs.windows(2) {
            assert!(w[1] - w[0] >= 64, "adjacent counters share a line");
        }
    }

    #[test]
    fn deref_makes_the_wrap_transparent() {
        let c = CachePadded::new(AtomicU64::new(41));
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 42);
    }
}
