//! The sharded instance cache behind the shared-ownership [`Engine`](crate::Engine).
//!
//! The engine used to own a single `BTreeMap` behind `&mut self`, which
//! made the whole engine structurally single-owner: one writer, ever.
//! A continual multi-tenant deployment wants the opposite — many threads
//! preparing and solving against one warm cache. This module provides
//! that:
//!
//! * entries are `Arc<`[`CachedInstance`]`>`: a reader clones the `Arc`
//!   (two atomic ops) and works on the immutable prepared form with no
//!   lock held, for as long as it likes;
//! * the key space is split across [`SHARDS`] independent
//!   `RwLock<BTreeMap>` shards, so concurrent `prepare` calls only
//!   contend when their content hashes land in the same shard, and
//!   lookups take a read lock other lookups never block on;
//! * insertion is *build-outside-the-lock*: the expensive preparation
//!   (colouring, labelling, frontier DP) runs with **no**
//!   lock held; only the final map insert takes the shard's write lock.
//!   If two threads race to prepare the same new instance, both build,
//!   one inserts, and the loser adopts the winner's entry — wasted work
//!   on a race, never a wrong answer and never a lock held across a DP.

use crate::pad::CachePadded;
use hsa_assign::{FrontierSet, Prepared};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Shard count. A power of two so the shard index is a mask; 16 is
/// plenty ahead of the worker counts this crate runs (contention drops
/// ~16× versus one map) while keeping the fixed footprint trivial.
pub(crate) const SHARDS: usize = 16;

/// One cached instance: the owned prepared form plus the λ-independent
/// frontier preparation of the full-expansion solver. Shared out as
/// `Arc<CachedInstance>`; immutable after construction.
pub struct CachedInstance {
    /// The fully prepared instance (tree, costs, labels; the dual graph
    /// only once something asks for it).
    pub prepared: Prepared<'static>,
    /// The λ-independent per-colour Pareto frontiers.
    pub frontiers: FrontierSet,
}

/// What a cache insert found: the live entry, and whether it is the
/// incumbent of a lost race (`adopted == true`) rather than the entry
/// this call built. See [`ShardedCache::insert_or_adopt`].
pub(crate) struct Inserted {
    pub(crate) entry: Arc<CachedInstance>,
    pub(crate) adopted: bool,
}

/// One shard: a read-write lock over its slice of the key space.
type Shard = RwLock<BTreeMap<u64, Arc<CachedInstance>>>;

/// The sharded map. All methods take `&self`. Each shard lock sits on its
/// own cache line ([`CachePadded`]): a `RwLock` is a word-sized atomic
/// state plus the map pointer, so without padding four shards share one
/// line and "independent" shards still ping-pong it between cores.
pub(crate) struct ShardedCache {
    shards: [CachePadded<Shard>; SHARDS],
}

impl ShardedCache {
    pub(crate) fn new() -> ShardedCache {
        ShardedCache {
            shards: std::array::from_fn(|_| CachePadded::new(RwLock::new(BTreeMap::new()))),
        }
    }

    /// The shard a content hash lives in. The hash is FNV-mixed already;
    /// the top bits decorrelate better than the bottom ones for
    /// structurally similar instances, so index with them.
    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[(hash >> (64 - SHARDS.trailing_zeros())) as usize & (SHARDS - 1)]
    }

    /// Read-path lookup: a shared lock for the duration of one map probe
    /// and one `Arc` clone.
    pub(crate) fn get(&self, hash: u64) -> Option<Arc<CachedInstance>> {
        self.shard(hash)
            .read()
            .expect("cache shard poisoned")
            .get(&hash)
            .cloned()
    }

    /// Inserts `built` under `hash` unless a racing thread beat us to it,
    /// in which case the incumbent entry is returned instead (the caller
    /// must re-verify it against the presented instance — same hash does
    /// not prove same instance).
    pub(crate) fn insert_or_adopt(&self, hash: u64, built: CachedInstance) -> Inserted {
        let mut shard = self.shard(hash).write().expect("cache shard poisoned");
        match shard.entry(hash) {
            std::collections::btree_map::Entry::Occupied(e) => Inserted {
                entry: e.get().clone(),
                adopted: true,
            },
            std::collections::btree_map::Entry::Vacant(e) => {
                let arc = Arc::new(built);
                e.insert(arc.clone());
                Inserted {
                    entry: arc,
                    adopted: false,
                }
            }
        }
    }

    /// Number of cached instances (sums the shards; approximate only
    /// while writers are active, exact when quiescent).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_assign::ExpandedConfig;
    use hsa_workloads::paper_scenario;

    fn entry() -> CachedInstance {
        let sc = paper_scenario();
        let prepared = Prepared::new_owned(sc.tree, sc.costs).unwrap();
        let frontiers = FrontierSet::prepare(&prepared, &ExpandedConfig::default()).unwrap();
        CachedInstance {
            prepared,
            frontiers,
        }
    }

    #[test]
    fn insert_then_get_round_trips() {
        let cache = ShardedCache::new();
        assert!(cache.get(7).is_none());
        assert!(!cache.insert_or_adopt(7, entry()).adopted);
        assert!(cache.get(7).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_insert_adopts_the_incumbent() {
        let cache = ShardedCache::new();
        let first = cache.insert_or_adopt(7, entry());
        assert!(!first.adopted, "first insert must be fresh");
        let second = cache.insert_or_adopt(7, entry());
        assert!(second.adopted, "second insert must adopt");
        assert!(
            Arc::ptr_eq(&first.entry, &second.entry),
            "one entry, shared"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hashes_spread_across_shards() {
        let cache = ShardedCache::new();
        // Top-byte-distinct hashes must land in distinct shards: inserting
        // them all keeps every per-shard map at size ≤ 2.
        for i in 0..32u64 {
            cache.insert_or_adopt(i << 59, entry());
        }
        assert_eq!(cache.len(), 32);
        let max_shard = cache
            .shards
            .iter()
            .map(|s| s.read().unwrap().len())
            .max()
            .unwrap();
        assert_eq!(max_shard, 2, "32 top-distinct keys over 16 shards");
    }
}
