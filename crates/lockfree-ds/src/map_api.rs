//! A uniform map interface over the benchmark data structures.
//!
//! The paper's evaluation runs the same workloads over four different
//! structures; the harness drives them through this trait with `u64` keys
//! and values (the framework of \[35\] likewise benchmarks integer maps).

use smr_core::{Smr, SmrConfig, SmrStats};

use crate::{
    BonsaiNode, BonsaiTree, HarrisMichaelList, ListNode, MichaelHashMap, NatarajanMittalTree,
    NmNode,
};

/// A concurrent map of `u64 -> u64`, generic over the reclamation scheme.
///
/// Operations must be bracketed by the handle's `enter`/`leave`, exactly as
/// in the paper's programming model.
pub trait ConcurrentMap<S: Smr<Self::Node>>: Send + Sync + Sized {
    /// The node type managed by the reclamation domain.
    type Node: Send + 'static;

    /// Structure name as used in the paper's figures.
    const NAME: &'static str;

    /// Builds the map with the given reclamation configuration.
    ///
    /// `S` may itself be a [`smr_core::Sharded`] adapter: the structure is
    /// built *through* the scheme abstraction, so the same code path serves
    /// single-shard and sharded domains (`config.shards` selects which).
    fn with_config(config: SmrConfig) -> Self;

    /// The reclamation domain the structure retires into. Gives harnesses
    /// access to domain-level adapters (e.g. [`smr_core::HandlePool`]).
    fn domain(&self) -> &S;

    /// The reclamation domain's statistics.
    fn stats(&self) -> &SmrStats {
        self.domain().stats()
    }

    /// A per-thread handle.
    fn handle(&self) -> S::Handle<'_> {
        self.domain().handle()
    }

    /// Looks up a key.
    fn map_get<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64>;

    /// Inserts a key; `false` if present.
    fn map_insert<'a>(&'a self, h: &mut S::Handle<'a>, key: u64, value: u64) -> bool;

    /// Removes a key, returning its value.
    fn map_remove<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64>;
}

/// Implements [`ConcurrentMap`] for a map-shaped structure whose inherent
/// API is `with_config`/`domain`/`get`/`insert`/`remove` — the whole
/// delegation boilerplate in one place.
macro_rules! impl_concurrent_map {
    ($map:ident over $node:ident, $name:literal) => {
        impl<S: Smr<$node<u64, u64>>> ConcurrentMap<S> for $map<u64, u64, S> {
            type Node = $node<u64, u64>;
            const NAME: &'static str = $name;

            fn with_config(config: SmrConfig) -> Self {
                $map::with_config(config)
            }

            fn domain(&self) -> &S {
                $map::domain(self)
            }

            fn map_get<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64> {
                self.get(h, &key)
            }

            fn map_insert<'a>(&'a self, h: &mut S::Handle<'a>, key: u64, value: u64) -> bool {
                self.insert(h, key, value)
            }

            fn map_remove<'a>(&'a self, h: &mut S::Handle<'a>, key: u64) -> Option<u64> {
                self.remove(h, &key)
            }
        }
    };
}

impl_concurrent_map!(HarrisMichaelList over ListNode, "list");
impl_concurrent_map!(MichaelHashMap over ListNode, "hashmap");
impl_concurrent_map!(NatarajanMittalTree over NmNode, "nmtree");
impl_concurrent_map!(BonsaiTree over BonsaiNode, "bonsai");

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::Hyaline;
    use smr_core::SmrHandle;

    fn exercise<S, M>()
    where
        M: ConcurrentMap<S>,
        S: Smr<M::Node>,
    {
        let map = M::with_config(SmrConfig {
            slots: 4,
            max_threads: 16,
            ..SmrConfig::default()
        });
        let mut h = map.handle();
        h.enter();
        assert!(map.map_insert(&mut h, 1, 11));
        assert_eq!(map.map_get(&mut h, 1), Some(11));
        assert_eq!(map.map_remove(&mut h, 1), Some(11));
        assert_eq!(map.map_get(&mut h, 1), None);
        h.leave();
    }

    #[test]
    fn all_structures_through_trait() {
        exercise::<Hyaline<_>, HarrisMichaelList<u64, u64, _>>();
        exercise::<Hyaline<_>, MichaelHashMap<u64, u64, _>>();
        exercise::<Hyaline<_>, NatarajanMittalTree<u64, u64, _>>();
        exercise::<Hyaline<_>, BonsaiTree<u64, u64, _>>();
    }

    #[test]
    fn all_structures_through_trait_on_sharded_domains() {
        use hyaline::HyalineS;
        use smr_core::Sharded;
        // The same generic plumbing must compile and run when the scheme is
        // the sharded adapter; only the hash map actually pins shards, the
        // others stay single-shard (shard 0) by construction.
        exercise::<Sharded<Hyaline<_>>, HarrisMichaelList<u64, u64, _>>();
        exercise::<Sharded<Hyaline<_>>, MichaelHashMap<u64, u64, _>>();
        exercise::<Sharded<Hyaline<_>>, NatarajanMittalTree<u64, u64, _>>();
        exercise::<Sharded<Hyaline<_>>, BonsaiTree<u64, u64, _>>();
        exercise::<Sharded<HyalineS<_>>, MichaelHashMap<u64, u64, _>>();
    }

    #[test]
    fn sharded_hashmap_splits_retire_traffic_per_bucket_group() {
        use smr_core::{Sharded, Smr as _};
        let domain: Sharded<Hyaline<ListNode<u64, u64>>> = Sharded::with_config(SmrConfig {
            slots: 16,
            shards: 4,
            batch_min: 2,
            max_threads: 16,
            ..SmrConfig::default()
        });
        let map = MichaelHashMap::with_domain_and_buckets(domain, 64);
        let mut h = map.smr_handle();
        for key in 0..512u64 {
            h.enter();
            map.insert(&mut h, key, key);
            map.remove(&mut h, &key);
            h.leave();
        }
        h.flush();
        drop(h);
        // Every shard saw some of the retire traffic: the bucket-group
        // pinning routed work to all four inner domains.
        for i in 0..map.domain().shard_count() {
            assert!(
                map.domain().shard(i).stats().retired() > 0,
                "shard {i} never received retire traffic"
            );
        }
        let stats = map.stats();
        assert_eq!(stats.retired(), stats.freed() + stats.unreclaimed());
    }
}
