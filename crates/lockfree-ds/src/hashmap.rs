//! Michael's lock-free hash map \[26\]: a fixed array of Harris–Michael
//! sorted-list buckets (the paper's Figure 8c/9c benchmark structure).
//!
//! # The bucket function
//!
//! A key hashed with exactly one integer write (`u8` … `u64`, `usize` and
//! their signed twins: every integer key up to 64 bits) buckets by its own
//! bits, `bucket_index(k) = k & (buckets − 1)`. That is what the paper's
//! C++ harness does: libstdc++'s `std::hash<int>` is the identity, and its
//! buckets are `hash % buckets` on a power of two. Keys made of several
//! writes or of bytes (`String`, tuples) are mixed: one widening multiply
//! per word, the product's high half folded into its low half, so they
//! still spread over the buckets.
//!
//! Two things come of the identity:
//! - **No hash cost.** The map hashed with SipHash-1-3 before, which
//!   costs ~10 ns a call and protects no secret here. `kv-service` paid it
//!   16 times per request. The benchmark's `hashmap.get_ns` probe read
//!   33.8 ns with SipHash and 17.1 ns with the identity, and
//!   `hashmap.insert_remove_ns` 191 → 132 (medians of 6 traced pairs on 2
//!   hardware threads of a shared Xeon 2.1 GHz host).
//! - **Locality.** Dense keys land in adjacent buckets, so a skewed key
//!   set's hot buckets share cache lines instead of scattering over the
//!   512 KiB bucket array. A multiply-and-fold hash that dropped SipHash
//!   but still scattered the keys gained only about half as much on
//!   `kv-service`.
//!
//! The price is the harness's own: integer keys congruent modulo the
//! bucket count share one list (`i · 65,536` all land in bucket 0 of a
//! [`DEFAULT_BUCKETS`] map), and whoever picks the keys picks the chain
//! lengths. This map is a benchmark structure, not a table hardened against
//! hash flooding.

use smr_core::typed::{Atomic, Guard};
use smr_core::{Smr, SmrConfig, SmrHandle};
use std::hash::{Hash, Hasher};

use crate::list::{self, ListNode};

/// Default number of buckets. The paper's workload spreads 100 000 keys; a
/// load factor near one keeps bucket traversals short, matching \[35\].
pub const DEFAULT_BUCKETS: usize = 1 << 16;

/// The bucket function's hasher (see the module docs): one integer write
/// hashes to itself, anything else is mixed.
#[derive(Default)]
struct KeyHasher {
    hash: u64,
    /// 0 before any write; 1 while `hash` is the key's one integer write,
    /// verbatim; 2 once `hash` is the mixed state.
    words: u8,
}

impl KeyHasher {
    /// π's first 64 fractional bits: odd, with no structure to exploit.
    const MIX: u64 = 0x243f_6a88_85a3_08d3;

    /// One multiply, the product's high half folded into its low half, so
    /// every input bit reaches the bucket bits.
    #[inline]
    fn fold_mul(x: u64) -> u64 {
        let product = u128::from(x) * u128::from(Self::MIX);
        product as u64 ^ (product >> 64) as u64
    }

    /// Leaves the verbatim state: a pending integer write joins the mix.
    #[inline]
    fn start_mixing(&mut self) {
        if self.words == 1 {
            self.hash = Self::fold_mul(self.hash);
        }
        self.words = 2;
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.start_mixing();
        self.hash = Self::fold_mul(self.hash ^ word);
    }

    #[inline]
    fn integer(&mut self, word: u64) {
        if self.words == 0 {
            self.hash = word;
            self.words = 1;
        } else {
            self.mix(word);
        }
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.start_mixing();
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.integer(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.integer(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.integer(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.integer(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.integer(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Michael's lock-free hash map, generic over the reclamation scheme.
///
/// An integer key `k` lives in bucket `k & (buckets − 1)`, as in the
/// paper's harness; other keys are mixed first. Integer keys congruent
/// modulo the bucket count share one bucket list (see the module docs).
///
/// # Example
///
/// ```
/// use hyaline::HyalineS;
/// use lockfree_ds::MichaelHashMap;
/// use smr_core::SmrHandle;
///
/// let map: MichaelHashMap<u64, String, HyalineS<_>> = MichaelHashMap::new();
/// let mut h = map.smr_handle();
/// h.enter();
/// assert!(map.insert(&mut h, 7, "seven".into()));
/// assert_eq!(map.get(&mut h, &7).as_deref(), Some("seven"));
/// assert!(map.remove(&mut h, &7).is_some());
/// h.leave();
/// ```
pub struct MichaelHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    domain: S,
    buckets: Box<[Atomic<ListNode<K, V>>]>,
}

impl<K, V, S> std::fmt::Debug for MichaelHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MichaelHashMap")
            .field("scheme", &S::name())
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

impl<K, V, S> Default for MichaelHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> MichaelHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    /// An empty map with [`DEFAULT_BUCKETS`] buckets and a default domain.
    pub fn new() -> Self {
        Self::with_config_and_buckets(SmrConfig::default(), DEFAULT_BUCKETS)
    }

    /// An empty map with a configured domain and [`DEFAULT_BUCKETS`].
    pub fn with_config(config: SmrConfig) -> Self {
        Self::with_config_and_buckets(config, DEFAULT_BUCKETS)
    }

    /// An empty map with `buckets` buckets (rounded up to a power of two).
    pub fn with_config_and_buckets(config: SmrConfig, buckets: usize) -> Self {
        Self::with_domain_and_buckets(S::with_config(config), buckets)
    }

    /// An empty map over a pre-built domain and [`DEFAULT_BUCKETS`] — the
    /// way to hand in a configured [`smr_core::Sharded`] adapter.
    pub fn with_domain(domain: S) -> Self {
        Self::with_domain_and_buckets(domain, DEFAULT_BUCKETS)
    }

    /// An empty map over a pre-built domain with `buckets` buckets (rounded
    /// up to a power of two).
    pub fn with_domain_and_buckets(domain: S, buckets: usize) -> Self {
        let buckets = buckets.next_power_of_two();
        Self {
            domain,
            buckets: (0..buckets).map(|_| Atomic::null()).collect(),
        }
    }

    /// `key`'s bucket: an integer key's own low bits (see the module docs).
    #[inline]
    fn bucket_index(&self, key: &K) -> usize {
        let mut hasher = KeyHasher::default();
        key.hash(&mut hasher);
        hasher.finish() as usize & (self.buckets.len() - 1)
    }

    /// Pins `handle` to the shard owning bucket `index` and returns the
    /// bucket head.
    ///
    /// Every node of a bucket is allocated, protected and retired through a
    /// handle pinned to that bucket, so under a [`smr_core::Sharded`] domain
    /// each *bucket group* (the buckets whose index is
    /// congruent modulo the shard count) forms a self-contained shard: the
    /// map's retire traffic splits per group instead of funneling into one
    /// domain. For an integer key the group is `key mod shards`, so dense
    /// keys stay balanced over the shards. Plain domains ignore the pin.
    fn pinned_bucket<'a, 'b>(
        &'a self,
        handle: &mut S::Handle<'b>,
        index: usize,
    ) -> &'a Atomic<ListNode<K, V>> {
        handle.pin_shard(index as u64);
        &self.buckets[index]
    }

    /// The underlying reclamation domain (statistics, etc.).
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this map.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Looks up `key`. Must be called between `enter` and `leave`.
    pub fn get<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let bucket = self.pinned_bucket(handle, self.bucket_index(key));
        list::get(&Guard::over(handle), bucket, key)
    }

    /// Whether `key` is present. Must be called between `enter` and `leave`.
    pub fn contains<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> bool {
        self.get(handle, key).is_some()
    }

    /// Inserts `key -> value`; `false` if present. Must be called between
    /// `enter` and `leave`.
    pub fn insert<'a>(&'a self, handle: &mut S::Handle<'a>, key: K, value: V) -> bool {
        let bucket = self.pinned_bucket(handle, self.bucket_index(&key));
        list::insert(&Guard::over(handle), bucket, key, value)
    }

    /// Removes `key`, returning its value. Must be called between `enter`
    /// and `leave`.
    pub fn remove<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let bucket = self.pinned_bucket(handle, self.bucket_index(key));
        list::remove(&Guard::over(handle), bucket, key)
    }
}

impl<K, V, S> Drop for MichaelHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let mut g = Guard::over(&mut handle);
        for (index, bucket) in self.buckets.iter().enumerate() {
            // Pin per bucket so each shard deallocates its own nodes.
            g.pin_shard(index as u64);
            // SAFETY: `Drop` has `&mut self` — exclusive access to every
            // bucket list.
            unsafe { list::drop_all(&g, bucket) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, HyalineS};
    use smr_baselines::{Ebr, Hp, Ibr};
    use smr_core::{Sharded, SmrHandle};

    fn cfg() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 8,
            era_freq: 8,
            scan_threshold: 16,
            max_threads: 64,
            ..SmrConfig::default()
        }
    }

    fn map<S: Smr<ListNode<u64, u64>>>() -> MichaelHashMap<u64, u64, S> {
        MichaelHashMap::with_config_and_buckets(cfg(), 64)
    }

    fn smoke<S: Smr<ListNode<u64, u64>>>() {
        let m = map::<S>();
        let mut h = m.smr_handle();
        h.enter();
        for i in 0..200 {
            assert!(m.insert(&mut h, i, i * 2));
        }
        for i in 0..200 {
            assert_eq!(m.get(&mut h, &i), Some(i * 2));
        }
        for i in (0..200).step_by(2) {
            assert_eq!(m.remove(&mut h, &i), Some(i * 2));
        }
        for i in 0..200 {
            assert_eq!(m.get(&mut h, &i).is_some(), i % 2 == 1);
        }
        h.leave();
    }

    #[test]
    fn smoke_several_schemes() {
        smoke::<Hyaline<_>>();
        smoke::<HyalineS<_>>();
        smoke::<Ebr<_>>();
        smoke::<Hp<_>>();
        smoke::<Ibr<_>>();
    }

    #[test]
    fn concurrent_mixed_workload() {
        let m: &MichaelHashMap<u64, u64, Hyaline<_>> = &map();
        std::thread::scope(|s| {
            for t in 0..6u64 {
                s.spawn(move || {
                    let mut h = m.smr_handle();
                    let mut x = (t + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..3_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 256;
                        h.enter();
                        match x % 4 {
                            0 => {
                                m.insert(&mut h, key, key * 2);
                            }
                            1 => {
                                m.remove(&mut h, &key);
                            }
                            _ => {
                                if let Some(v) = m.get(&mut h, &key) {
                                    assert_eq!(v, key * 2);
                                }
                            }
                        }
                        h.leave();
                    }
                });
            }
        });
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let m: MichaelHashMap<u64, u64, Ebr<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 100);
        assert_eq!(m.buckets.len(), 128);
    }

    #[test]
    fn integer_key_buckets_by_its_own_bits() {
        for n in [1, 2, 64, 1 << 16] {
            let m: MichaelHashMap<u64, u64, Ebr<_>> =
                MichaelHashMap::with_config_and_buckets(cfg(), n);
            for k in (0..1_000).chain([u64::MAX - 1, u64::MAX, 0xDEAD_BEEF << 20]) {
                assert_eq!(
                    m.bucket_index(&k),
                    k as usize & (n - 1),
                    "key {k}, {n} buckets"
                );
            }
        }
    }

    #[test]
    fn one_bucket_map_round_trips() {
        let m: MichaelHashMap<u64, u64, Hyaline<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 1);
        let mut h = m.smr_handle();
        h.enter();
        for k in [u64::MAX, 0, 7, 1 << 63] {
            assert!(m.insert(&mut h, k, k ^ 1));
            assert_eq!(m.get(&mut h, &k), Some(k ^ 1));
        }
        for k in [0, 7, 1 << 63, u64::MAX] {
            assert_eq!(m.remove(&mut h, &k), Some(k ^ 1));
            assert_eq!(m.get(&mut h, &k), None);
        }
        h.leave();
    }

    #[test]
    fn string_keys_spread_over_buckets() {
        // 4 keys a bucket on average, and a uniform hash puts ~12 in the
        // fullest of 1,024 buckets. A multiply without the fold keeps
        // "key-"'s constant low bytes in the bucket bits and fails here.
        const BOUND: usize = 16;
        let m: MichaelHashMap<String, u64, Ebr<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 1_024);
        let mut load = vec![0usize; 1_024];
        for i in 0..4_096 {
            load[m.bucket_index(&format!("key-{i}"))] += 1;
        }
        let fullest = load.iter().copied().max().unwrap();
        assert!(fullest <= BOUND, "a bucket holds {fullest} of 4,096 keys");
    }

    #[test]
    fn keys_congruent_modulo_the_bucket_count_share_a_bucket() {
        // The documented collision: `i · 65,536` all hash to bucket 0 of
        // a default map, so they form one sorted list, which still works.
        let m: MichaelHashMap<u64, u64, Hyaline<_>> = MichaelHashMap::with_config(cfg());
        assert_eq!(m.buckets.len(), DEFAULT_BUCKETS);
        let keys = (0..256u64).map(|i| i * 65_536);
        assert!(keys.clone().all(|k| m.bucket_index(&k) == 0));
        let mut h = m.smr_handle();
        h.enter();
        for k in keys.clone().rev() {
            assert!(m.insert(&mut h, k, k));
        }
        for k in keys {
            assert_eq!(m.remove(&mut h, &k), Some(k));
        }
        h.leave();
    }

    #[test]
    fn dense_keys_reach_every_shard() {
        // `pinned_bucket` hands the bucket index to `pin_shard`, so a
        // bucket group is "key mod shards": a bucket function with
        // constant low bits would collapse the map onto one shard.
        for shards in [2, 8] {
            let m: MichaelHashMap<u64, u64, Sharded<Hyaline<_>>> =
                MichaelHashMap::with_config(SmrConfig {
                    shards,
                    slots: 2 * shards,
                    ..cfg()
                });
            let mut h = m.smr_handle();
            h.enter();
            for k in 0..64 {
                assert!(m.insert(&mut h, k, k));
            }
            h.leave();
            // Dropping the handle publishes its buffered counters.
            drop(h);
            for i in 0..shards {
                assert!(
                    m.domain().shard(i).stats().allocated() > 0,
                    "shard {i} of {shards} allocated no node"
                );
            }
        }
    }

    #[test]
    fn string_values() {
        let m: MichaelHashMap<u64, String, Hyaline<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 16);
        let mut h = m.smr_handle();
        h.enter();
        assert!(m.insert(&mut h, 1, "one".into()));
        assert_eq!(m.get(&mut h, &1).as_deref(), Some("one"));
        h.leave();
    }
}
