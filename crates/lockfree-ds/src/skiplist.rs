//! A lock-free skip-list map in the Harris/Herlihy–Shavit style, written
//! against the typed-pointer layer (`smr_core::typed`).
//!
//! Each node carries a tower of `next` links; the level-0 list is the
//! ground truth and upper levels are index shortcuts. Every level is a
//! Harris–Michael list: a node is logically deleted at a level by marking
//! its `next` link (freezing it), and traversals unlink marked nodes
//! instead of walking past them, so the per-access schemes (HP, HE) are
//! safe with three rotating protection indices.
//!
//! # Retirement handshake
//!
//! A node may only be retired once it is unreachable from *every* level,
//! and an insert may still be linking upper levels while a remove tears
//! the node down. The two sides synchronize through a two-bit `state`
//! word:
//!
//! * the inserter sets [`LINKED`] once it has finished (or abandoned)
//!   linking the upper levels — no new links can form afterwards;
//! * the winner of the level-0 unlink sets [`UNLINKED`] — the node is
//!   logically gone.
//!
//! Whichever `fetch_or` observes the *other* bit already set inherits sole
//! responsibility for the node: it sweeps the upper levels (unlinking the
//! node wherever it is still reachable) and then retires it, exactly once.
//! Marks are placed top-down with level 0 last, so by the time either
//! side can sweep, every `next` link of the node is frozen.
//!
//! The only `unsafe` left is that handshake's ownership argument (plus the
//! usual exclusive teardown in `Drop`); every traversal dereference is a
//! safe, borrow-branded [`Shared`].

use smr_core::typed::{Atomic, Guard, Owned, Ptr, Shared};
use smr_core::{Smr, SmrConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mark bit on a node's `next` link: the node is deleted at that level.
const MARK: usize = 1;

/// Tallest tower: covers ~4k nodes at the expected 2x fan-out per level.
const MAX_HEIGHT: usize = 12;

/// `state` bit: the inserter finished (or abandoned) upper-level linking.
const LINKED: u64 = 1;
/// `state` bit: the node has been unlinked from level 0.
const UNLINKED: u64 = 2;

/// Protection indices used during traversal (rotated as the window slides).
const IDX_A: usize = 0;
const IDX_B: usize = 1;
const IDX_C: usize = 2;
/// Minimum `SmrConfig::max_protect` the skip list needs.
pub const SKIPLIST_MIN_PROTECT: usize = 3;

/// A skip-list node: a key/value pair under a tower of markable links.
pub struct SkipNode<K, V> {
    key: K,
    value: V,
    /// The [`LINKED`]/[`UNLINKED`] retirement handshake.
    state: AtomicU64,
    /// The tower; `next.len()` is the node's height (≥ 1).
    next: Box<[Atomic<SkipNode<K, V>>]>,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for SkipNode<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipNode")
            .field("key", &self.key)
            .field("height", &self.next.len())
            .finish_non_exhaustive()
    }
}

/// The level-0 window returned by the descent: the link holding `curr`
/// (the first level-0 node with key ≥ target, or null) and `curr` itself.
struct Window<'g, K, V> {
    found: bool,
    /// The node owning this link is protected by a rotation index (or is
    /// the head tower) for the guard borrow `'g`.
    pred_link: &'g Atomic<SkipNode<K, V>>,
    curr: Shared<'g, SkipNode<K, V>>,
}

/// A lock-free skip-list map, generic over the reclamation scheme.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::SkipListMap;
/// use smr_core::SmrHandle;
///
/// let map: SkipListMap<u64, u64, Hyaline<_>> = SkipListMap::new();
/// let mut h = map.smr_handle();
/// h.enter();
/// assert!(map.insert(&mut h, 3, 30));
/// assert_eq!(map.get(&mut h, &3), Some(30));
/// assert_eq!(map.remove(&mut h, &3), Some(30));
/// h.leave();
/// ```
pub struct SkipListMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<SkipNode<K, V>>,
{
    domain: S,
    /// The head tower: one entry link per level, never marked.
    head: [Atomic<SkipNode<K, V>>; MAX_HEIGHT],
    /// Counter seeding the splitmix64 height generator (deterministic per
    /// map, making single-threaded runs reproducible).
    seed: AtomicU64,
}

impl<K, V, S> std::fmt::Debug for SkipListMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<SkipNode<K, V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListMap")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<K, V, S> Default for SkipListMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<SkipNode<K, V>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> SkipListMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<SkipNode<K, V>>,
{
    /// An empty map with a default-configured domain.
    pub fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// An empty map whose reclamation domain uses `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_protect < SKIPLIST_MIN_PROTECT`.
    pub fn with_config(config: SmrConfig) -> Self {
        assert!(
            config.max_protect >= SKIPLIST_MIN_PROTECT,
            "skip list needs at least {SKIPLIST_MIN_PROTECT} protection indices"
        );
        Self::with_domain(S::with_config(config))
    }

    /// An empty map over a pre-built reclamation domain (e.g. a
    /// configured [`smr_core::Sharded`] adapter).
    pub fn with_domain(domain: S) -> Self {
        Self {
            domain,
            head: std::array::from_fn(|_| Atomic::null()),
            seed: AtomicU64::new(0),
        }
    }

    /// The underlying reclamation domain (statistics, etc.).
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this map.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// A geometric (p = 1/2) tower height in `1..=MAX_HEIGHT`, from a
    /// splitmix64 stream over a shared counter.
    fn random_height(&self) -> usize {
        let n = self.seed.fetch_add(1, Ordering::Relaxed);
        let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z.trailing_zeros() as usize + 1).min(MAX_HEIGHT)
    }

    /// The full descent: walks from the top of the head tower down to
    /// level 0, unlinking marked nodes along the way, and returns the
    /// level-0 window for `key`. Winning a *level-0* unlink additionally
    /// runs the retirement [handshake](self) (and restarts, since the
    /// sweep reuses the protection indices).
    fn find0<'a: 'g, 'g>(
        &'a self,
        g: &'g Guard<'_, SkipNode<K, V>, S::Handle<'a>>,
        key: &K,
    ) -> Window<'g, K, V> {
        'restart: loop {
            let mut level = MAX_HEIGHT - 1;
            // The node owning `pred_link` (`None` = the head tower). While
            // set, it is protected by a rotation index: it entered as an
            // unmarked `curr` and its index is not reused until the window
            // slides past it.
            let mut pred: Option<&SkipNode<K, V>> = None;
            let mut pred_link: &Atomic<SkipNode<K, V>> = &self.head[level];
            // Rotating protection indices for (pred-node, curr, next).
            let mut idx = [IDX_A, IDX_B, IDX_C];
            let mut curr = pred_link.load(idx[1], g);
            loop {
                let Some(curr_ref) = curr.as_ref() else {
                    // Past the end of this level: descend through pred.
                    if level == 0 {
                        return Window {
                            found: false,
                            pred_link,
                            curr,
                        };
                    }
                    level -= 1;
                    pred_link = match pred {
                        Some(p) => &p.next[level],
                        None => &self.head[level],
                    };
                    curr = pred_link.load(idx[1], g);
                    if curr.tag() != 0 || pred_link.fetch() != curr {
                        // pred is being deleted at this level (or the link
                        // moved under the new protection): start over.
                        continue 'restart;
                    }
                    continue;
                };
                debug_assert_eq!(curr.tag(), 0, "links always store untagged pointers");
                let next = curr_ref.next[level].load(idx[2], g);
                // Validate the window: pred must still link to an unmarked
                // curr (Michael's re-check; also re-establishes that curr
                // was not unlinked while we protected next).
                if pred_link.fetch() != curr {
                    continue 'restart;
                }
                if next.tag() == MARK {
                    // curr is deleted at this level: unlink it here.
                    let next_clean = next.untagged();
                    if pred_link.compare_exchange(curr, next_clean).is_err() {
                        continue 'restart;
                    }
                    if level == 0 {
                        // We won the level-0 unlink: run the handshake. The
                        // sweep may reuse our indices, so restart after.
                        self.handoff(g, curr.into());
                        continue 'restart;
                    }
                    // next (protected by idx[2]) becomes curr.
                    idx.swap(1, 2);
                    curr = next_clean;
                } else if curr_ref.key < *key {
                    // Slide the window: curr becomes pred, next becomes curr.
                    pred = Some(curr_ref);
                    pred_link = &curr_ref.next[level];
                    idx.rotate_left(1);
                    curr = next;
                } else if level > 0 {
                    // First key ≥ target at this level: descend through pred.
                    level -= 1;
                    pred_link = match pred {
                        Some(p) => &p.next[level],
                        None => &self.head[level],
                    };
                    curr = pred_link.load(idx[1], g);
                    if curr.tag() != 0 || pred_link.fetch() != curr {
                        continue 'restart;
                    }
                } else {
                    return Window {
                        found: curr_ref.key == *key,
                        pred_link,
                        curr,
                    };
                }
            }
        }
    }

    /// Walks level `level` (≥ 1) and returns the window before the first
    /// node with key ≥ `key` — or, when `target` is given, the link still
    /// holding exactly that node (skipping other nodes of equal key).
    /// Marked nodes are unlinked in passing; upper-level unlinks never
    /// retire (that is the [handshake](self)'s job).
    fn level_search<'a: 'g, 'g>(
        &'a self,
        g: &'g Guard<'_, SkipNode<K, V>, S::Handle<'a>>,
        level: usize,
        key: &K,
        target: Option<Ptr<SkipNode<K, V>>>,
    ) -> Window<'g, K, V> {
        debug_assert!(level >= 1, "level 0 goes through find0");
        'restart: loop {
            let mut pred_link: &Atomic<SkipNode<K, V>> = &self.head[level];
            let mut idx = [IDX_A, IDX_B, IDX_C];
            let mut curr = pred_link.load(idx[1], g);
            loop {
                let Some(curr_ref) = curr.as_ref() else {
                    return Window {
                        found: false,
                        pred_link,
                        curr,
                    };
                };
                debug_assert_eq!(curr.tag(), 0, "links always store untagged pointers");
                if target.is_some_and(|t| t == curr) {
                    return Window {
                        found: true,
                        pred_link,
                        curr,
                    };
                }
                let next = curr_ref.next[level].load(idx[2], g);
                if pred_link.fetch() != curr {
                    continue 'restart;
                }
                if next.tag() == MARK {
                    let next_clean = next.untagged();
                    if pred_link.compare_exchange(curr, next_clean).is_err() {
                        continue 'restart;
                    }
                    idx.swap(1, 2);
                    curr = next_clean;
                } else if curr_ref.key < *key || (target.is_some() && curr_ref.key == *key) {
                    // With a target, equal-key nodes that are not it (a
                    // fresh reinsert of the same key) are walked past.
                    pred_link = &curr_ref.next[level];
                    idx.rotate_left(1);
                    curr = next;
                } else {
                    return Window {
                        found: target.is_none() && curr_ref.key == *key,
                        pred_link,
                        curr,
                    };
                }
            }
        }
    }

    /// One side of the retirement handshake: called by the winner of the
    /// level-0 unlink.
    fn handoff<'a>(
        &'a self,
        g: &Guard<'_, SkipNode<K, V>, S::Handle<'a>>,
        node: Ptr<SkipNode<K, V>>,
    ) {
        // SAFETY: retiring requires both handshake bits, and `UNLINKED` is
        // set only below — the node is still live.
        let node_ref = unsafe { node.deref() };
        if node_ref.state.fetch_or(UNLINKED, Ordering::AcqRel) & LINKED != 0 {
            // The inserter already finished: upper levels are ours to clear.
            self.sweep(g, node);
        }
    }

    /// Second half of the handshake: unlinks `node` from every upper level
    /// it is still reachable on, then retires it. Runs on exactly one
    /// thread — whichever `fetch_or` saw the other side's bit.
    fn sweep<'a>(
        &'a self,
        g: &Guard<'_, SkipNode<K, V>, S::Handle<'a>>,
        node: Ptr<SkipNode<K, V>>,
    ) {
        // SAFETY: both handshake bits are set and we are the thread that
        // completed the pair, so we hold exclusive retirement rights; the
        // node stays live until the `defer_retire` below.
        let node_ref = unsafe { node.deref() };
        for level in 1..node_ref.next.len() {
            loop {
                let w = self.level_search(g, level, &node_ref.key, Some(node));
                if !w.found {
                    break;
                }
                // The node's links are all frozen (marks are placed
                // top-down before the level-0 unlink), so its successor at
                // this level is stable.
                let succ = node_ref.next[level].fetch().untagged();
                if w.pred_link.compare_exchange(node, succ).is_ok() {
                    break;
                }
            }
        }
        // SAFETY: the node is marked at every level (no new links can
        // form), unlinked from every level, and ours alone to retire.
        unsafe { g.defer_retire(node) };
    }

    /// Looks up `key`. Must be called between `enter` and `leave`.
    pub fn get<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let g = Guard::over(h);
        let w = self.find0(&g, key);
        w.found.then(|| w.curr.deref().value.clone())
    }

    /// Whether `key` is present. Must be called between `enter` and `leave`.
    pub fn contains<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> bool {
        let g = Guard::over(h);
        self.find0(&g, key).found
    }

    /// Inserts `key -> value`; `false` if present. Must be called between
    /// `enter` and `leave`.
    pub fn insert<'a>(&'a self, h: &mut S::Handle<'a>, key: K, value: V) -> bool {
        let g = Guard::over(h);
        // The value moves into the node the first time one is allocated.
        let mut value = Some(value);
        // The node survives CAS-failure rounds until it is published.
        let mut node: Option<Owned<SkipNode<K, V>>> = None;
        let node_ptr = loop {
            let w = self.find0(&g, &key);
            if w.found {
                if let Some(unpublished) = node.take() {
                    g.discard(unpublished);
                }
                return false;
            }
            let owned = node.get_or_insert_with(|| {
                let height = self.random_height();
                g.alloc(SkipNode {
                    key: key.clone(),
                    value: value.take().expect("the node is allocated only once"),
                    state: AtomicU64::new(0),
                    next: (0..height).map(|_| Atomic::null()).collect(),
                })
            });
            // Aim the still-private node at its level-0 successor, then
            // publish: the level-0 CAS is the linearization point.
            owned.as_ref().next[0].store(w.curr);
            let ptr = owned.ptr();
            if w.pred_link.compare_exchange(w.curr, ptr).is_ok() {
                // Ownership moved into the list.
                node.take().map(Owned::into_ptr);
                break ptr;
            }
        };
        // SAFETY: retiring the node requires both handshake bits and ours
        // (`LINKED`) is only set below, so the node stays live while we
        // link the upper levels.
        let node_ref = unsafe { node_ptr.deref() };
        'linking: for level in 1..node_ref.next.len() {
            loop {
                let w = self.level_search(&g, level, &key, None);
                let cur = node_ref.next[level].fetch();
                if cur.tag() != 0 {
                    // A removal overtook us: leave the rest unlinked.
                    break 'linking;
                }
                // Aim the node at its successor first; a failure means a
                // concurrent mark froze the link (checked next round).
                if node_ref.next[level].compare_exchange(cur, w.curr).is_err() {
                    continue;
                }
                // `w.curr` is protected, so this CAS cannot ABA.
                if w.pred_link.compare_exchange(w.curr, node_ptr).is_ok() {
                    break;
                }
            }
        }
        if node_ref.state.fetch_or(LINKED, Ordering::AcqRel) & UNLINKED != 0 {
            // A removal finished mid-linking and handed the node to us.
            self.sweep(&g, node_ptr);
        }
        true
    }

    /// Removes `key`, returning its value. Must be called between `enter`
    /// and `leave`.
    pub fn remove<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let g = Guard::over(h);
        let w = self.find0(&g, key);
        if !w.found {
            return None;
        }
        let node_ref = w.curr.deref();
        // Freeze the tower top-down; the level-0 mark is the linearization
        // point and decides the race among concurrent removers.
        for level in (1..node_ref.next.len()).rev() {
            node_ref.next[level].fetch_or_tag(MARK);
        }
        if node_ref.next[0].fetch_or_tag(MARK).tag() != 0 {
            // Another remover already owned the deletion.
            return None;
        }
        let value = node_ref.value.clone();
        // Make the deletion physical before returning: the descent unlinks
        // the marked node (whoever wins runs the handshake).
        let _ = self.find0(&g, key);
        Some(value)
    }
}

impl<K, V, S> Drop for SkipListMap<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<SkipNode<K, V>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        // Every live node is on the level-0 list (retired ones left it).
        let mut curr = self.head[0].fetch().untagged();
        while !curr.is_null() {
            // SAFETY: `Drop` has `&mut self` — no concurrent access; the
            // remaining chain is exclusively ours to walk and free.
            let next = unsafe { curr.deref() }.next[0].fetch();
            // SAFETY: same exclusive-teardown argument.
            unsafe { g.dealloc(curr) };
            curr = next.untagged();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
    use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
    use smr_core::SmrHandle;

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

    fn smoke<S: Smr<SkipNode<u64, u64>>>() {
        let map: SkipListMap<u64, u64, S> = SkipListMap::with_config(cfg());
        let mut h = map.smr_handle();
        h.enter();
        assert_eq!(map.get(&mut h, &1), None);
        for i in 0..200 {
            assert!(map.insert(&mut h, i, i * 2), "insert {i}");
        }
        assert!(!map.insert(&mut h, 100, 0));
        for i in 0..200 {
            assert_eq!(map.get(&mut h, &i), Some(i * 2));
            assert!(map.contains(&mut h, &i));
        }
        for i in (0..200).step_by(2) {
            assert_eq!(map.remove(&mut h, &i), Some(i * 2));
        }
        assert_eq!(map.remove(&mut h, &0), None);
        for i in 0..200 {
            assert_eq!(map.get(&mut h, &i).is_some(), i % 2 == 1, "key {i}");
        }
        h.leave();
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Hyaline<_>>();
        smoke::<Hyaline1<_>>();
        smoke::<HyalineS<_>>();
        smoke::<Hyaline1S<_>>();
        smoke::<Ebr<_>>();
        smoke::<Hp<_>>();
        smoke::<He<_>>();
        smoke::<Ibr<_>>();
        smoke::<Leaky<_>>();
    }

    #[test]
    fn towers_spread_heights() {
        let map: SkipListMap<u64, u64, Ebr<_>> = SkipListMap::with_config(cfg());
        let mut tall = 0;
        for _ in 0..1_000 {
            if map.random_height() > 1 {
                tall += 1;
            }
        }
        // p = 1/2 per extra level: wildly loose bounds, just not degenerate.
        assert!(tall > 300 && tall < 700, "suspicious height spread: {tall}");
    }

    #[test]
    fn delete_down_to_empty_and_reinsert() {
        let map: SkipListMap<u64, u64, Ebr<_>> = SkipListMap::with_config(cfg());
        let mut h = map.smr_handle();
        for round in 0..3 {
            h.enter();
            for i in 0..100 {
                assert!(map.insert(&mut h, i, i + round), "round {round} insert {i}");
            }
            for i in 0..100 {
                assert_eq!(map.remove(&mut h, &i), Some(i + round));
            }
            for i in 0..100 {
                assert_eq!(map.get(&mut h, &i), None);
            }
            h.leave();
        }
    }

    fn concurrent_churn<S: Smr<SkipNode<u64, u64>>>() {
        let map: &SkipListMap<u64, u64, S> = &SkipListMap::with_config(cfg());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = map.smr_handle();
                    let mut x = (t + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..2_500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 128;
                        h.enter();
                        match x % 3 {
                            0 => {
                                map.insert(&mut h, key, key * 7);
                            }
                            1 => {
                                map.remove(&mut h, &key);
                            }
                            _ => {
                                if let Some(v) = map.get(&mut h, &key) {
                                    assert_eq!(v, key * 7, "torn value for {key}");
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
    fn churn_hyaline() {
        concurrent_churn::<Hyaline<_>>();
    }

    #[test]
    fn churn_hyaline_s() {
        concurrent_churn::<HyalineS<_>>();
    }

    #[test]
    fn churn_hyaline1s() {
        concurrent_churn::<Hyaline1S<_>>();
    }

    #[test]
    fn churn_ebr() {
        concurrent_churn::<Ebr<_>>();
    }

    #[test]
    fn churn_hp() {
        concurrent_churn::<Hp<_>>();
    }

    #[test]
    fn churn_he() {
        concurrent_churn::<He<_>>();
    }

    #[test]
    fn churn_ibr() {
        concurrent_churn::<Ibr<_>>();
    }

    #[test]
    fn concurrent_same_key_removes() {
        // Exactly one of many racing removers gets the value.
        let map: &SkipListMap<u64, u64, Hyaline<_>> = &SkipListMap::with_config(cfg());
        for _ in 0..100 {
            {
                let mut h = map.smr_handle();
                h.enter();
                assert!(map.insert(&mut h, 42, 4200));
                h.leave();
            }
            let winners = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let mut h = map.smr_handle();
                        h.enter();
                        if map.remove(&mut h, &42).is_some() {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                        h.leave();
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn insert_remove_race_on_tall_towers() {
        // Hammer the LINKED/UNLINKED handshake: one thread inserts keys,
        // another removes them as fast as it can.
        let map: &SkipListMap<u64, u64, HyalineS<_>> = &SkipListMap::with_config(cfg());
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = map.smr_handle();
                for i in 0..5_000u64 {
                    h.enter();
                    map.insert(&mut h, i % 64, i);
                    h.leave();
                }
            });
            s.spawn(|| {
                let mut h = map.smr_handle();
                for i in 0..5_000u64 {
                    h.enter();
                    map.remove(&mut h, &(i % 64));
                    h.leave();
                }
            });
        });
    }
}
