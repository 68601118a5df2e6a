//! The Natarajan–Mittal lock-free external binary search tree \[29\]
//! (the paper's Figure 8d/9d benchmark structure).
//!
//! Keys live in leaves; internal nodes only route. Deletion is two-phase
//! edge marking: *injection* FLAGs the edge to the doomed leaf, *cleanup*
//! TAGs (freezes) the sibling edge and swings the deepest clean ancestor
//! edge over the frozen chain, unlinking the leaf, its parent, and any
//! doomed nodes accumulated between them. Operations that stumble on
//! marked edges help complete the pending deletion.
//!
//! Written against the typed-pointer layer (`smr_core::typed`). The
//! remaining `unsafe` is confined to three arguments: promoting the
//! immortal `R`/`S` sentinels to protected [`Shared`]s, the
//! exclusively-owned chain walk after a successful `cleanup` swing, and
//! the exclusive teardown in `Drop`.

use smr_core::typed::{Atomic, Guard, Ptr, Shared};
use smr_core::{Smr, SmrConfig};

/// Edge bit: the leaf below this edge is being deleted (injection).
const FLAG: usize = 1;
/// Edge bit: the edge is frozen; its target is about to be relocated.
const TAG: usize = 2;

/// Protection indices for the seek record plus the sliding cursor.
const I_ANC: usize = 0;
const I_SUC: usize = 1;
const I_PAR: usize = 2;
const I_LEAF: usize = 3;
const I_CUR: usize = 4;
/// Minimum `SmrConfig::max_protect` the tree needs.
pub const NM_MIN_PROTECT: usize = 5;

/// A tree key: finite keys sort below the two sentinel infinities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TreeKey<K> {
    /// An application key.
    Fin(K),
    /// First sentinel (root of the real tree routes through it).
    Inf1,
    /// Second sentinel (tree root).
    Inf2,
}

/// A tree node. Internal nodes carry `value: None`; leaves carry `Some` and
/// have null children.
pub struct NmNode<K, V> {
    key: TreeKey<K>,
    value: Option<V>,
    left: Atomic<NmNode<K, V>>,
    right: Atomic<NmNode<K, V>>,
}

impl<K: std::fmt::Debug, V> std::fmt::Debug for NmNode<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NmNode")
            .field("key", &self.key)
            .field("is_leaf", &self.value.is_some())
            .finish_non_exhaustive()
    }
}

impl<K, V> NmNode<K, V> {
    fn leaf(key: TreeKey<K>, value: Option<V>) -> Self {
        NmNode {
            key,
            value,
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }
}

/// The seek record: the deepest clean edge (`ancestor` → `successor`) above
/// the doomed chain, the leaf's `parent`, and the `leaf` itself. Each field
/// is protected at its namesake index for the guard borrow `'g`.
struct SeekRecord<'g, K, V> {
    ancestor: Shared<'g, NmNode<K, V>>,
    successor: Shared<'g, NmNode<K, V>>,
    parent: Shared<'g, NmNode<K, V>>,
    leaf: Shared<'g, NmNode<K, V>>,
}

/// The Natarajan–Mittal lock-free BST, generic over the reclamation scheme.
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::NatarajanMittalTree;
/// use smr_core::SmrHandle;
///
/// let tree: NatarajanMittalTree<u64, u64, Hyaline<_>> = NatarajanMittalTree::new();
/// let mut h = tree.smr_handle();
/// h.enter();
/// assert!(tree.insert(&mut h, 5, 50));
/// assert_eq!(tree.get(&mut h, &5), Some(50));
/// assert_eq!(tree.remove(&mut h, &5), Some(50));
/// h.leave();
/// ```
pub struct NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<NmNode<K, V>>,
{
    domain: S,
    /// The sentinel root `R` (key `Inf2`); never retired.
    root: Atomic<NmNode<K, V>>,
}

impl<K, V, S> std::fmt::Debug for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<NmNode<K, V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NatarajanMittalTree")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<K, V, S> Default for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<NmNode<K, V>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<NmNode<K, V>>,
{
    /// An empty tree with a default-configured domain.
    pub fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// An empty tree whose reclamation domain uses `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_protect < NM_MIN_PROTECT`.
    pub fn with_config(config: SmrConfig) -> Self {
        assert!(
            config.max_protect >= NM_MIN_PROTECT,
            "Natarajan-Mittal tree needs at least {NM_MIN_PROTECT} protection indices"
        );
        Self::with_domain(S::with_config(config))
    }

    /// An empty tree over a pre-built reclamation domain (e.g. a
    /// configured [`smr_core::Sharded`] adapter).
    pub fn with_domain(domain: S) -> Self {
        let mut handle = domain.handle();
        let root = {
            let g = Guard::over(&mut handle);
            // R{Inf2}: left = S, right = leaf(Inf2); S{Inf1}: leaves Inf1/Inf2.
            let s_l = g.alloc(NmNode::leaf(TreeKey::Inf1, None)).into_ptr();
            let s_r = g.alloc(NmNode::leaf(TreeKey::Inf2, None)).into_ptr();
            let s = g
                .alloc(NmNode {
                    key: TreeKey::Inf1,
                    value: None,
                    left: Atomic::new(s_l),
                    right: Atomic::new(s_r),
                })
                .into_ptr();
            let r_r = g.alloc(NmNode::leaf(TreeKey::Inf2, None)).into_ptr();
            g.alloc(NmNode {
                key: TreeKey::Inf2,
                value: None,
                left: Atomic::new(s),
                right: Atomic::new(r_r),
            })
            .into_ptr()
        };
        drop(handle);
        Self {
            domain,
            root: Atomic::new(root),
        }
    }

    /// The underlying reclamation domain (statistics, etc.).
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this tree.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Which child edge of `node` the search for `key` follows.
    fn child_edge<'a>(node: &'a NmNode<K, V>, key: &TreeKey<K>) -> &'a Atomic<NmNode<K, V>> {
        if *key < node.key {
            &node.left
        } else {
            &node.right
        }
    }

    /// The other child edge.
    fn sibling_edge<'a>(node: &'a NmNode<K, V>, key: &TreeKey<K>) -> &'a Atomic<NmNode<K, V>> {
        if *key < node.key {
            &node.right
        } else {
            &node.left
        }
    }

    /// Re-checks that the traversal window is still linked into the tree
    /// (only for schemes with per-access protection, see
    /// [`Smr::needs_seek_validation`]).
    ///
    /// Two invariants are re-read after every new protection:
    ///
    /// 1. the edge into `leaf` still holds exactly the value we crossed
    ///    (pointer *and* mark bits), and
    /// 2. the deepest clean edge recorded so far (`ancestor` → `successor`)
    ///    is still intact and clean.
    ///
    /// If a concurrent `cleanup` swung an edge above us, one of the two
    /// re-reads differs (tags are permanent and swings replace the deepest
    /// clean edge's value), proving the freshly protected node may already
    /// be retired — the caller restarts from the root. Conversely, when both
    /// re-reads pass, every unlink that could retire the protected node
    /// happened after the protection was published, so the scheme's
    /// publish-then-validate protocol covers it.
    fn window_intact(
        key: &TreeKey<K>,
        ancestor: Shared<'_, NmNode<K, V>>,
        successor: Shared<'_, NmNode<K, V>>,
        parent: Shared<'_, NmNode<K, V>>,
        parent_field: Shared<'_, NmNode<K, V>>,
    ) -> bool {
        if Self::child_edge(parent.deref(), key).fetch() != parent_field {
            return false;
        }
        Self::child_edge(ancestor.deref(), key).fetch() == successor
    }

    /// The paper's `seek`: descends to the leaf for `key`, tracking the
    /// deepest untagged edge as the (ancestor, successor) pair.
    ///
    /// Every level prefetches both children ([`Ptr::prefetch`]) before it
    /// compares. Without the hint a level is a dependent chain: load the
    /// key, compare, load the chosen child, and only then request the
    /// child's lines. Both child addresses sit in the line just fetched.
    /// A 72-byte `SmrNode<NmNode<u64, u64>>` (24-byte header, `value` at
    /// +24, `key` at +40, `left`/`right` at +56/+64) in a 16-byte-aligned
    /// 80-byte chunk straddles two lines about half the time, so the hint
    /// asks for both lines of both children, and the next level's miss
    /// overlaps this level's compare. On 2 hardware threads of a shared Xeon
    /// 2.10 GHz container host, `--trace 1`'s `nmtree.get_ns` went 169 →
    /// 146 ns and the benchmark's `nmtree-read` (4,096 shuffled keys) went
    /// 6.12 → 7.75 Mops/s. A tree that sits in L2 pays for the hint
    /// instead: `sweep`'s sorted 1,024-key prefill, a path ~1,000 levels
    /// deep, read 9–14 % slower on Hyaline at one thread.
    fn seek<'a, 'g>(
        &'a self,
        g: &'g Guard<'_, NmNode<K, V>, S::Handle<'a>>,
        key: &TreeKey<K>,
    ) -> SeekRecord<'g, K, V> {
        let validate = S::needs_seek_validation();
        'restart: loop {
            // SAFETY: R and S are sentinels allocated in `with_domain` and
            // never retired; they may be promoted to protected `Shared`s
            // without holding a protection index.
            let (r, s) = unsafe {
                let r = self.root.fetch().as_shared(g);
                let s = r.deref().left.fetch().untagged().as_shared(g);
                (r, s)
            };

            let mut ancestor = r;
            let mut successor = s;
            let mut parent = s;
            // The source of this protection (S) is immortal, so the
            // publish-then-revalidate inside the protected load suffices on
            // its own.
            let mut parent_field = s.deref().left.load(I_LEAF, g);
            let mut leaf = parent_field.untagged();
            let node = leaf.deref();
            node.left.fetch().prefetch();
            node.right.fetch().prefetch();
            let mut current_field = Self::child_edge(node, key).load(I_CUR, g);
            if validate && !Self::window_intact(key, ancestor, successor, parent, parent_field) {
                continue 'restart;
            }
            loop {
                let current = current_field.untagged();
                if current.is_null() {
                    break;
                }
                if parent_field.tag() & TAG == 0 {
                    // The edge into `leaf` is clean: deepest clean point so far.
                    g.copy_protection(I_PAR, I_ANC);
                    ancestor = parent;
                    g.copy_protection(I_LEAF, I_SUC);
                    successor = leaf;
                }
                g.copy_protection(I_LEAF, I_PAR);
                parent = leaf;
                g.copy_protection(I_CUR, I_LEAF);
                leaf = current;
                parent_field = current_field;
                let node = leaf.deref();
                node.left.fetch().prefetch();
                node.right.fetch().prefetch();
                current_field = Self::child_edge(node, key).load(I_CUR, g);
                if validate && !Self::window_intact(key, ancestor, successor, parent, parent_field)
                {
                    continue 'restart;
                }
            }
            return SeekRecord {
                ancestor,
                successor,
                parent,
                leaf,
            };
        }
    }

    /// The paper's `cleanup`: freezes the survivor edge and swings the
    /// ancestor edge over the doomed chain. Returns whether this call
    /// performed the unlink (and the retirement).
    fn cleanup<'a>(
        &'a self,
        g: &Guard<'_, NmNode<K, V>, S::Handle<'a>>,
        key: &TreeKey<K>,
        sr: &SeekRecord<'_, K, V>,
    ) -> bool {
        let parent_ref = sr.parent.deref();
        let path_edge = Self::child_edge(parent_ref, key);
        let other_edge = Self::sibling_edge(parent_ref, key);
        let path_val = path_edge.fetch();
        // The flagged edge leads to the leaf being removed; the other child
        // survives. When helping, the flag may sit on either side.
        let (survivor_edge, flagged_edge) = if path_val.tag() & FLAG != 0 {
            (other_edge, path_edge)
        } else {
            (path_edge, other_edge)
        };
        // Freeze the survivor edge so its target cannot change underneath
        // the swing below.
        survivor_edge.fetch_or_tag(TAG);
        let survivor = survivor_edge.fetch();
        // The survivor keeps its own FLAG (it may itself be a doomed leaf).
        let new_val = survivor.untagged().with_tag(survivor.tag() & FLAG);

        let anc_edge = Self::child_edge(sr.ancestor.deref(), key);
        if anc_edge.compare_exchange(sr.successor, new_val).is_err() {
            return false;
        }

        // SAFETY: the successful ancestor CAS unlinked the chain
        // `successor ..= parent` plus every flagged leaf hanging off it;
        // nothing else can reach, retire or free those nodes now, so the
        // walk may dereference them and this thread alone retires each one.
        unsafe {
            let mut cur = Ptr::from(sr.successor);
            while cur != sr.parent {
                let cur_ref = cur.deref();
                // Interior chain nodes are doomed: path child frozen by TAG,
                // other child a flagged leaf completing some pending delete.
                let doomed_leaf = Self::sibling_edge(cur_ref, key).fetch();
                debug_assert!(!doomed_leaf.is_null());
                g.defer_retire(doomed_leaf);
                let next = Self::child_edge(cur_ref, key).fetch();
                g.defer_retire(cur);
                cur = next.untagged();
            }
            let removed_leaf = flagged_edge.fetch();
            debug_assert!(!removed_leaf.is_null());
            g.defer_retire(removed_leaf);
            g.defer_retire(sr.parent);
        }
        true
    }

    /// Looks up `key`. Must be called between `enter` and `leave`.
    pub fn get<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let g = Guard::over(h);
        let key = TreeKey::Fin(key.clone());
        let sr = self.seek(&g, &key);
        let leaf_ref = sr.leaf.deref();
        (leaf_ref.key == key).then(|| leaf_ref.value.clone().expect("leaves carry values"))
    }

    /// Whether `key` is present. Must be called between `enter` and `leave`.
    pub fn contains<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> bool {
        let g = Guard::over(h);
        let key = TreeKey::Fin(key.clone());
        self.seek(&g, &key).leaf.deref().key == key
    }

    /// Inserts `key -> value`; `false` if present. Must be called between
    /// `enter` and `leave`.
    pub fn insert<'a>(&'a self, h: &mut S::Handle<'a>, key: K, value: V) -> bool {
        let g = Guard::over(h);
        let tkey = TreeKey::Fin(key);
        // The new leaf survives CAS-failure rounds until it is published.
        let mut new_leaf = None;
        loop {
            let sr = self.seek(&g, &tkey);
            let leaf_ref = sr.leaf.deref();
            if leaf_ref.key == tkey {
                if let Some(unpublished) = new_leaf.take() {
                    g.discard(unpublished);
                }
                return false;
            }
            let leaf_ptr = new_leaf
                .get_or_insert_with(|| {
                    let TreeKey::Fin(k) = &tkey else {
                        unreachable!()
                    };
                    g.alloc(NmNode::leaf(TreeKey::Fin(k.clone()), Some(value.clone())))
                })
                .ptr();
            // Build the replacement internal node: its key is the larger of
            // the two leaf keys; smaller key goes left.
            let (left, right, ikey) = if tkey < leaf_ref.key {
                (leaf_ptr, Ptr::from(sr.leaf), leaf_ref.key.clone())
            } else {
                (Ptr::from(sr.leaf), leaf_ptr, tkey.clone())
            };
            let internal = g.alloc(NmNode {
                key: ikey,
                value: None,
                left: Atomic::new(left),
                right: Atomic::new(right),
            });
            let edge = Self::child_edge(sr.parent.deref(), &tkey);
            match edge.compare_exchange_owned(sr.leaf, internal) {
                Ok(_) => {
                    // The new leaf is now reachable as a child of the
                    // published internal node: ownership moved into the tree.
                    new_leaf.take().map(smr_core::typed::Owned::into_ptr);
                    return true;
                }
                Err((seen, unpublished)) => {
                    // The internal node was never published; the leaf is
                    // reused on the next attempt.
                    g.discard(unpublished);
                    if seen.untagged() == sr.leaf && seen.tag() != 0 {
                        // Our target leaf is under deletion: help finish.
                        self.cleanup(&g, &tkey, &sr);
                    }
                }
            }
        }
    }

    /// Removes `key`, returning its value. Must be called between `enter`
    /// and `leave`.
    pub fn remove<'a>(&'a self, h: &mut S::Handle<'a>, key: &K) -> Option<V> {
        let g = Guard::over(h);
        let tkey = TreeKey::Fin(key.clone());
        // Injection mode: flag the edge to the target leaf.
        let (value, mut target) = loop {
            let sr = self.seek(&g, &tkey);
            let leaf_ref = sr.leaf.deref();
            if leaf_ref.key != tkey {
                return None;
            }
            let edge = Self::child_edge(sr.parent.deref(), &tkey);
            match edge.compare_exchange(sr.leaf, sr.leaf.with_tag(FLAG)) {
                Ok(()) => {
                    // We own the logical deletion (linearization point).
                    let value = leaf_ref.value.clone().expect("leaves carry values");
                    if self.cleanup(&g, &tkey, &sr) {
                        return Some(value);
                    }
                    break (value, Ptr::from(sr.leaf));
                }
                Err(seen) => {
                    if seen.untagged() == sr.leaf && seen.tag() != 0 {
                        // Another operation marked this leaf: help, retry.
                        self.cleanup(&g, &tkey, &sr);
                    }
                }
            }
        };
        // Cleanup mode: keep seeking until our flagged leaf is gone.
        loop {
            let sr = self.seek(&g, &tkey);
            if target != sr.leaf {
                // Someone else performed the unlink for us.
                return Some(value);
            }
            if self.cleanup(&g, &tkey, &sr) {
                return Some(value);
            }
            // Re-read the (possibly relocated) flagged leaf each round.
            target = Ptr::from(sr.leaf);
        }
    }
}

impl<K, V, S> Drop for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<NmNode<K, V>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        let g = Guard::over(&mut handle);
        let mut stack = vec![self.root.fetch().untagged()];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            // SAFETY: `Drop` has `&mut self` — no concurrent access; the
            // whole tree is exclusively ours to walk and free.
            let node_ref = unsafe { node.deref() };
            stack.push(node_ref.left.fetch().untagged());
            stack.push(node_ref.right.fetch().untagged());
            // SAFETY: same exclusive-teardown argument.
            unsafe { g.dealloc(node) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
    use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
    use smr_core::SmrHandle;
    use std::sync::atomic::Ordering;

    fn cfg() -> SmrConfig {
        SmrConfig {
            slots: 4,
            batch_min: 8,
            era_freq: 8,
            scan_threshold: 16,
            max_protect: 8,
            max_threads: 64,
            ..SmrConfig::default()
        }
    }

    fn smoke<S: Smr<NmNode<u64, u64>>>() {
        let tree: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::with_config(cfg());
        let mut h = tree.smr_handle();
        h.enter();
        assert_eq!(tree.get(&mut h, &5), None);
        assert!(tree.insert(&mut h, 5, 50));
        assert!(tree.insert(&mut h, 3, 30));
        assert!(tree.insert(&mut h, 8, 80));
        assert!(!tree.insert(&mut h, 5, 99));
        assert_eq!(tree.get(&mut h, &5), Some(50));
        assert_eq!(tree.get(&mut h, &3), Some(30));
        assert_eq!(tree.get(&mut h, &8), Some(80));
        assert_eq!(tree.remove(&mut h, &5), Some(50));
        assert_eq!(tree.remove(&mut h, &5), None);
        assert_eq!(tree.get(&mut h, &5), None);
        assert_eq!(tree.get(&mut h, &3), Some(30));
        assert_eq!(tree.get(&mut h, &8), Some(80));
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
    fn delete_down_to_empty_and_reinsert() {
        let tree: NatarajanMittalTree<u64, u64, Ebr<_>> = NatarajanMittalTree::with_config(cfg());
        let mut h = tree.smr_handle();
        for round in 0..3 {
            h.enter();
            for i in 0..50 {
                assert!(
                    tree.insert(&mut h, i, i + round),
                    "round {round} insert {i}"
                );
            }
            for i in 0..50 {
                assert_eq!(tree.remove(&mut h, &i), Some(i + round));
            }
            for i in 0..50 {
                assert_eq!(tree.get(&mut h, &i), None);
            }
            h.leave();
        }
    }

    fn concurrent_churn<S: Smr<NmNode<u64, u64>>>() {
        let tree: &NatarajanMittalTree<u64, u64, S> = &NatarajanMittalTree::with_config(cfg());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = tree.smr_handle();
                    let mut x = (t + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..2_500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 128;
                        h.enter();
                        match x % 3 {
                            0 => {
                                tree.insert(&mut h, key, key * 7);
                            }
                            1 => {
                                tree.remove(&mut h, &key);
                            }
                            _ => {
                                if let Some(v) = tree.get(&mut h, &key) {
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
    fn tree_key_ordering() {
        assert!(TreeKey::Fin(u64::MAX) < TreeKey::Inf1);
        assert!(TreeKey::Inf1 < TreeKey::<u64>::Inf2);
        assert!(TreeKey::Fin(1) < TreeKey::Fin(2));
    }

    #[test]
    fn concurrent_same_key_deletes() {
        // Exactly one of many racing removers gets the value.
        let tree: &NatarajanMittalTree<u64, u64, Hyaline<_>> =
            &NatarajanMittalTree::with_config(cfg());
        for _ in 0..100 {
            {
                let mut h = tree.smr_handle();
                h.enter();
                assert!(tree.insert(&mut h, 42, 4200));
                h.leave();
            }
            let winners = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let mut h = tree.smr_handle();
                        h.enter();
                        if tree.remove(&mut h, &42).is_some() {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                        h.leave();
                    });
                }
            });
            assert_eq!(winners.load(Ordering::Relaxed), 1);
        }
    }
}
