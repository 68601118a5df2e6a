//! The Harris–Michael sorted linked list.
//!
//! Harris's lock-free list \[20\] with Michael's hazard-pointer-compatible
//! amendment \[26\]: traversals never walk *past* a logically deleted
//! (marked) node — they unlink it first (retiring it timely) or restart.
//! This is the variant every scheme can run, robust ones included; the
//! Hyaline paper's §2.4 notes that robust schemes *require* this
//! modification while basic Hyaline could also run Harris's original.
//!
//! The traversal core is shared with [`MichaelHashMap`](crate::MichaelHashMap),
//! which is an array of these lists \[26\]. It is written against the
//! typed-pointer layer: `find` returns borrow-branded pointers (and a
//! `&Atomic` window link whose owning node is protected by the rotation
//! indices), so the only remaining `unsafe` is the retire argument at the
//! two unlink sites and the exclusive teardown in `drop_all`.

use smr_core::typed::{Atomic, Guard, Owned, Shared};
use smr_core::{Smr, SmrConfig, SmrHandle};

/// Mark bit on a node's `next` pointer: the node is logically deleted.
const MARK: usize = 1;

/// Protection indices used during traversal (rotated as the window slides).
const IDX_A: usize = 0;
const IDX_B: usize = 1;
const IDX_C: usize = 2;

/// A node of the sorted list: key, value and a markable next link.
pub struct ListNode<K, V> {
    key: K,
    value: V,
    next: Atomic<ListNode<K, V>>,
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ListNode<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListNode")
            .field("key", &self.key)
            .field("value", &self.value)
            .finish_non_exhaustive()
    }
}

impl<K, V> ListNode<K, V> {
    /// The node's key.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// The node's value.
    pub fn value(&self) -> &V {
        &self.value
    }
}

/// Result of the `find` traversal: the window `(prev, curr)` where `curr`
/// is the first node with `key >= target` (or null).
pub(crate) struct FindResult<'g, K, V> {
    pub(crate) found: bool,
    /// Link holding `curr` (either the list head or `prev`'s next field).
    /// The node owning the link is protected by one of the rotation
    /// indices for as long as the guard borrow `'g` lasts, which is what
    /// makes holding a real `&Atomic` into it sound.
    pub(crate) prev_link: &'g Atomic<ListNode<K, V>>,
    pub(crate) curr: Shared<'g, ListNode<K, V>>,
    /// `curr`'s successor at observation time (unmarked).
    pub(crate) next: Shared<'g, ListNode<K, V>>,
}

/// Michael's `find`: positions the window, unlinking (and retiring) marked
/// nodes on the way. The caller must be inside an operation (the guard's
/// bracketing contract).
pub(crate) fn find<'g, K, V, H>(
    g: &'g Guard<'_, ListNode<K, V>, H>,
    head: &'g Atomic<ListNode<K, V>>,
    key: &K,
) -> FindResult<'g, K, V>
where
    K: Ord,
    H: SmrHandle<ListNode<K, V>>,
{
    'retry: loop {
        let mut prev_link = head;
        // Rotating protection indices for (prev-node, curr, next).
        let mut idx = [IDX_A, IDX_B, IDX_C];
        let mut curr = prev_link.load(idx[1], g);
        loop {
            let Some(curr_ref) = curr.as_ref() else {
                return FindResult {
                    found: false,
                    prev_link,
                    curr,
                    next: Shared::null(),
                };
            };
            debug_assert_eq!(curr.tag(), 0, "links always store untagged pointers");
            let next = curr_ref.next.load(idx[2], g);
            // Validate the window: prev must still link to an unmarked curr
            // (Michael's re-check; also re-establishes that curr was not
            // unlinked while we protected next).
            if prev_link.fetch() != curr {
                continue 'retry;
            }
            if next.tag() == MARK {
                // curr is logically deleted: unlink it here and now.
                let next_clean = next.untagged();
                if prev_link.compare_exchange(curr, next_clean).is_err() {
                    continue 'retry;
                }
                // SAFETY: the successful CAS removed `curr` from the list
                // (it was already marked, so no insert can re-link it);
                // only the unlink winner retires.
                unsafe { g.defer_retire(curr) };
                // next (protected by idx[2]) becomes curr.
                idx.swap(1, 2);
                curr = next_clean;
            } else {
                if curr_ref.key >= *key {
                    return FindResult {
                        found: curr_ref.key == *key,
                        prev_link,
                        curr,
                        next,
                    };
                }
                // Slide the window: curr becomes prev, next becomes curr.
                prev_link = &curr_ref.next;
                idx.rotate_left(1);
                curr = next;
            }
        }
    }
}

/// Looks `key` up, cloning its value.
pub(crate) fn get<K, V, H>(
    g: &Guard<'_, ListNode<K, V>, H>,
    head: &Atomic<ListNode<K, V>>,
    key: &K,
) -> Option<V>
where
    K: Ord,
    V: Clone,
    H: SmrHandle<ListNode<K, V>>,
{
    let r = find(g, head, key);
    r.found.then(|| r.curr.deref().value.clone())
}

/// Inserts `key -> value`; fails if the key is present.
pub(crate) fn insert<K, V, H>(
    g: &Guard<'_, ListNode<K, V>, H>,
    head: &Atomic<ListNode<K, V>>,
    key: K,
    value: V,
) -> bool
where
    K: Ord,
    H: SmrHandle<ListNode<K, V>>,
{
    let r = find(g, head, &key);
    if r.found {
        return false;
    }
    let node = g.alloc(ListNode {
        key,
        value,
        next: Atomic::null(),
    });
    insert_retry(g, head, node, r)
}

/// Continues an insert once the node exists (borrow-friendly split: `key`
/// now lives inside the node).
fn insert_retry<'g, K, V, H>(
    g: &'g Guard<'_, ListNode<K, V>, H>,
    head: &'g Atomic<ListNode<K, V>>,
    node: Owned<ListNode<K, V>>,
    first: FindResult<'g, K, V>,
) -> bool
where
    K: Ord,
    H: SmrHandle<ListNode<K, V>>,
{
    let mut node = node;
    let mut r = first;
    loop {
        if r.found {
            g.discard(node);
            return false;
        }
        node.as_ref().next.store(r.curr);
        match r.prev_link.compare_exchange_owned(r.curr, node) {
            Ok(_) => return true,
            Err((_, back)) => {
                node = back;
                r = find(g, head, &node.as_ref().key);
            }
        }
    }
}

/// Removes `key`, returning its value.
pub(crate) fn remove<K, V, H>(
    g: &Guard<'_, ListNode<K, V>, H>,
    head: &Atomic<ListNode<K, V>>,
    key: &K,
) -> Option<V>
where
    K: Ord,
    V: Clone,
    H: SmrHandle<ListNode<K, V>>,
{
    loop {
        let r = find(g, head, key);
        if !r.found {
            return None;
        }
        let curr_ref = r.curr.deref();
        // Logically delete: mark curr's next. Only one remover wins.
        if curr_ref
            .next
            .compare_exchange(r.next, r.next.with_tag(MARK))
            .is_err()
        {
            // Either a racing remover marked it, or next changed: retry.
            continue;
        }
        let value = curr_ref.value.clone();
        // Physical unlink; on failure some find() will do it (and retire).
        if r.prev_link.compare_exchange(r.curr, r.next).is_ok() {
            // SAFETY: we marked curr and won the unlink CAS — curr is out
            // of the list, no insert can re-link a marked node, and the
            // mark guarantees exactly one retirer (us).
            unsafe { g.defer_retire(r.curr) };
        } else {
            let _ = find(g, head, key);
        }
        return Some(value);
    }
}

/// Frees all nodes of a list.
///
/// # Safety
///
/// The caller must have exclusive access to the list (e.g. `Drop` with
/// `&mut self`): nodes are walked and freed without protection.
pub(crate) unsafe fn drop_all<K, V, H>(
    g: &Guard<'_, ListNode<K, V>, H>,
    head: &Atomic<ListNode<K, V>>,
) where
    H: SmrHandle<ListNode<K, V>>,
{
    let mut curr = head.fetch();
    head.store(smr_core::typed::Ptr::null());
    while !curr.is_null() {
        // SAFETY: exclusive access per this function's contract.
        let next = unsafe { curr.deref() }.next.fetch();
        // SAFETY: same exclusive-teardown argument.
        unsafe { g.dealloc(curr) };
        curr = next.untagged();
    }
}

/// The Harris–Michael sorted linked list, generic over the reclamation
/// scheme (the paper's Figure 8a/9a benchmark structure).
///
/// # Example
///
/// ```
/// use hyaline::Hyaline;
/// use lockfree_ds::HarrisMichaelList;
/// use smr_core::SmrHandle;
///
/// let list: HarrisMichaelList<u64, u64, Hyaline<_>> = HarrisMichaelList::new();
/// let mut h = list.smr_handle();
/// h.enter();
/// assert!(list.insert(&mut h, 1, 10));
/// assert_eq!(list.get(&mut h, &1), Some(10));
/// assert_eq!(list.remove(&mut h, &1), Some(10));
/// h.leave();
/// ```
pub struct HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    domain: S,
    head: Atomic<ListNode<K, V>>,
}

impl<K, V, S> std::fmt::Debug for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarrisMichaelList")
            .field("scheme", &S::name())
            .finish_non_exhaustive()
    }
}

impl<K, V, S> Default for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S> HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    /// An empty list with a default-configured domain.
    pub fn new() -> Self {
        Self::with_config(SmrConfig::default())
    }

    /// An empty list whose reclamation domain uses `config`.
    pub fn with_config(config: SmrConfig) -> Self {
        Self::with_domain(S::with_config(config))
    }

    /// An empty list over a pre-built reclamation domain — the way to hand
    /// in a configured [`smr_core::Sharded`] adapter.
    pub fn with_domain(domain: S) -> Self {
        Self {
            domain,
            head: Atomic::null(),
        }
    }

    /// The underlying reclamation domain (statistics, etc.).
    pub fn domain(&self) -> &S {
        &self.domain
    }

    /// A per-thread SMR handle for operating on this list.
    pub fn smr_handle(&self) -> S::Handle<'_> {
        self.domain.handle()
    }

    /// Looks up `key`. Must be called between `enter` and `leave`.
    pub fn get<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> Option<V> {
        get(&Guard::over(handle), &self.head, key)
    }

    /// Whether `key` is present. Must be called between `enter` and `leave`.
    pub fn contains<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> bool {
        find(&Guard::over(handle), &self.head, key).found
    }

    /// Inserts `key -> value`; `false` if the key already exists. Must be
    /// called between `enter` and `leave`.
    pub fn insert<'a>(&'a self, handle: &mut S::Handle<'a>, key: K, value: V) -> bool {
        insert(&Guard::over(handle), &self.head, key, value)
    }

    /// Removes `key`, returning its value. Must be called between `enter`
    /// and `leave`.
    pub fn remove<'a>(&'a self, handle: &mut S::Handle<'a>, key: &K) -> Option<V> {
        remove(&Guard::over(handle), &self.head, key)
    }
}

impl<K, V, S> Drop for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    S: Smr<ListNode<K, V>>,
{
    fn drop(&mut self) {
        let mut handle = self.domain.handle();
        // SAFETY: `Drop` has `&mut self` — exclusive access to the list.
        unsafe { drop_all(&Guard::over(&mut handle), &self.head) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyaline::{Hyaline, Hyaline1, Hyaline1S, HyalineS};
    use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};

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

    fn smoke<S: Smr<ListNode<u64, u64>>>() {
        let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::with_config(cfg());
        let mut h = list.smr_handle();
        h.enter();
        assert!(list.insert(&mut h, 2, 20));
        assert!(list.insert(&mut h, 1, 10));
        assert!(list.insert(&mut h, 3, 30));
        assert!(!list.insert(&mut h, 2, 99), "duplicate rejected");
        assert_eq!(list.get(&mut h, &1), Some(10));
        assert_eq!(list.get(&mut h, &2), Some(20));
        assert_eq!(list.get(&mut h, &3), Some(30));
        assert_eq!(list.get(&mut h, &4), None);
        assert_eq!(list.remove(&mut h, &2), Some(20));
        assert_eq!(list.remove(&mut h, &2), None);
        assert_eq!(list.get(&mut h, &2), None);
        assert!(list.contains(&mut h, &1));
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

    fn concurrent_churn<S: Smr<ListNode<u64, u64>>>() {
        let list: &HarrisMichaelList<u64, u64, S> = &HarrisMichaelList::with_config(cfg());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = list.smr_handle();
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..2_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 64;
                        h.enter();
                        match x % 3 {
                            0 => {
                                list.insert(&mut h, key, key);
                            }
                            1 => {
                                list.remove(&mut h, &key);
                            }
                            _ => {
                                if let Some(v) = list.get(&mut h, &key) {
                                    assert_eq!(v, key, "value corrupted");
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
    fn churn_hyaline1() {
        concurrent_churn::<Hyaline1<_>>();
    }

    #[test]
    fn churn_hyaline_s() {
        concurrent_churn::<HyalineS<_>>();
    }

    #[test]
    fn churn_hyaline1_s() {
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
    fn drop_frees_remaining_nodes() {
        let list: HarrisMichaelList<u64, u64, Hyaline<_>> = HarrisMichaelList::with_config(cfg());
        {
            let mut h = list.smr_handle();
            h.enter();
            for i in 0..100 {
                list.insert(&mut h, i, i);
            }
            h.leave();
        }
        let stats_alloc = list.domain().stats().allocated();
        drop(list);
        // Can't inspect stats after drop; the assertion is that no leak
        // checker / payload counter fires in the integration suite. Here we
        // at least exercised the path.
        assert_eq!(stats_alloc, 100);
    }

    #[test]
    fn sorted_order_maintained() {
        let list: HarrisMichaelList<u64, u64, Ebr<_>> = HarrisMichaelList::with_config(cfg());
        let mut h = list.smr_handle();
        h.enter();
        for &k in &[5u64, 1, 9, 3, 7] {
            assert!(list.insert(&mut h, k, k * 10));
        }
        for &k in &[1u64, 3, 5, 7, 9] {
            assert_eq!(list.get(&mut h, &k), Some(k * 10));
        }
        h.leave();
    }
}
