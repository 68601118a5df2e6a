//! Payload drop balance: every value handed to a structure is dropped
//! exactly once, across all schemes and structures.
//!
//! Values are [`smr_testkit::Tracked`] payloads tied to a [`DropRegistry`].
//! Node reclamation drops the payload inside the node; `get`/`remove` clones
//! mint fresh tracked instances, so after the map is torn down the registry
//! must be exactly quiescent: a missing drop is a leak, a second drop of the
//! same instance panics at the drop site.

use hyaline::{CrystallineL, CrystallineW, Hyaline, Hyaline1, Hyaline1S, HyalineS};
use lockfree_ds::{HarrisMichaelList, MichaelHashMap, MsQueue, TreiberStack};
use smr_baselines::{Ebr, He, Hp, Ibr, Leaky};
use smr_core::{Smr, SmrConfig, SmrHandle};
use smr_testkit::{DropRegistry, Tracked};
use std::sync::Barrier;

fn cfg() -> SmrConfig {
    SmrConfig {
        slots: 4,
        batch_min: 8,
        era_freq: 8,
        scan_threshold: 16,
        max_threads: 32,
        ..SmrConfig::default()
    }
}

fn churn_map<S: Smr<lockfree_ds::ListNode<u64, Tracked<u64>>>>() {
    let registry = DropRegistry::new();
    {
        let map: MichaelHashMap<u64, Tracked<u64>, S> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        let reg = &registry;
        let map = &map;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = map.smr_handle();
                    for i in 0..2_000u64 {
                        let key = (t * 7 + i) % 32;
                        h.enter();
                        match i % 3 {
                            0 => {
                                map.insert(&mut h, key, reg.track(key));
                            }
                            1 => {
                                if let Some(v) = map.get(&mut h, &key) {
                                    assert_eq!(*v, key, "value under wrong key");
                                }
                            }
                            _ => {
                                map.remove(&mut h, &key);
                            }
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
    } // map dropped: every remaining node's payload must drop here
    registry.assert_quiescent();
}

/// The era schemes cut a batch at the access era of a reader parked inside
/// its birth range: the reader here parks after the map is filled, so the
/// batches that retire fill nodes mix them with younger nodes and are cut,
/// and their parts are freed at different times. Every payload still drops
/// once.
fn churn_map_past_parked_reader<S: Smr<lockfree_ds::ListNode<u64, Tracked<u64>>>>() {
    const FILL: u64 = 32;
    let registry = DropRegistry::new();
    {
        let map: MichaelHashMap<u64, Tracked<u64>, S> =
            MichaelHashMap::with_config_and_buckets(cfg(), 8);
        let mut writer = map.smr_handle();
        for key in 0..FILL {
            writer.enter();
            map.insert(&mut writer, key, registry.track(key));
            writer.leave();
        }
        let mut reader = map.smr_handle();
        reader.enter();
        assert!(map.get(&mut reader, &0).is_some());
        // Insert a key, then remove it: a fill key's insert fails, so its
        // remove retires the fill node.
        for i in 0..4 * FILL {
            let key = (i * 7) % (2 * FILL);
            writer.enter();
            map.insert(&mut writer, key, registry.track(key));
            writer.leave();
            writer.enter();
            map.remove(&mut writer, &key);
            writer.leave();
        }
        writer.flush();
        reader.leave();
    }
    registry.assert_quiescent();
}

fn churn_stack<S: Smr<lockfree_ds::StackNode<Tracked<u64>>>>() {
    let registry = DropRegistry::new();
    {
        let stack: TreiberStack<Tracked<u64>, S> = TreiberStack::with_config(cfg());
        let reg = &registry;
        let stack = &stack;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = stack.smr_handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        if i % 2 == 0 {
                            stack.push(&mut h, reg.track(t * 10_000 + i));
                        } else {
                            stack.pop(&mut h);
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
    }
    registry.assert_quiescent();
}

fn churn_queue<S: Smr<lockfree_ds::QueueNode<Tracked<u64>>>>() {
    let registry = DropRegistry::new();
    {
        let queue: MsQueue<Tracked<u64>, S> = MsQueue::with_config(cfg());
        let reg = &registry;
        let queue = &queue;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = queue.smr_handle();
                    for i in 0..2_000u64 {
                        h.enter();
                        if i % 2 == 0 {
                            queue.enqueue(&mut h, reg.track(t * 10_000 + i));
                        } else {
                            queue.dequeue(&mut h);
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
    }
    registry.assert_quiescent();
}

fn churn_list<S: Smr<lockfree_ds::ListNode<u64, Tracked<u64>>>>() {
    let registry = DropRegistry::new();
    {
        let list: HarrisMichaelList<u64, Tracked<u64>, S> =
            HarrisMichaelList::with_config(cfg());
        let reg = &registry;
        let list = &list;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut h = list.smr_handle();
                    for i in 0..1_200u64 {
                        let key = (t * 3 + i) % 16;
                        h.enter();
                        if i % 2 == 0 {
                            list.insert(&mut h, key, reg.track(key));
                        } else {
                            list.remove(&mut h, &key);
                        }
                        h.leave();
                    }
                    h.flush();
                });
            }
        });
    }
    registry.assert_quiescent();
}

#[test]
fn map_drop_balance_hyaline() {
    churn_map::<Hyaline<_>>();
}

#[test]
fn map_drop_balance_hyaline1() {
    churn_map::<Hyaline1<_>>();
}

#[test]
fn map_drop_balance_hyaline_s() {
    churn_map::<HyalineS<_>>();
}

#[test]
fn map_drop_balance_hyaline_1s() {
    churn_map::<Hyaline1S<_>>();
}

#[test]
fn map_drop_balance_ebr() {
    churn_map::<Ebr<_>>();
}

#[test]
fn map_drop_balance_hp() {
    churn_map::<Hp<_>>();
}

#[test]
fn map_drop_balance_he() {
    churn_map::<He<_>>();
}

#[test]
fn map_drop_balance_ibr() {
    churn_map::<Ibr<_>>();
}

#[test]
fn map_drop_balance_cut_hyaline_s() {
    churn_map_past_parked_reader::<HyalineS<_>>();
}

#[test]
fn map_drop_balance_cut_hyaline_1s() {
    churn_map_past_parked_reader::<Hyaline1S<_>>();
}

#[test]
fn map_drop_balance_cut_crystalline_l() {
    churn_map_past_parked_reader::<CrystallineL<_>>();
}

#[test]
fn map_drop_balance_cut_crystalline_w() {
    churn_map_past_parked_reader::<CrystallineW<_>>();
}

#[test]
fn stack_drop_balance_hyaline() {
    churn_stack::<Hyaline<_>>();
}

#[test]
fn stack_drop_balance_hyaline_1s() {
    churn_stack::<Hyaline1S<_>>();
}

#[test]
fn stack_drop_balance_hp() {
    churn_stack::<Hp<_>>();
}

#[test]
fn queue_drop_balance_hyaline1() {
    churn_queue::<Hyaline1<_>>();
}

#[test]
fn queue_drop_balance_hyaline_s() {
    churn_queue::<HyalineS<_>>();
}

#[test]
fn queue_drop_balance_ebr() {
    churn_queue::<Ebr<_>>();
}

#[test]
fn list_drop_balance_hyaline() {
    churn_list::<Hyaline<_>>();
}

#[test]
fn list_drop_balance_ibr() {
    churn_list::<Ibr<_>>();
}

/// Leaky never reclaims, so the registry must report exactly the leaked
/// payloads still live after teardown — the accounting itself is validated
/// against a scheme with known-leaking semantics.
#[test]
fn leaky_leaks_are_visible_to_the_registry() {
    let registry = DropRegistry::new();
    let removed;
    {
        let map: MichaelHashMap<u64, Tracked<u64>, Leaky<_>> =
            MichaelHashMap::with_config_and_buckets(cfg(), 4);
        let mut h = map.smr_handle();
        for key in 0..64u64 {
            h.enter();
            map.insert(&mut h, key, registry.track(key));
            h.leave();
        }
        let mut gone = 0;
        for key in 0..32u64 {
            h.enter();
            if map.remove(&mut h, &key).is_some() {
                gone += 1;
            }
            h.leave();
        }
        removed = gone;
        drop(h);
    }
    // The 32 removed nodes were retired but never freed (Leaky), and the 32
    // still-linked nodes are dropped by the map's Drop. The `remove` clones
    // handed back to us were dropped on the spot.
    assert_eq!(removed, 32);
    assert!(
        registry.live() >= removed,
        "Leaky must leak at least the removed nodes' payloads: live {} < {}",
        registry.live(),
        removed
    );
}

/// A full batch retired on one thread is freed on another: the writer
/// retires exactly one batch while a reader thread sits inside an
/// operation, so the reader's `leave` is the batch's last decrement and
/// frees it. The block naming the batch's nodes crosses threads with it;
/// every payload drops exactly once, on the reader's thread.
fn full_batch_freed_on_another_thread<S: Smr<Tracked<u64>>>() {
    let registry = DropRegistry::new();
    let batch = cfg().batch_min as u64;
    {
        // One shared slot (or one owned slot each): the batch reaches the
        // reader whatever the variant.
        let domain = S::with_config(SmrConfig { slots: 1, ..cfg() });
        let (entered, retired) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut reader = domain.handle();
                reader.enter();
                entered.wait();
                retired.wait();
                assert_eq!(
                    registry.live(),
                    batch as i64,
                    "the open reader pins the batch"
                );
                reader.leave();
                assert_eq!(registry.live(), 0, "the reader's leave freed the batch");
            });
            let mut writer = domain.handle();
            entered.wait();
            writer.enter();
            for v in 0..batch {
                let node = writer.alloc(registry.track(v));
                // SAFETY: never published; the writer owns it outright.
                unsafe { writer.retire(node) };
            }
            writer.leave();
            retired.wait();
        });
    }
    registry.assert_quiescent();
    assert_eq!(registry.created(), batch);
}

#[test]
fn full_batch_freed_on_another_thread_hyaline() {
    full_batch_freed_on_another_thread::<Hyaline<_>>();
}

#[test]
fn full_batch_freed_on_another_thread_hyaline1() {
    full_batch_freed_on_another_thread::<Hyaline1<_>>();
}
