//! Property tests for the verdict store's eviction machinery:
//!
//! * an entry a concurrently-served request holds (pins) is never dropped
//!   by an LRU/TTL sweep, no matter the op sequence or policy;
//! * with no pins held, a sweep leaves exactly the globally most recently
//!   used entries (ties broken by fingerprint), at most `max_entries`;
//! * the store counters stay deterministic after compaction — they are a
//!   pure function of the op sequence, independent of sweep or compaction
//!   timing.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use giallar::core::cache::{CachedVerdict, EvictionPolicy, VerdictCache};
use giallar::smt::solver::Verdict;
use giallar::smt::Fingerprint;
use proptest::prelude::*;

/// One cache operation of a generated workload.
#[derive(Debug, Clone)]
enum CacheOp {
    Record(u64),
    Lookup(u64),
    Pin(u64),
    Unpin(u64),
    Invalidate(u64),
    Tick,
    Evict,
    Compact,
}

fn op_strategy() -> impl Strategy<Value = CacheOp> {
    // A small fingerprint universe so operations collide often.
    let fp = 0..24u64;
    prop_oneof![
        fp.clone().prop_map(CacheOp::Record),
        fp.clone().prop_map(CacheOp::Lookup),
        fp.clone().prop_map(CacheOp::Pin),
        fp.clone().prop_map(CacheOp::Unpin),
        fp.prop_map(CacheOp::Invalidate),
        Just(CacheOp::Tick),
        Just(CacheOp::Evict),
        Just(CacheOp::Compact),
    ]
}

fn policy_strategy() -> impl Strategy<Value = EvictionPolicy> {
    (0..10usize, 0..4u64).prop_map(|(max, ttl)| EvictionPolicy {
        // max 0 → unbounded; 1..=9 → tight caps that force LRU pressure,
        // including caps no power of two divides.
        max_entries: (max > 0).then_some(max),
        ttl: (ttl > 0).then_some(ttl),
    })
}

fn verdict() -> CachedVerdict {
    CachedVerdict::from_verdict(&Verdict::Proved)
}

/// Replays a workload, tracking which fingerprints are currently pinned
/// (i.e. held by a concurrently-served request) and when each entry was
/// last used, and checks every sweep against that model.  Returns the live
/// pin counts.
fn replay(
    cache: &mut VerdictCache,
    ops: &[CacheOp],
    backends: &[&'static str],
) -> HashMap<u64, usize> {
    let mut pins: HashMap<u64, usize> = HashMap::new();
    let mut last_used: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            CacheOp::Record(fp) => {
                cache.record_by(Fingerprint(*fp), verdict(), backends[i % backends.len()]);
                last_used.insert(*fp, cache.now());
            }
            CacheOp::Lookup(fp) => {
                // The daemon's served lookup: peek, then count.
                let hit = cache.peek(Fingerprint(*fp)).is_some();
                cache.note_served(Fingerprint(*fp), hit);
                if hit {
                    last_used.insert(*fp, cache.now());
                }
            }
            CacheOp::Pin(fp) => {
                if cache.pin(Fingerprint(*fp)).is_some() {
                    *pins.entry(*fp).or_insert(0) += 1;
                }
            }
            CacheOp::Unpin(fp) => {
                if let Some(count) = pins.get_mut(fp) {
                    if *count > 0 {
                        *count -= 1;
                        cache.unpin(Fingerprint(*fp));
                    }
                }
            }
            CacheOp::Invalidate(fp) => {
                if cache.invalidate(Fingerprint(*fp)) {
                    // Invalidation is an explicit edit and drops the entry
                    // even while pinned; the pin bookkeeping dies with it.
                    pins.remove(fp);
                }
            }
            CacheOp::Tick => {
                cache.tick();
            }
            CacheOp::Evict => {
                let before: Vec<u64> = cache.entries().map(|(fp, _)| fp.0).collect();
                cache.evict();
                // The property: a sweep never drops a pinned entry.
                for (fp, count) in &pins {
                    if *count > 0 {
                        assert!(
                            cache.peek(Fingerprint(*fp)).is_some(),
                            "evict dropped pinned fingerprint {fp}"
                        );
                    }
                }
                if pins.values().all(|&count| count == 0) {
                    let after: BTreeSet<u64> = cache.entries().map(|(fp, _)| fp.0).collect();
                    let expected = survivors(&before, &last_used, cache.policy(), cache.now());
                    assert_eq!(after, expected, "the sweep kept the wrong entries");
                    if let Some(cap) = cache.policy().max_entries {
                        assert!(cache.len() <= cap, "{} entries over a cap of {cap}", cache.len());
                    }
                }
            }
            CacheOp::Compact => {
                cache.compact(&["retired"]);
                for (fp, count) in &pins {
                    if *count > 0 {
                        assert!(
                            cache.peek(Fingerprint(*fp)).is_some(),
                            "compact dropped pinned fingerprint {fp}"
                        );
                    }
                }
            }
        }
    }
    pins
}

/// What an unpinned sweep must keep of `present`: the entries within the
/// TTL, then of those the `max_entries` most recently used, ties broken by
/// the larger fingerprint.
fn survivors(
    present: &[u64],
    last_used: &BTreeMap<u64, u64>,
    policy: EvictionPolicy,
    now: u64,
) -> BTreeSet<u64> {
    let mut live: Vec<(u64, u64)> = present
        .iter()
        .map(|fp| (last_used[fp], *fp))
        .filter(|(used, _)| policy.ttl.is_none_or(|ttl| now - used <= ttl))
        .collect();
    live.sort_unstable();
    let keep = policy.max_entries.map_or(live.len(), |cap| cap.min(live.len()));
    live[live.len() - keep..].iter().map(|(_, fp)| *fp).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LRU/TTL sweeps and compaction never drop an entry a request holds,
    /// and unpinned sweeps keep exactly the most recently used entries,
    /// across arbitrary op sequences and policies.
    #[test]
    fn pinned_entries_survive_every_sweep(
        ops in prop::collection::vec(op_strategy(), 1..120),
        policy in policy_strategy(),
    ) {
        let mut cache = VerdictCache::new().with_policy(policy);
        // Half the records land on a backend that compaction retires, so
        // compaction has real work exactly when pins must protect entries.
        replay(&mut cache, &ops, &["live", "retired"]);
    }

    /// The store counters are a pure function of the op sequence: two
    /// stores replaying the same workload — including compactions — count
    /// identically, hold the same entries, and report the live pins.
    #[test]
    fn stats_fold_deterministically_after_compaction(
        ops in prop::collection::vec(op_strategy(), 1..120),
        policy in policy_strategy(),
    ) {
        let mut first = VerdictCache::new().with_policy(policy);
        let mut second = VerdictCache::new().with_policy(policy);
        let pins = replay(&mut first, &ops, &["live", "retired"]);
        replay(&mut second, &ops, &["live", "retired"]);
        prop_assert_eq!(first.stats(), second.stats(), "same workload, different counters");
        prop_assert_eq!(first.to_json(), second.to_json());
        let held = pins.values().filter(|&&count| count > 0).count();
        prop_assert_eq!(first.pinned(), held);
        prop_assert_eq!(second.pinned(), held);
    }
}

/// The threaded version of the pin property: four serving threads each pin
/// an entry, hold it across a simulated discharge, and unpin — while the
/// main thread hammers eviction sweeps under a policy tight enough to evict
/// everything unpinned.  The threads share one `Mutex<VerdictCache>`, as
/// the daemon's engine does.  No held entry may ever disappear.
#[test]
fn sweeps_race_against_serving_threads_without_dropping_held_entries() {
    let policy = EvictionPolicy { max_entries: Some(2), ttl: Some(1) };
    let cache = Mutex::new(VerdictCache::new().with_policy(policy));
    let lock = || cache.lock().expect("cache lock");
    let threads = 4u64;
    let rounds = 200u64;
    std::thread::scope(|scope| {
        for worker in 0..threads {
            scope.spawn(move || {
                for round in 0..rounds {
                    let fp = Fingerprint(worker * rounds + round);
                    {
                        let mut cache = lock();
                        cache.record_by(fp, verdict(), "live");
                        assert!(cache.pin(fp).is_some(), "a just-recorded entry pins");
                    }
                    // Simulated discharge window, lock released: the entry
                    // must survive every sweep the main thread runs in the
                    // meantime.
                    for _ in 0..8 {
                        assert!(
                            lock().peek(fp).is_some(),
                            "sweep dropped a pinned entry mid-request"
                        );
                        std::hint::spin_loop();
                    }
                    lock().unpin(fp);
                }
            });
        }
        scope.spawn(move || {
            for _ in 0..(threads * rounds) {
                let mut cache = lock();
                cache.tick();
                cache.evict();
            }
        });
    });
    // With every pin released, one final sweep enforces the policy.
    let mut cache = lock();
    assert_eq!(cache.pinned(), 0);
    cache.tick();
    cache.tick();
    cache.evict();
    assert!(cache.len() <= 2, "policy not enforced once pins are gone");
}
