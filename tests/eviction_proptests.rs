//! Property tests for the sharded verdict cache's eviction machinery:
//!
//! * an entry a concurrently-served request holds (pins) is never dropped
//!   by an LRU/TTL sweep, no matter the op sequence or policy;
//! * folded hit/miss statistics stay deterministic after compaction — the
//!   fold is a pure function of the op sequence, independent of sweep or
//!   compaction timing.

use giallar::core::cache::CachedVerdict;
use giallar::core::shard::{EvictionPolicy, ShardedVerdictCache};
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
    (0..3usize, 0..4u64).prop_map(|(max, ttl)| EvictionPolicy {
        // max 0 → unbounded; 1..2 → tight caps that force LRU pressure.
        max_entries: (max > 0).then_some(max * 4),
        ttl: (ttl > 0).then_some(ttl),
    })
}

fn verdict() -> CachedVerdict {
    CachedVerdict::from_verdict(&Verdict::Proved)
}

/// Replays a workload, tracking which fingerprints are currently pinned
/// (i.e. held by a concurrently-served request) and returning the fold.
fn replay(cache: &ShardedVerdictCache, ops: &[CacheOp], backends: &[&str]) -> (u64, u64) {
    let mut pins: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            CacheOp::Record(fp) => {
                cache.record(Fingerprint(*fp), verdict(), backends[i % backends.len()])
            }
            CacheOp::Lookup(fp) => {
                cache.lookup(Fingerprint(*fp));
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
    let stats = cache.fold_stats();
    (stats.total.hits, stats.total.misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LRU/TTL sweeps and compaction never drop an entry a request holds,
    /// across arbitrary op sequences, policies, and shard counts.
    #[test]
    fn pinned_entries_survive_every_sweep(
        ops in prop::collection::vec(op_strategy(), 1..120),
        policy in policy_strategy(),
        shards in 1..9usize,
    ) {
        let cache = ShardedVerdictCache::new(shards, policy);
        // Half the records land on a backend that compaction retires, so
        // compaction has real work exactly when pins must protect entries.
        replay(&cache, &ops, &["live", "retired"]);
    }

    /// The folded hit/miss statistics are a pure function of the op
    /// sequence: two caches replaying the same workload — including
    /// compactions — fold identically, and the totals always equal the
    /// per-shard sums.
    #[test]
    fn stats_fold_deterministically_after_compaction(
        ops in prop::collection::vec(op_strategy(), 1..120),
        policy in policy_strategy(),
        shards in 1..9usize,
    ) {
        let first = ShardedVerdictCache::new(shards, policy);
        let second = ShardedVerdictCache::new(shards, policy);
        let fold_a = replay(&first, &ops, &["live", "retired"]);
        let fold_b = replay(&second, &ops, &["live", "retired"]);
        prop_assert_eq!(fold_a, fold_b, "same workload, different fold");

        for cache in [&first, &second] {
            let stats = cache.fold_stats();
            let hits: u64 = stats.per_shard.iter().map(|s| s.hits).sum();
            let misses: u64 = stats.per_shard.iter().map(|s| s.misses).sum();
            let compacted: u64 = stats.per_shard.iter().map(|s| s.compacted).sum();
            prop_assert_eq!(stats.total.hits, hits);
            prop_assert_eq!(stats.total.misses, misses);
            prop_assert_eq!(stats.total.compacted, compacted);
            prop_assert_eq!(cache.len(), stats.entries);
        }
    }
}

/// The threaded version of the pin property: four serving threads each pin
/// an entry, hold it across a simulated discharge, and unpin — while the
/// main thread hammers eviction sweeps under a policy tight enough to evict
/// everything unpinned.  No held entry may ever disappear.
#[test]
fn sweeps_race_against_serving_threads_without_dropping_held_entries() {
    let cache = ShardedVerdictCache::new(4, EvictionPolicy { max_entries: Some(2), ttl: Some(1) });
    let threads = 4u64;
    let rounds = 200u64;
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let cache = &cache;
            scope.spawn(move || {
                for round in 0..rounds {
                    let fp = Fingerprint(worker * rounds + round);
                    // record → pin is not atomic; a sweep may expire the
                    // entry in between, so retry until the pin lands.
                    // Once it does, the entry must survive every sweep.
                    cache.record(fp, verdict(), "live");
                    while cache.pin(fp).is_none() {
                        cache.record(fp, verdict(), "live");
                    }
                    // Simulated discharge window: the entry must survive
                    // every sweep the main thread runs in the meantime.
                    for _ in 0..8 {
                        assert!(
                            cache.peek(fp).is_some(),
                            "sweep dropped a pinned entry mid-request"
                        );
                        std::hint::spin_loop();
                    }
                    cache.unpin(fp);
                }
            });
        }
        let cache = &cache;
        scope.spawn(move || {
            for _ in 0..(threads * rounds) {
                cache.tick();
                cache.evict();
            }
        });
    });
    // With every pin released, one final sweep enforces the policy.
    cache.tick();
    cache.tick();
    cache.evict();
    assert!(cache.len() <= 8, "policy not enforced once pins are gone");
}
