//! Differential + property suite for cache-through search: cached
//! parallel search must return **bit-identical winners** to the uncached
//! sequential engine — across pool shapes, shard counts, warm and cold
//! caches, epoch bumps, key collapsing, and under capacities tiny enough
//! to force heavy eviction. CI runs this file with `SELC_THREADS=2
//! SELC_CACHE_CAP=8`, so the `from_env` rows exercise real thread
//! interleaving against a really-evicting bounded cache.

use proptest::prelude::*;
use selc::loss;
use selc_cache::ShardedCache;
use selc_engine::{
    minimize, search_programs, CachedEval, Engine, FnEval, ParallelEngine, SelEval,
    SequentialEngine,
};

/// The workspace's sequential-argmin oracle: first strict minimum.
fn first_min(losses: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (i, l) in losses.iter().enumerate().skip(1) {
        if *l < losses[best] {
            best = i;
        }
    }
    (best, losses[best])
}

fn engines() -> Vec<ParallelEngine> {
    vec![
        ParallelEngine { threads: 1, chunk: 0, prune: true },
        ParallelEngine { threads: 2, chunk: 1, prune: false },
        ParallelEngine { threads: 4, chunk: 1, prune: true },
        ParallelEngine { threads: 8, chunk: 3, prune: true },
    ]
}

/// Every cache shape a search might run against: unbounded across shard
/// counts, capacities small enough to evict almost everything, and the
/// environment-configured cache (bounded to 8 entries in CI).
fn cache_shapes() -> Vec<ShardedCache<usize, f64>> {
    vec![
        ShardedCache::unbounded(1),
        ShardedCache::unbounded(3),
        ShardedCache::unbounded(16),
        ShardedCache::clock_lru(1, 2),
        ShardedCache::clock_lru(4, 8),
        ShardedCache::from_env(),
    ]
}

proptest! {
    #[test]
    fn cached_search_equals_uncached_cold_and_warm(
        losses in proptest::collection::vec(0.0_f64..100.0, 1..40)
    ) {
        let oracle = first_min(&losses);
        let seq = minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        prop_assert_eq!((seq.index, seq.loss), oracle);
        for cache in cache_shapes() {
            // Two rounds against the same handle: cold fills, warm hits
            // (or re-fills, under eviction) — the winner must not move.
            for round in 0..2 {
                for eng in engines() {
                    let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| i);
                    let out = eng.search(losses.len(), &eval).unwrap();
                    prop_assert_eq!(
                        (out.index, out.loss), oracle,
                        "round {} engine {} shards {}", round, eng.name(), cache.shard_count()
                    );
                    prop_assert_eq!(
                        out.stats.evaluated + out.stats.pruned,
                        losses.len() as u64
                    );
                }
            }
        }
    }

    #[test]
    fn ties_break_identically_under_caching(
        // Quantised losses: few distinct values over many candidates
        // force plenty of exact ties.
        raw in proptest::collection::vec(0_u32..4, 2..48)
    ) {
        let losses: Vec<f64> = raw.iter().map(|r| f64::from(*r)).collect();
        let oracle = first_min(&losses);
        for cache in cache_shapes() {
            for eng in engines() {
                let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| i);
                let out = eng.search(losses.len(), &eval).unwrap();
                prop_assert_eq!((out.index, out.loss), oracle, "engine {}", eng.name());
            }
        }
    }

    #[test]
    fn collapsing_keys_preserve_the_winner(
        raw in proptest::collection::vec(0_u32..6, 1..40)
    ) {
        // Key candidates by their *loss class*, not their index: indices
        // sharing a class share one cache entry, so most lookups after
        // the first per class are hits — legal because equal classes
        // mean bit-identical losses, and the winner must still be the
        // earliest index of the smallest class.
        let losses: Vec<f64> = raw.iter().map(|r| f64::from(*r)).collect();
        let oracle = first_min(&losses);
        let cache: ShardedCache<u32, f64> = ShardedCache::unbounded(4);
        for eng in engines() {
            let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| raw[i]);
            let out = eng.search(losses.len(), &eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "engine {}", eng.name());
        }
        let distinct = {
            let mut v = raw.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        prop_assert_eq!(cache.len(), distinct, "one entry per loss class");
    }

    #[test]
    fn cached_program_replay_matches_plain_replay(
        losses in proptest::collection::vec(0.0_f64..50.0, 1..24)
    ) {
        let mk_factory = |cs: Vec<f64>| move |i: usize| loss(cs[i]).map(move |_| i * i);
        let (plain, plain_val) = search_programs(
            &SequentialEngine::exhaustive(), losses.len(), mk_factory(losses.clone()),
        ).unwrap();
        let cache: ShardedCache<usize, f64> = ShardedCache::from_env();
        for eng in engines() {
            let inner = SelEval::new(mk_factory(losses.clone()));
            let out = eng.search(losses.len(), &CachedEval::new(&inner, &cache, |i| i)).unwrap();
            let (_, val) = inner.rebuild(out.index).run().unwrap();
            prop_assert_eq!(out.index, plain.index);
            prop_assert_eq!(out.loss, plain.loss);
            prop_assert_eq!(val, plain_val);
        }
    }

    #[test]
    fn epoch_bumps_never_change_winners(
        losses in proptest::collection::vec(0.0_f64..10.0, 1..30)
    ) {
        let oracle = first_min(&losses);
        let cache: ShardedCache<usize, f64> = ShardedCache::unbounded(2);
        for (round, eng) in engines().into_iter().enumerate() {
            if round % 2 == 1 {
                cache.advance_epoch();
            }
            let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| i);
            let out = eng.search(losses.len(), &eval).unwrap();
            prop_assert_eq!((out.index, out.loss), oracle, "round {}", round);
        }
    }
}

#[test]
fn warm_cache_repeat_runs_are_reproducible_under_churn() {
    // Many candidates, tiny chunks, a shared warm cache: repeated
    // parallel searches must neither wobble nor miss.
    let losses: Vec<f64> = (0..200).map(|i| f64::from((i * 7919 % 101) as u16)).collect();
    let cache: ShardedCache<usize, f64> = ShardedCache::unbounded(8);
    let eng = ParallelEngine { threads: 8, chunk: 1, prune: true };
    let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| i);
    let first = eng.search(losses.len(), &eval).unwrap();
    for _ in 0..10 {
        let eval = CachedEval::new(FnEval(|i: usize| losses[i]), &cache, |i| i);
        let again = eng.search(losses.len(), &eval).unwrap();
        assert_eq!((again.index, again.loss), (first.index, first.loss));
        assert_eq!(again.stats.cache.misses, 0, "warm unbounded cache never misses");
    }
    let oracle = minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
    assert_eq!((first.index, first.loss), (oracle.index, oracle.loss));
}
