//! Cache-through evaluation: a shared transposition table threaded
//! through candidate search, the way [`SharedBound`] threads the
//! branch-and-bound bound.
//!
//! [`CachedEval`] wraps any [`CandidateEval`] with a
//! [`selc_cache::ShardedCache`] keyed by a caller-supplied candidate
//! key: a hit answers the candidate without evaluating it, a miss
//! evaluates and stores. Because the underlying evaluation is pure (the
//! replay argument of `DESIGN.md`), a cached loss is bit-identical to
//! the recomputed one, so the engine's deterministic `(loss, index)`
//! reduction — and therefore the winner — is unchanged by caching,
//! eviction, shard count, or which worker happened to fill an entry.
//! What changes is *work*: candidates another worker (or an earlier
//! search reusing the same handle) already evaluated stop paying for
//! re-evaluation.
//!
//! Two soundness notes:
//!
//! * the key function must be injective up to evaluation: candidates
//!   mapping to one key must have bit-identical losses (canonicalised
//!   game states, quantised rates, plain indices — all fine);
//! * pruned candidates (`eval` returning `None`) are **not** cached:
//!   `None` is "dominated right now", a fact about the current shared
//!   bound, not a loss.

use crate::bound::SharedBound;
use crate::engine::CandidateEval;
use selc::OrderedLoss;
use selc_cache::{CacheStats, ShardedCache};
use std::hash::Hash;

/// A [`CandidateEval`] adapter that consults a shared cache before
/// delegating to the inner evaluator. Stats reported through
/// [`CandidateEval::cache_stats`] are the *delta* against the handle's
/// counters at wrap time (plus whatever the inner evaluator reports), so
/// a long-lived cache reused across many searches attributes each
/// search only its own traffic.
pub struct CachedEval<'c, K, L, E, F> {
    inner: E,
    cache: &'c ShardedCache<K, L>,
    key: F,
    base: CacheStats,
}

impl<'c, K, L, E, F> CachedEval<'c, K, L, E, F>
where
    K: Eq + Hash + Send + 'static,
    L: OrderedLoss,
{
    /// Wraps `inner`, keying candidate `i` by `key(i)` in `cache`.
    pub fn new(inner: E, cache: &'c ShardedCache<K, L>, key: F) -> CachedEval<'c, K, L, E, F> {
        let base = cache.stats();
        CachedEval { inner, cache, key, base }
    }
}

impl<K, L, E, F> CandidateEval<L> for CachedEval<'_, K, L, E, F>
where
    K: Eq + Hash + Send + 'static,
    L: OrderedLoss,
    E: CandidateEval<L>,
    F: Fn(usize) -> K + Send + Sync,
{
    fn eval(&self, index: usize, bound: &SharedBound<L>) -> Option<L> {
        let k = (self.key)(index);
        if let Some(loss) = self.cache.lookup(&k) {
            return Some(loss);
        }
        let loss = self.inner.eval(index, bound)?;
        self.cache.store(k, loss.clone());
        Some(loss)
    }

    fn lower_bound(&self, index: usize) -> Option<L> {
        self.inner.lower_bound(index)
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats().since(&self.base).merged(&self.inner.cache_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{minimize, Engine, FnEval, ParallelEngine, SequentialEngine};
    use crate::replay::SelEval;
    use selc::loss;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A counting evaluator: how many candidates were *really* computed.
    struct Counting<'a> {
        losses: Vec<f64>,
        computed: &'a AtomicU64,
    }

    impl CandidateEval<f64> for Counting<'_> {
        fn eval(&self, i: usize, _b: &SharedBound<f64>) -> Option<f64> {
            self.computed.fetch_add(1, Ordering::Relaxed);
            Some(self.losses[i])
        }
    }

    #[test]
    fn warm_cache_answers_a_repeat_search_without_evaluation() {
        let losses: Vec<f64> = (0..30).map(|i| f64::from((i * 13 % 7) as u32)).collect();
        let cache: ShardedCache<usize, f64> = ShardedCache::unbounded(4);
        let computed = AtomicU64::new(0);
        let eval = Counting { losses: losses.clone(), computed: &computed };

        let cold = CachedEval::new(&eval, &cache, |i| i);
        let first = SequentialEngine::exhaustive().search(losses.len(), &cold).unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 30);
        assert_eq!(first.stats.cache.misses, 30);
        assert_eq!(first.stats.cache.hits, 0);

        let warm = CachedEval::new(&eval, &cache, |i| i);
        let second = ParallelEngine::with_threads(3).search(losses.len(), &warm).unwrap();
        assert_eq!(computed.load(Ordering::Relaxed), 30, "no candidate recomputed");
        assert_eq!(second.stats.cache.hits, 30, "delta stats, not lifetime stats");
        assert_eq!((second.index, second.loss), (first.index, first.loss));

        let oracle =
            minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        assert_eq!((first.index, first.loss), (oracle.index, oracle.loss));
    }

    #[test]
    fn eviction_costs_recomputation_but_not_the_winner() {
        let losses: Vec<f64> = (0..40).map(|i| f64::from((i * 31 % 11) as u32) + 1.0).collect();
        let oracle =
            minimize(&SequentialEngine::exhaustive(), losses.len(), |i| losses[i]).unwrap();
        // Capacity 4 over 40 candidates: almost everything is evicted.
        let cache: ShardedCache<usize, f64> = ShardedCache::clock_lru(2, 4);
        for _ in 0..3 {
            let eval = FnEval(|i: usize| losses[i]);
            let cached = CachedEval::new(&eval, &cache, |i| i);
            let out = ParallelEngine { threads: 2, chunk: 1, prune: false }
                .search(losses.len(), &cached)
                .unwrap();
            assert_eq!((out.index, out.loss), (oracle.index, oracle.loss));
        }
        assert!(cache.stats().evictions > 0, "tiny cap must evict: {:?}", cache.stats());
    }

    #[test]
    fn cached_program_search_matches_uncached() {
        let cs: Vec<f64> = vec![4.0, 2.5, 7.0, 2.5, 9.0];
        let cs2 = cs.clone();
        let (plain, plain_val) =
            crate::replay::search_programs(&SequentialEngine::exhaustive(), 5, move |i: usize| {
                loss(cs[i]).map(move |_| i * 10)
            })
            .unwrap();
        let cache: ShardedCache<usize, f64> = ShardedCache::unbounded(3);
        for round in 0..2 {
            let cs = cs2.clone();
            let inner = SelEval::new(move |i: usize| loss(cs[i]).map(move |_| i * 10));
            let out = ParallelEngine::with_threads(4)
                .search(5, &CachedEval::new(&inner, &cache, |i| i))
                .unwrap();
            let (_, val) = inner.rebuild(out.index).run().unwrap();
            assert_eq!((out.index, out.loss, val), (plain.index, plain.loss, plain_val));
            if round == 1 {
                assert_eq!(out.stats.cache.hits, 5, "second search fully cached");
            }
        }
    }

    #[test]
    fn pruned_candidates_are_not_cached() {
        struct PruneAll;
        impl CandidateEval<f64> for PruneAll {
            fn eval(&self, i: usize, _b: &SharedBound<f64>) -> Option<f64> {
                if i == 0 {
                    Some(1.0)
                } else {
                    None
                }
            }
        }
        let cache: ShardedCache<usize, f64> = ShardedCache::unbounded(2);
        let cached = CachedEval::new(PruneAll, &cache, |i| i);
        let out = SequentialEngine::pruning().search(8, &cached).unwrap();
        assert_eq!(out.index, 0);
        assert_eq!(cache.len(), 1, "only the evaluated candidate is stored");
    }
}
