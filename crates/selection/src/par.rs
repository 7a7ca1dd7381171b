//! Parallel evaluation adapters: `argmin` and product root splits over
//! a caller-chosen `selc-engine` engine.
//!
//! The theory core of this crate stays dependency-free; this module is
//! the bridge from its sequential combinators to the engine. There are
//! three entry points — [`par_argmin`], [`par_argmin_cached`] and
//! [`par_product_root`] — each taking the engine explicitly (pass
//! `SequentialEngine` for the sequential fallback, `ParallelEngine::auto()`
//! for the `SELC_THREADS` pool). Every adapter is a drop-in for the
//! sequential form and returns **the same candidate** (bit-identical,
//! earliest-tie) — the differential tests below and in `selc-engine`
//! hold them to that. An `argmax` is `par_argmin` over the negated loss.
//!
//! One caveat bounds that claim: the engine merges under the *total*
//! order `f64::total_cmp`, the sequential scans under partial `<`. The
//! two agree on every loss except `NaN` (which `<` never prefers and
//! `total_cmp` ranks above `+∞`) and `-0.0` vs `+0.0` (equal under `<`,
//! ordered under `total_cmp` — observable when an argmax negates a zero
//! loss). Keep losses NaN-free and the guarantee is exact.
//!
//! Selection functions themselves (`Rc` closures) cannot cross threads;
//! what parallelises is *evaluation*: candidates and loss functions are
//! `Send + Sync`, and for products each worker rebuilds the downstream
//! stages locally from a factory, exactly like the engine replays `Sel`
//! programs (see `selc::ReplaySpace`).

use crate::product::{big_product_dep, Stage};
use crate::sel::LossFn;
use selc_cache::ShardedCache;
use selc_engine::{minimize, CachedEval, Engine, FnEval};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

/// Parallel `argmin_by`: first candidate minimising `loss`, evaluated on
/// `engine`. Identical winner to [`crate::argmin_by`].
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn par_argmin<X, F, G>(engine: &G, candidates: Vec<X>, loss: F) -> X
where
    X: Clone + Send + Sync + 'static,
    F: Fn(&X) -> f64 + Send + Sync,
    G: Engine,
{
    assert!(!candidates.is_empty(), "argmin over an empty candidate list");
    let out = minimize(engine, candidates.len(), |i| loss(&candidates[i]))
        .expect("non-empty candidate list");
    candidates.into_iter().nth(out.index).expect("index in range")
}

/// [`par_argmin`] through a shared memo cache: candidate `x`'s loss is
/// cached under `key(x)` in `cache`, so workers — and repeated calls
/// reusing the same handle — skip loss evaluation for candidates already
/// scored. The winner is bit-identical to [`crate::argmin_by`] whatever
/// the cache contents, capacity, or shard count, because a cached loss
/// *is* the loss `loss` would recompute (the key function must be
/// injective up to evaluation: one key, one loss value). An argmax
/// caller negating its loss stores negated losses, so do not share one
/// handle between a min- and a max-search over the same keys.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn par_argmin_cached<X, K, KF, F, G>(
    engine: &G,
    cache: &ShardedCache<K, f64>,
    candidates: Vec<X>,
    key: KF,
    loss: F,
) -> X
where
    X: Clone + Send + Sync + 'static,
    K: Eq + Hash + Send + 'static,
    KF: Fn(&X) -> K + Send + Sync,
    F: Fn(&X) -> f64 + Send + Sync,
    G: Engine,
{
    assert!(!candidates.is_empty(), "argmin over an empty candidate list");
    let eval =
        CachedEval::new(FnEval(|i: usize| loss(&candidates[i])), cache, |i| key(&candidates[i]));
    let out = engine.search(candidates.len(), &eval).expect("non-empty candidate list");
    candidates.into_iter().nth(out.index).expect("index in range")
}

/// Root-parallel Escardó–Oliva product: splits the *first* stage's
/// candidates over `engine`; each worker completes the play by running
/// the remaining stages (rebuilt locally via `rest`) under the global
/// loss, and the loss-minimising completed play wins.
///
/// Equivalent to
/// `big_product_dep([argmin(root), rest()...]).select(loss)` — the first
/// stage of a dependent product evaluates each of its candidates against
/// the optimal completion anyway, which is exactly the map this function
/// distributes.
///
/// # Panics
///
/// Panics if `root` is empty.
pub fn par_product_root<X, R, F, G>(engine: &G, root: Vec<X>, rest: R, loss: F) -> Vec<X>
where
    X: Clone + Send + Sync + 'static,
    R: Fn() -> Vec<Stage<X, f64>> + Send + Sync,
    F: Fn(&[X]) -> f64 + Send + Sync + 'static,
    G: Engine,
{
    assert!(!root.is_empty(), "product over an empty root candidate list");
    let loss = Arc::new(loss);
    let complete = |x: X| -> Vec<X> {
        // Fix the root move as a constant stage, rebuild the remaining
        // stages on this thread, and let backward induction finish.
        let fixed: Stage<X, f64> = Rc::new(move |_: &[X]| crate::sel::Sel::pure(x.clone()));
        let mut stages = vec![fixed];
        stages.extend(rest());
        let loss = Arc::clone(&loss);
        let g: LossFn<Vec<X>, f64> = Rc::new(move |p: &Vec<X>| loss(p));
        big_product_dep(stages).select_rc(g)
    };
    let out = minimize(engine, root.len(), |i| {
        let play = complete(root[i].clone());
        loss(&play)
    })
    .expect("non-empty root");
    complete(root[out.index].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{argmax_by, argmin, argmin_by};
    use selc_engine::{ParallelEngine, SequentialEngine};

    #[test]
    fn par_argmin_matches_sequential_scan() {
        let xs: Vec<i64> = (0..100).map(|i| (i * 31) % 17).collect();
        let seq = argmin_by(xs.clone(), |x| (*x - 9) as f64 * (*x - 9) as f64);
        let par =
            par_argmin(&ParallelEngine::auto(), xs.clone(), |x| (*x - 9) as f64 * (*x - 9) as f64);
        assert_eq!(par, seq);
        let eng =
            par_argmin(&SequentialEngine::exhaustive(), xs, |x| (*x - 9) as f64 * (*x - 9) as f64);
        assert_eq!(eng, seq);
    }

    #[test]
    fn par_argmax_matches_sequential_scan() {
        let xs: Vec<i64> = (0..60).map(|i| (i * 13) % 23).collect();
        assert_eq!(
            par_argmin(&ParallelEngine::auto(), xs.clone(), |x| -(*x as f64)),
            argmax_by(xs, |x| *x as f64)
        );
    }

    #[test]
    fn tie_breaking_stays_earliest() {
        let xs = vec![5_i64, 1, 3, 1, 1];
        assert_eq!(par_argmin(&ParallelEngine::auto(), xs, |x| *x as f64), 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_candidates_panic_like_argmin_by() {
        let _ = par_argmin(&ParallelEngine::auto(), Vec::<i64>::new(), |_| 0.0);
    }

    #[test]
    fn cached_argmin_matches_plain_and_reuses_evaluations() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let xs: Vec<i64> = (0..80).map(|i| (i * 31) % 17).collect();
        let seq = argmin_by(xs.clone(), |x| (*x - 9) as f64 * (*x - 9) as f64);
        let cache: ShardedCache<i64, f64> = ShardedCache::unbounded(4);
        let evals = AtomicU64::new(0);
        for round in 0..3 {
            let got = par_argmin_cached(
                &ParallelEngine::with_threads(3),
                &cache,
                xs.clone(),
                |x| *x,
                |x| {
                    evals.fetch_add(1, Ordering::Relaxed);
                    (*x - 9) as f64 * (*x - 9) as f64
                },
            );
            assert_eq!(got, seq, "round {round}");
        }
        // 17 distinct candidate values → at most 17 real evaluations ever
        // (the first search may race a few duplicates onto workers).
        assert!(evals.load(Ordering::Relaxed) <= 80, "cache reused: {evals:?}");
        assert_eq!(cache.stats().hits + cache.stats().misses, 240);
        assert!(cache.stats().hits >= 160, "rounds 2 and 3 fully cached");
    }

    #[test]
    fn cached_argmax_matches_plain_under_tiny_capacity() {
        let xs: Vec<i64> = (0..60).map(|i| (i * 13) % 23).collect();
        let plain = argmax_by(xs.clone(), |x| *x as f64);
        let cache: ShardedCache<i64, f64> = ShardedCache::clock_lru(2, 4);
        for _ in 0..2 {
            let got = par_argmin_cached(
                &ParallelEngine::with_threads(2),
                &cache,
                xs.clone(),
                |x| *x,
                |x| -(*x as f64),
            );
            assert_eq!(got, plain);
        }
        assert!(cache.stats().evictions > 0, "cap 4 must evict: {:?}", cache.stats());
    }

    #[test]
    fn product_root_split_matches_big_product() {
        // Three-stage game over {0,1,2}: minimise a mixing loss.
        let loss = |p: &[usize]| {
            (10 * p[0] + 3 * p[1]) as f64 - (p[2] * p[2]) as f64 + (p[0] * p[2]) as f64
        };
        let mk_rest = || -> Vec<Stage<usize, f64>> {
            (0..2)
                .map(|_| {
                    Rc::new(move |_: &[usize]| argmin(vec![0usize, 1, 2])) as Stage<usize, f64>
                })
                .collect()
        };
        let mut stages: Vec<Stage<usize, f64>> =
            vec![Rc::new(|_: &[usize]| argmin(vec![0usize, 1, 2]))];
        stages.extend(mk_rest());
        let sequential = big_product_dep(stages).select(move |p: &Vec<usize>| loss(p));
        let parallel = par_product_root(&ParallelEngine::auto(), (0..3).collect(), mk_rest, loss);
        assert_eq!(parallel, sequential);
    }
}
