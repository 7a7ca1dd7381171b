//! Engine search over compiled λC candidates, with branch-and-bound
//! pruning and a transposition table over decision prefixes.
//!
//! [`CompiledEval`] implements the engine's `CandidateEval` directly (the
//! cache-through layering of `selc_engine::cached`, specialised to the
//! machine's forced runs):
//!
//! * **Transposition keys.** A candidate that consumes only `u ≤ depth`
//!   decisions is fully determined by its first `u` decision bits, so its
//!   loss is cached under `(u, prefix_u(index))`. Every index sharing the
//!   prefix hits the same entry — *within* a single search this collapses
//!   the `2^(depth-u)` duplicate indices of shallow paths, and *across*
//!   searches a shared [`LcTransCache`] handle replays nothing at all.
//!   The key is sound because the machine is deterministic: same forced
//!   prefix, same run, bit-identical loss (the cache crate's
//!   injectivity-up-to-evaluation condition).
//! * **Pruning.** The engine's scan publishes achieved losses to its
//!   `SharedBound` as usual; the evaluator additionally keeps a shared
//!   mirror in the same monotone `prune_bits` encoding (the bound
//!   itself is write-only by design), fed by completed runs *and* cache
//!   hits; when enabled, the
//!   machine's prune hook aborts a run whose ambient partial loss is
//!   already *strictly* above the mirror. Strict domination keeps the
//!   deterministic `(loss, index)` reduction bit-identical (the skipped
//!   candidate can neither win nor tie); partial-loss domination is a
//!   true lower bound only when remaining emissions cannot be negative,
//!   so enabling it asserts non-negative losses — which the search
//!   corpus ([`lambda_c::testgen::gen_search_program`]) guarantees.
//!   Pruned candidates are never cached (`Pruned` is a fact about the
//!   current bound, not a loss).

use crate::bridge::{LcCandidates, LcValue};
use crate::loss::{encode_scalar, OrdLossVal};
use lambda_c::flow::NonNegLosses;
use lambda_c::machine::MachinePrune;
use selc_cache::{CacheStats, ShardedCache, SubtreeSummary};
use selc_engine::bound::SharedBound;
use selc_engine::engine::CandidateEval;
use selc_engine::{Engine, Outcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tag bit set in the middle (`u32`) key slot of every subtree-summary
/// entry. Leaf keys carry a plain decision count there (`≤ 62`, see
/// [`LcCandidates::new`]), so tagged and untagged keys can never
/// collide: one shared [`LcTransCache`] handle holds both populations,
/// key-disjointly, under one epoch.
pub const SUMMARY_TAG: u32 = 1 << 31;

/// One transposition-table entry: a completed path's loss, or an
/// interior-node subtree summary. The two populations live under
/// disjoint keys (see [`SUMMARY_TAG`]), so a leaf lookup only ever sees
/// [`LcEntry::Leaf`] and a summary probe only [`LcEntry::Summary`] —
/// the enum exists so both share one cache, one capacity budget, and
/// one epoch.
#[derive(Clone, Debug, PartialEq)]
pub enum LcEntry {
    /// Loss of the completed path keyed by `(id, used, prefix)`.
    Leaf(OrdLossVal),
    /// Summary of the subtree keyed by `(id, len | SUMMARY_TAG, bits)`.
    Summary(SubtreeSummary<OrdLossVal>),
}

/// The transposition table for compiled searches: keys are
/// `(space identity, decisions used, prefix bits)` for leaves and
/// `(space identity, prefix length | SUMMARY_TAG, prefix bits)` for
/// subtree summaries — the identity component (see [`LcCandidates::id`])
/// lets one shared handle serve many different programs without prefix
/// collisions.
pub type LcTransCache = ShardedCache<(u64, u32, u64), LcEntry>;

/// A `CandidateEval` that replays forced machine runs, consults an
/// optional shared transposition table, and optionally abandons runs
/// dominated mid-flight.
pub struct CompiledEval<'c> {
    cands: LcCandidates,
    cache: Option<&'c LcTransCache>,
    base: CacheStats,
    prune_mid_run: bool,
    best_bits: Arc<AtomicU64>,
}

impl<'c> CompiledEval<'c> {
    /// A plain evaluator: no cache, no mid-run abandonment. The
    /// achieved-loss mirror is the space's shared [`LcCandidates`] cell,
    /// so it persists across searches (warm repeats seed their bound and
    /// abandonment threshold from it — sound because the program is
    /// immutable, see [`CandidateEval::seed_bits`]).
    pub fn new(cands: LcCandidates) -> CompiledEval<'c> {
        let best_bits = cands.best_seen_cell();
        CompiledEval {
            cands,
            cache: None,
            base: CacheStats::default(),
            prune_mid_run: false,
            best_bits,
        }
    }

    /// Attaches a shared transposition table; stats reported through
    /// [`CandidateEval::cache_stats`] are the delta against wrap time.
    pub fn with_cache(mut self, cache: &'c LcTransCache) -> CompiledEval<'c> {
        self.base = cache.stats();
        self.cache = Some(cache);
        self
    }

    /// Enables mid-run abandonment of strictly dominated candidates,
    /// backed by a [`lambda_c::flow`] certificate. A certificate that
    /// does not cover this evaluator's program is ignored (sound — the
    /// search just runs without abandonment), so a stale handle can never
    /// smuggle pruning onto the wrong program.
    pub fn with_nonneg_certificate(mut self, cert: &NonNegLosses) -> CompiledEval<'c> {
        if cert.covers(self.cands.program()) {
            self.prune_mid_run = true;
        }
        self
    }

    /// Enables mid-run abandonment of strictly dominated candidates
    /// **without** a certificate: the caller asserts the program's
    /// emitted losses are non-negative (otherwise a partial sum is not a
    /// lower bound and pruning would be unsound — and could silently
    /// change winners). Prefer [`CompiledEval::with_nonneg_certificate`];
    /// the `flow-uncertified-nonneg` lint flags unexplained uses.
    pub fn assuming_nonneg_losses_unchecked(mut self) -> CompiledEval<'c> {
        self.prune_mid_run = true;
        self
    }

    /// The first `used` decision bits of `index` (the transposition key's
    /// prefix component).
    fn prefix(&self, index: usize, used: u32) -> u64 {
        (index as u64) >> (self.cands.depth() - used)
    }
}

impl CandidateEval<OrdLossVal> for CompiledEval<'_> {
    fn eval(&self, index: usize, _bound: &SharedBound<OrdLossVal>) -> Option<OrdLossVal> {
        // A run consuming u decisions is keyed by its first u bits, and
        // at most one u can hit (determinism) — probe only the depths
        // candidates have actually been observed to use (usually one),
        // ascending, so hit/miss telemetry counts real probes, not a
        // 0..=depth ladder.
        if let Some(cache) = self.cache {
            let mut mask = self.cands.used_depths_mask();
            while mask != 0 {
                let used = mask.trailing_zeros();
                mask &= mask - 1;
                if let Some(LcEntry::Leaf(loss)) =
                    cache.lookup(&(self.cands.id(), used, self.prefix(index, used)))
                {
                    // A hit is an achieved loss too: keep the mid-run
                    // abandonment mirror tight on warm searches.
                    // ordering: Relaxed — same monotone-hint argument as
                    // `SharedBound::observe_bits`: a stale (larger)
                    // value only under-prunes.
                    self.best_bits.fetch_min(encode_scalar(&loss.0), Ordering::Relaxed);
                    return Some(loss);
                }
            }
        }
        let hook = self.prune_mid_run.then(|| MachinePrune {
            threshold: Arc::clone(&self.best_bits),
            encode: encode_scalar,
        });
        let out = match self.cands.run_candidate_pruned(index, hook) {
            Err(_) => return None, // only `Pruned` survives the contract
            Ok(out) => out,
        };
        let loss = OrdLossVal(out.loss);
        // Publish the achieved loss to the machine-visible mirror (the
        // engine's own scan observes its SharedBound separately).
        // ordering: Relaxed — monotone hint; see the fetch_min above.
        self.best_bits.fetch_min(encode_scalar(&loss.0), Ordering::Relaxed);
        if let Some(cache) = self.cache {
            cache.store(
                (self.cands.id(), out.decisions_used, self.prefix(index, out.decisions_used)),
                LcEntry::Leaf(loss.clone()),
            );
            self.cands.note_used_depth(out.decisions_used);
        }
        Some(loss)
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.map(|c| c.stats().since(&self.base)).unwrap_or_default()
    }

    fn seed_bits(&self) -> Option<u64> {
        // ordering: Relaxed — a stale (larger) seed only forgoes some
        // warm-start pruning; it can never prune unsoundly.
        let bits = self.best_bits.load(Ordering::Relaxed);
        (bits != u64::MAX).then_some(bits)
    }
}

/// Searches a compiled candidate space by the **flat** scan: every one
/// of the `2^depth` forced paths replayed from the root on `engine` —
/// argmin by recorded loss, ties to the lexicographically-first decision
/// vector (`true` first), the winner an argmin-chooser handler picks.
/// One extra replay recovers the winner's terminal. Returns `None` for
/// an empty space (depth 0 still has one candidate, so only for
/// `space == 0` engines).
///
/// The production path is the prefix-sharing
/// [`crate::tree::search_compiled`]; the flat scan stays as the
/// differential reference it is proven against.
pub fn search_compiled_flat<G: Engine>(
    engine: &G,
    cands: &LcCandidates,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    let eval = CompiledEval::new(cands.clone());
    let outcome = engine.search(cands.space(), &eval)?;
    let value = cands.run_candidate(outcome.index).ground_value();
    Some((outcome, value))
}

/// [`search_compiled_flat`] through a shared transposition table,
/// with mid-run abandonment iff `cert` is a covering
/// [`lambda_c::flow`] certificate (pass
/// [`LcCandidates::certificate`]).
pub fn search_compiled_flat_cached<G: Engine>(
    engine: &G,
    cands: &LcCandidates,
    cache: &LcTransCache,
    cert: Option<&NonNegLosses>,
) -> Option<(Outcome<OrdLossVal>, LcValue)> {
    let mut eval = CompiledEval::new(cands.clone()).with_cache(cache);
    if let Some(cert) = cert {
        eval = eval.with_nonneg_certificate(cert);
    }
    let outcome = engine.search(cands.space(), &eval)?;
    let value = cands.run_candidate(outcome.index).ground_value();
    Some((outcome, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_c::testgen;
    use selc_engine::{ParallelEngine, SequentialEngine};

    fn chain_candidates(choices: u32) -> LcCandidates {
        let p = testgen::deep_decide_chain(choices);
        LcCandidates::new(lambda_c::compile(&p.expr).unwrap(), ["decide".to_owned()], choices)
    }

    #[test]
    fn cached_and_pruned_searches_agree_with_plain() {
        let cands = chain_candidates(6);
        let (plain, value) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        // Cold fill without abandonment: every candidate runs and stores.
        let cache = LcTransCache::unbounded(4);
        let (cold, _) =
            search_compiled_flat_cached(&SequentialEngine::exhaustive(), &cands, &cache, None)
                .unwrap();
        assert_eq!((cold.index, cold.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(cold.stats.cache.insertions, cands.space() as u64);
        // Fully warm: the repeat search replays nothing.
        let (warm, wv) =
            search_compiled_flat_cached(&ParallelEngine::with_threads(3), &cands, &cache, None)
                .unwrap();
        assert_eq!((warm.index, warm.loss.clone()), (plain.index, plain.loss.clone()));
        assert_eq!(wv, value);
        assert_eq!(warm.stats.cache.hits, cands.space() as u64, "fully warm");
        // Abandonment on a fresh cache: same winner, bit-identically.
        let cert = cands.certificate().expect("chain losses are certifiably non-negative");
        for engine_prune in [false, true] {
            let fresh = LcTransCache::unbounded(4);
            let eng = ParallelEngine { threads: 3, chunk: 2, prune: engine_prune };
            let (out, v) = search_compiled_flat_cached(&eng, &cands, &fresh, Some(cert)).unwrap();
            assert_eq!((out.index, out.loss.clone()), (plain.index, plain.loss.clone()));
            assert_eq!(v, value);
        }
    }

    #[test]
    fn foreign_certificate_does_not_enable_pruning() {
        // A certificate from a different compilation of the *same* syntax
        // must not unlock abandonment: coverage is pointer identity.
        let cands = chain_candidates(5);
        let other = chain_candidates(5);
        let foreign = other.certificate().unwrap();
        let eval = CompiledEval::new(cands.clone()).with_nonneg_certificate(foreign);
        assert!(!eval.prune_mid_run, "foreign certificate silently ignored");
        let own = cands.certificate().unwrap();
        let eval = CompiledEval::new(cands.clone()).with_nonneg_certificate(own);
        assert!(eval.prune_mid_run);
    }

    #[test]
    fn prefix_cache_collapses_duplicate_indices() {
        // pgm has depth 1 but give the space depth 3: indices sharing the
        // first bit must collapse onto one prefix entry each.
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        let cands =
            LcCandidates::new(lambda_c::compile(&ex.expr).unwrap(), ["decide".to_owned()], 3);
        let cache = LcTransCache::unbounded(2);
        let (out, _) =
            search_compiled_flat_cached(&SequentialEngine::exhaustive(), &cands, &cache, None)
                .unwrap();
        assert_eq!(cache.len(), 2, "one entry per used prefix, not per index");
        assert_eq!(out.loss.0, lambda_c::LossVal::scalar(2.0));
        let stats = out.stats.cache;
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.hits, 6, "6 of 8 candidates answered by the prefix table");
    }

    #[test]
    fn abandoned_candidates_are_not_cached() {
        // With abandonment on, the dominated false-branch runs of pgm
        // abort mid-flight and must not be stored.
        let ex = lambda_c::examples::pgm_with_argmin_handler();
        let cands =
            LcCandidates::new(lambda_c::compile(&ex.expr).unwrap(), ["decide".to_owned()], 3);
        let cache = LcTransCache::unbounded(2);
        let cert = cands.certificate().expect("pgm's 2*i losses are non-negative");
        let (out, _) = search_compiled_flat_cached(
            &SequentialEngine::exhaustive(),
            &cands,
            &cache,
            Some(cert),
        )
        .unwrap();
        assert_eq!(out.loss.0, lambda_c::LossVal::scalar(2.0));
        assert_eq!(cache.len(), 1, "only the winning prefix is stored");
        assert_eq!(out.stats.pruned, 4, "the four false-prefix candidates abort");
    }

    #[test]
    fn mid_run_pruning_abandons_but_never_changes_the_winner() {
        let cands = chain_candidates(7);
        let (plain, _) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        let cache = LcTransCache::unbounded(2);
        // The unchecked evaluator must stay bit-identical to the
        // certified one.
        // flow: certified (chain corpus, asserted above)
        let eval =
            CompiledEval::new(cands.clone()).with_cache(&cache).assuming_nonneg_losses_unchecked();
        let pruned = SequentialEngine::pruning().search(cands.space(), &eval).unwrap();
        assert_eq!((pruned.index, pruned.loss.clone()), (plain.index, plain.loss));
        assert!(
            pruned.stats.pruned > 0,
            "deep chains must abandon dominated paths: {:?}",
            pruned.stats
        );
    }
}
