//! The tree-search differential suite: the prefix-sharing tree walk must
//! return **bit-identical** winners — loss *and* index, ties included —
//! to the flat exhaustive scan, across every configuration: sequential,
//! parallel (`SELC_THREADS` workers and pinned pool shapes), cached
//! (`SELC_CACHE_CAP`-bounded shared tables, tree- or flat-warmed), and
//! pruned (machine abandonment + dominated-subtree skips). The flat scan
//! is itself proven against the argmin handler semantics in
//! `tests/differential.rs`, so equality here closes the three-way chain
//! handler == flat == tree.

use lambda_c::testgen::{self, ProgramGen};
use lambda_c::types::{Effect, Type};
use lambda_c::{compile, LossVal};
use lambda_rt::{
    search_compiled, search_compiled_cached, search_compiled_flat, search_compiled_flat_cached,
    LcCandidates, LcTransCache, OrdLossVal,
};
use proptest::prelude::*;
use selc_engine::{Outcome, SequentialEngine, TreeEngine};

fn tree_engines() -> Vec<TreeEngine> {
    vec![
        TreeEngine::sequential(),
        TreeEngine::with_threads(1),
        TreeEngine::auto(), // SELC_THREADS workers
        TreeEngine { threads: 2, prune: true, split: 1, summaries: true },
        TreeEngine { threads: 3, prune: false, split: 3, summaries: true },
        TreeEngine { threads: 2, prune: true, split: 2, summaries: false },
    ]
}

/// Runs every tree configuration against the flat sequential reference.
fn assert_tree_equals_flat(cands: &LcCandidates, label: &str) {
    let (flat, value) = search_compiled_flat(&SequentialEngine::exhaustive(), cands).unwrap();
    // The corpus emits only non-negative constant losses, so every
    // program must earn a flow certificate; pruned rounds run under it.
    let cert = cands.certificate();
    assert!(cert.is_some(), "{label}: corpus programs are flow-certifiable");
    let check = |out: &Outcome<OrdLossVal>, v: &lambda_rt::LcValue, what: &str| {
        assert_eq!(
            (out.index, out.loss.clone()),
            (flat.index, flat.loss.clone()),
            "{label}: {what} winner"
        );
        assert_eq!(*v, value, "{label}: {what} value");
    };
    for engine in tree_engines() {
        let (out, v) = search_compiled(&engine, cands).unwrap();
        check(&out, &v, &format!("tree {engine:?}"));
        // Cached, cold (fresh tiny-capacity-respecting shared handle)…
        let cache = LcTransCache::from_env();
        let (out, v) = search_compiled_cached(&engine, cands, &cache, cert).unwrap();
        check(&out, &v, &format!("tree cached+pruned {engine:?}"));
        // …and warm over whatever the pruned fill left behind.
        let (out, v) = search_compiled_cached(&engine, cands, &cache, cert).unwrap();
        check(&out, &v, &format!("tree warm {engine:?}"));
        // Cross-warming: a flat search over the tree-filled table, and a
        // tree search over a flat-filled one, share keys bit-for-bit.
        let (out, v) =
            search_compiled_flat_cached(&SequentialEngine::exhaustive(), cands, &cache, cert)
                .unwrap();
        check(&out, &v, &format!("flat over tree-warmed table {engine:?}"));
        let flat_filled = LcTransCache::from_env();
        let _ =
            search_compiled_flat_cached(&SequentialEngine::exhaustive(), cands, &flat_filled, None);
        let (out, v) = search_compiled_cached(&engine, cands, &flat_filled, None).unwrap();
        check(&out, &v, &format!("tree over flat-warmed table {engine:?}"));
    }
}

#[test]
fn tree_equals_flat_on_the_search_corpus() {
    for seed in 0..12 {
        let mut g = ProgramGen::new(3000 + seed);
        let choices = 1 + (seed % 6) as u32;
        let p = g.gen_search_program(choices);
        let cands =
            LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);
        assert_tree_equals_flat(&cands, &format!("seed {seed}"));
    }
}

#[test]
fn tree_equals_flat_on_deterministic_deep_chains() {
    for choices in [1, 4, 8] {
        let p = testgen::deep_decide_chain(choices);
        let cands =
            LcCandidates::new(compile(&p.expr).expect("compiles"), ["decide".to_owned()], choices);
        assert_tree_equals_flat(&cands, &format!("chain {choices}"));
    }
}

/// Every path ties: the winner must be candidate 0 (all-`true`) in every
/// configuration — exploration order, worker interleaving, and pruning
/// must not disturb the deterministic tie-break.
#[test]
fn all_tied_paths_break_to_the_all_true_candidate() {
    use lambda_c::build::*;
    let eamb = Effect::single("amb");
    let mut body = lc(0.0);
    for i in (0..3).rev() {
        body = let_(
            eamb.clone(),
            &format!("b{i}"),
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(lc(1.0)), body),
        );
    }
    let e = handle0(testgen::argmin_handler(&Type::loss(), &Effect::empty()), body);
    let cands = LcCandidates::new(compile(&e).unwrap(), ["decide".to_owned()], 3);
    let cert = cands.certificate().expect("constant-loss program is flow-certifiable");
    for engine in tree_engines() {
        let (out, _) = search_compiled(&engine, &cands).unwrap();
        assert_eq!(out.index, 0, "{engine:?}");
        assert_eq!(out.loss.0, LossVal::scalar(3.0), "{engine:?}");
        let cache = LcTransCache::from_env();
        let (out, _) = search_compiled_cached(&engine, &cands, &cache, Some(cert)).unwrap();
        assert_eq!(out.index, 0, "cached {engine:?}");
    }
}

/// Shallow-terminating paths: a space declared deeper than the program's
/// real decision count must credit early leaves to their smallest flat
/// index in tree and flat searches alike.
#[test]
fn shallow_paths_share_their_representative_index() {
    let ex = lambda_c::examples::pgm_with_argmin_handler();
    let cands = LcCandidates::new(compile(&ex.expr).unwrap(), ["decide".to_owned()], 5);
    assert_tree_equals_flat(&cands, "pgm at depth 5");
}

/// A chain whose step `i ≥ 1` emits `if b_i then (if b_j then hi else
/// lo) else other` for an earlier decision `b_j`, after a step 0 that
/// emits `first(b_0)`. `steps[i] = (j, hi, lo, other)`; step 0 uses
/// `(hi, lo)` as its true/false losses. Later losses read an earlier
/// decision, so prefixes reaching equal running totals are *not* equal
/// states: a merge keyed on `(depth, total)` alone picks wrong winners.
fn reads_earlier_decisions(steps: &[(usize, f64, f64, f64)]) -> LcCandidates {
    use lambda_c::build::*;
    let eamb = Effect::single("amb");
    let mut body = lc(0.0);
    for (i, &(j, hi, lo, other)) in steps.iter().enumerate().rev() {
        let b = format!("b{i}");
        let emitted = if i == 0 {
            if_(v(&b), lc(hi), lc(lo))
        } else {
            if_(v(&b), if_(v(&format!("b{j}")), lc(hi), lc(lo)), lc(other))
        };
        body = let_(
            eamb.clone(),
            &b,
            Type::bool(),
            op("decide", unit()),
            seq(eamb.clone(), Type::unit(), loss(emitted), body),
        );
    }
    let e = handle0(testgen::argmin_handler(&Type::loss(), &Effect::empty()), body);
    LcCandidates::new(compile(&e).unwrap(), ["decide".to_owned()], steps.len() as u32)
}

/// Both `b0` prefixes emit 1, so they reach equal (depth, total) — but
/// step 2 reads `b0`, and the winners beneath differ. The flat winner is
/// (index 2, loss 1); a merge on (depth, total) alone answers the `false`
/// prefix with the `true` prefix's subtree and returns (index 1, loss 4).
#[test]
fn equal_totals_with_a_live_earlier_decision_are_not_merged() {
    let cands = reads_earlier_decisions(&[(0, 1.0, 1.0, 0.0), (0, 5.0, 0.0, 3.0)]);
    let (flat, _) = search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
    assert_eq!((flat.index, flat.loss.0.clone()), (2, LossVal::scalar(1.0)));
    assert_tree_equals_flat(&cands, "adversarial merge");
    for engine in tree_engines() {
        let (out, _) = search_compiled(&engine, &cands).unwrap();
        assert_eq!(out.stats.summary.state_merges, 0, "{engine:?}: no state is shared");
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// Random chains whose every later step reads an earlier decision,
    /// with small integer losses so equal totals (and ties) abound.
    #[test]
    fn tree_equals_flat_when_later_steps_read_earlier_decisions(
        seed in 0u64..1_000_000,
        choices in 2u32..6,
    ) {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut next = |n: u64| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let steps: Vec<(usize, f64, f64, f64)> = (0..choices as usize)
            .map(|i| {
                let j = if i == 0 { 0 } else { next(i as u64) as usize };
                (j, next(4) as f64, next(4) as f64, next(4) as f64)
            })
            .collect();
        let cands = reads_earlier_decisions(&steps);
        assert_tree_equals_flat(&cands, &format!("steps {steps:?}"));
    }

    /// Randomised corpus sweep (kept small: the flat reference replays
    /// 2^choices machine runs per configuration in debug builds).
    #[test]
    fn tree_equals_flat_on_random_search_programs(seed in 0u64..500, choices in 1u32..6) {
        let mut g = ProgramGen::new(seed);
        let p = g.gen_search_program(choices);
        let cands = LcCandidates::new(
            compile(&p.expr).expect("compiles"),
            ["decide".to_owned()],
            choices,
        );
        let (flat, value) =
            search_compiled_flat(&SequentialEngine::exhaustive(), &cands).unwrap();
        let cache = LcTransCache::from_env();
        for engine in [TreeEngine::auto(), TreeEngine::sequential()] {
            let (out, v) =
                search_compiled_cached(&engine, &cands, &cache, cands.certificate()).unwrap();
            prop_assert_eq!(out.index, flat.index);
            prop_assert_eq!(out.loss.clone(), flat.loss.clone());
            prop_assert_eq!(v, value.clone());
        }
    }
}
