//! E16: subtree summaries — warm repeats in O(depth), not O(leaves).
//!
//! BENCH_4 exposed the warm path as the slow path: the leaf-only
//! transposition table made a warm repeat of the cached tree search walk
//! all 2^18 candidates again (1.05s of probes against 107ms for a cold
//! pruned fill). Interior-node summaries collapse that walk: an exact
//! summary answers its whole subtree in one probe, so a warm repeat
//! touches O(depth) positions. This family times the same 18-decision
//! probing chain as E15, cold and warm, with summaries on and off, and
//! rides the flagged alpha–beta transposition table (the minimax face of
//! the same design) alongside. Winners are asserted bit-identical —
//! loss *and* index — between summarised, plain, and sequential
//! searches before any timing runs.
//!
//! After timing, cache- and summary-stat lines print for
//! `selc-bench-record` (schema 4). `SELC_BENCH_SMOKE=1` shrinks the
//! workloads for CI.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lambda_c::testgen::deep_decide_chain;
use lambda_rt::{search_compiled, search_compiled_cached, LcCandidates, LcTransCache};
use selc_cache::{CacheStats, SummaryStats};
use selc_engine::{CancelToken, TreeEngine};
use selc_games::alternating::{AbCache, GameTree};
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var("SELC_BENCH_SMOKE").is_ok()
}

fn report_cache(label: &str, stats: &CacheStats) {
    println!(
        "{label} cache hits={} misses={} insertions={} evictions={} hit_rate={:.3}",
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.evictions,
        stats.hit_rate()
    );
}

fn report_summary(label: &str, stats: &SummaryStats) {
    println!(
        "{label} summary exact_hits={} bound_hits={} misses={} exact_installs={} bound_installs={}",
        stats.exact_hits,
        stats.bound_hits,
        stats.misses,
        stats.exact_installs,
        stats.bound_installs
    );
}

fn bench_summaries(c: &mut Criterion) {
    let choices = if smoke() { 10 } else { 18 };
    let p = deep_decide_chain(choices);
    let cands = LcCandidates::new(
        lambda_c::compile(&p.expr).expect("compiles"),
        ["decide".to_owned()],
        choices,
    );
    let summarised = TreeEngine::with_threads(4);
    let plain = TreeEngine::with_threads(4).without_summaries();

    // Bit-identity gate: summarised == plain == sequential, over cold
    // and warm tables alike, before anything is timed.
    let (reference, ref_val) = search_compiled(&TreeEngine::sequential(), &cands).unwrap();
    let cert = cands.certificate().expect("chain corpus is flow-certifiable");
    let warm = LcTransCache::unbounded(8);
    for (engine, what) in [(&summarised, "summarised"), (&plain, "plain")] {
        for round in ["cold", "warm"] {
            let (out, v) = search_compiled_cached(engine, &cands, &warm, None).unwrap();
            assert_eq!(
                (out.index, out.loss.clone()),
                (reference.index, reference.loss.clone()),
                "{what} {round} winner"
            );
            assert_eq!(v, ref_val, "{what} {round} value");
        }
    }

    // The acceptance target, measured outright: a warm summarised
    // repeat must run ≥50× under BENCH_4's 1.05s warm path (21ms) — it
    // is an O(depth) walk, so the margin is enormous.
    let t0 = Instant::now();
    let _ = black_box(search_compiled_cached(&summarised, &cands, &warm, None));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(21),
        "warm summarised repeat must be O(depth): took {elapsed:?}"
    );

    let mut g = c.benchmark_group(format!("e16_summaries/probing{choices}"));
    g.bench_function("tree_cached_cold", |b| {
        b.iter(|| {
            let cache = LcTransCache::unbounded(8);
            black_box(search_compiled_cached(&summarised, &cands, &cache, Some(cert)))
        })
    });
    // The BENCH_4 pathology, reproduced for the before/after spread: a
    // warm repeat that may only use leaf entries…
    g.bench_function("tree_cached_warm_plain", |b| {
        b.iter(|| black_box(search_compiled_cached(&plain, &cands, &warm, None)))
    });
    // …against the same table answered through its subtree summaries.
    g.bench_function("tree_cached_warm", |b| {
        b.iter(|| black_box(search_compiled_cached(&summarised, &cands, &warm, None)))
    });
    g.finish();

    // Representative stats for the snapshot recorder: a cold-table fill
    // (the space's shared best-seen cell is already armed by this point,
    // so the pruned fill is itself seeded) and the fully-warm summarised
    // repeat.
    let cache = LcTransCache::unbounded(8);
    let (cold, _) = search_compiled_cached(&summarised, &cands, &cache, Some(cert)).unwrap();
    assert_eq!(cold.index, reference.index);
    report_cache(&format!("e16_summaries/probing{choices}/tree_cached_cold"), &cold.stats.cache);
    report_summary(
        &format!("e16_summaries/probing{choices}/tree_cached_cold"),
        &cold.stats.summary,
    );
    let (warm_out, _) = search_compiled_cached(&summarised, &cands, &warm, None).unwrap();
    assert_eq!(warm_out.index, reference.index);
    report_cache(
        &format!("e16_summaries/probing{choices}/tree_cached_warm"),
        &warm_out.stats.cache,
    );
    report_summary(
        &format!("e16_summaries/probing{choices}/tree_cached_warm"),
        &warm_out.stats.summary,
    );
}

fn bench_alphabeta_tt(c: &mut Criterion) {
    let depth = if smoke() { 5 } else { 9 };
    let t = GameTree::random(4, depth, 42);
    let reference = t.solve_backward();
    let warm = AbCache::unbounded(8);
    let never = CancelToken::never();
    let tt = |cache: &AbCache| {
        let (play, value, leaves) =
            t.solve_alphabeta_tt_cancellable(cache, &never).expect("a never token cannot cancel");
        ((play, value), leaves)
    };
    assert_eq!(tt(&warm).0, reference, "flagged table == backward induction");
    assert_eq!(tt(&warm).0, reference, "warm repeat");

    let mut g = c.benchmark_group(format!("e16_summaries/game4x{depth}"));
    g.bench_function("alphabeta", |b| b.iter(|| black_box(t.solve_alphabeta())));
    g.bench_function("alphabeta_tt_cold", |b| {
        b.iter(|| {
            let cache = AbCache::unbounded(8);
            black_box(tt(&cache))
        })
    });
    g.bench_function("alphabeta_tt_warm", |b| b.iter(|| black_box(tt(&warm))));
    g.finish();

    // One warm repeat's probe economics (delta against the bench churn):
    // a single root hit, zero leaves.
    let base = warm.stats();
    let (_, warm_leaves) = tt(&warm);
    assert_eq!(warm_leaves, 0, "warm repeats answer from the root entry");
    report_cache(
        &format!("e16_summaries/game4x{depth}/alphabeta_tt_warm"),
        &warm.stats().since(&base),
    );
}

criterion_group! {
    name = benches;
    // Cold fills walk 2^18 leaves per iteration; small sample counts
    // keep the recording honest without an hour-long run.
    config = Criterion::default().sample_size(2).measurement_time(Duration::from_millis(200)).warm_up_time(Duration::from_millis(50));
    targets = bench_summaries, bench_alphabeta_tt
}
criterion_main!(benches);
