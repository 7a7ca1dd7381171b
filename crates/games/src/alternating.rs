//! Multi-round alternating games: the §4.3 minimax example extended from
//! one move each to a full game tree of alternating moves.
//!
//! The correct generalisation nests **one handler per ply**, outermost
//! handler for the first mover — exactly how the paper nests
//! `hmax $ hmin` for its two-ply game. Each ply's choice continuation
//! then resolves the whole subtree below it (all later plies are handled
//! *inside* the probed resumption), which is backward induction.
//!
//! Sharing a single handler between two plies of the same player is *not*
//! the same game: an op of ply 2 surfacing inside ply 1's probe escapes
//! past the prober to the shared outer handler, whose own choice
//! continuation then spans the prober's subsequent clause logic. That is
//! faithful calculus behaviour (choice continuations are global until
//! localised) but it is not backward induction —
//! [`GameTree::solve_shared_handlers`] exhibits it and the tests pin down
//! a case where the two diverge.

use crate::minimax::{hmax, hmin, MaxMove, MinMove};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selc::{effect, handle, loss, perform, Choice, Handler, Sel};
use selc_cache::ShardedCache;
use selc_obs::{trace, SpanLabel};
use std::rc::Rc;
use std::sync::LazyLock;

/// One flagged-table alpha-beta solve, root to resolution; the span
/// argument is the tree depth.
static AB_SOLVE_SPAN: SpanLabel = SpanLabel::new("games.ab_solve");

/// Leaves the flagged-table solvers actually evaluated (0 on a warm
/// repeat — the gap between this and `games.ab_solves` is the served
/// game path's warmth, end to end).
static AB_LEAVES: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_leaves"));
static AB_SOLVES: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_solves"));
static AB_CANCELLED: LazyLock<selc_obs::Counter> =
    LazyLock::new(|| selc_obs::metrics::counter("games.ab_cancelled"));

/// How much a stored alpha–beta resolution can be trusted on a later
/// visit — the minimax mirror of the engine's exact/bound subtree
/// summaries (`selc_cache::SubtreeSummary`).
///
/// Classification is against the node's *original* window `(α₀, β₀)`
/// under the strict-cutoff discipline: values inside the **closed**
/// window `[α₀, β₀]` are exact (a strict cutoff only ever skips
/// subtrees that strictly lose, so boundary values are still resolved
/// in full, ties included), values strictly outside it are one-sided
/// bounds produced by a cut somewhere below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbFlag {
    /// `value` is the true minimax value and `play` the backward-
    /// induction play (leftmost ties). Reusable under any window.
    Exact,
    /// The node was cut from below: the true value is `>= value`.
    /// Reusable only to re-trigger a cut, when `value > beta`.
    Lower,
    /// Symmetric: the true value is `<= value`. Reusable only when
    /// `value < alpha`.
    Upper,
}

/// One transposition entry: a node's resolved `(play, value)` and how
/// far it can be trusted ([`AbFlag`]).
#[derive(Clone, Debug, PartialEq)]
pub struct AbEntry {
    /// The best full root-to-leaf move path found below the node.
    pub play: Vec<usize>,
    /// The node's minimax value (exact or a one-sided bound, per `flag`).
    pub value: f64,
    /// How much of the window search the entry replaces.
    pub flag: AbFlag,
}

/// A transposition table for
/// [`GameTree::solve_alphabeta_tt_cancellable`], keyed by the move path
/// that names the node. Paths carry no tree identity, so one handle
/// serves **one tree per epoch**: call
/// [`ShardedCache::advance_epoch`] before pointing it at a different
/// tree (entries then lazily die, exactly like the engine caches).
pub type AbCache = ShardedCache<Vec<usize>, AbEntry>;

effect! {
    /// Ply-0 move (maximiser).
    pub effect Ply0 {
        /// Choose among `n` moves.
        op Move0 : usize => usize;
    }
}
effect! {
    /// Ply-1 move (minimiser).
    pub effect Ply1 {
        /// Choose among `n` moves.
        op Move1 : usize => usize;
    }
}
effect! {
    /// Ply-2 move (maximiser).
    pub effect Ply2 {
        /// Choose among `n` moves.
        op Move2 : usize => usize;
    }
}
effect! {
    /// Ply-3 move (minimiser).
    pub effect Ply3 {
        /// Choose among `n` moves.
        op Move3 : usize => usize;
    }
}

/// Maximum supported depth of [`GameTree::solve_handlers`] (one static
/// effect per ply).
pub const MAX_DEPTH: usize = 4;

fn pick_extreme(l: &Choice<f64, usize>, n: usize, maximise: bool) -> Sel<f64, usize> {
    fn go(
        l: Choice<f64, usize>,
        n: usize,
        maximise: bool,
        i: usize,
        best: Option<(usize, f64)>,
    ) -> Sel<f64, usize> {
        if i == n {
            return Sel::pure(best.expect("no moves").0);
        }
        l.at(i).and_then(move |li| {
            let better = match best {
                None => true,
                Some((_, bv)) => {
                    if maximise {
                        li > bv
                    } else {
                        li < bv
                    }
                }
            };
            let next = if better { Some((i, li)) } else { best };
            go(l.clone(), n, maximise, i + 1, next)
        })
    }
    go(l.clone(), n, maximise, 0, None)
}

macro_rules! ply_handler {
    ($name:ident, $op:ident, $maximise:expr) => {
        fn $name<B: Clone + 'static>() -> Handler<f64, B, B> {
            Handler::builder::<<$op as selc::Operation>::Effect>()
                .on::<$op>(|n, l, k| pick_extreme(&l, n, $maximise).and_then(move |m| k.resume(m)))
                .build_identity()
        }
    };
}

ply_handler!(h_ply0, Move0, true);
ply_handler!(h_ply1, Move1, false);
ply_handler!(h_ply2, Move2, true);
ply_handler!(h_ply3, Move3, false);

/// A complete game tree with `branching^depth` leaves, maximiser to move
/// first, leaf values indexed by the move path.
#[derive(Clone, Debug)]
pub struct GameTree {
    /// Moves available at every node.
    pub branching: usize,
    /// Number of plies (at most [`MAX_DEPTH`] for the handler solver).
    pub depth: usize,
    /// Leaf values in lexicographic path order.
    pub leaves: Vec<f64>,
}

impl GameTree {
    /// A random game tree.
    ///
    /// # Panics
    ///
    /// Panics if `branching == 0` or `depth == 0`.
    pub fn random(branching: usize, depth: usize, seed: u64) -> GameTree {
        assert!(branching > 0 && depth > 0, "degenerate game tree");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = branching.pow(depth as u32);
        let leaves = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        GameTree { branching, depth, leaves }
    }

    /// The leaf value at a full move path.
    pub fn leaf(&self, path: &[usize]) -> f64 {
        let mut idx = 0;
        for m in path {
            idx = idx * self.branching + m;
        }
        self.leaves[idx]
    }

    /// Explicit backward induction (negamax-style) — the baseline. The
    /// maximiser moves on even plies; ties break towards smaller move
    /// indices at every node.
    pub fn solve_backward(&self) -> (Vec<usize>, f64) {
        fn go(t: &GameTree, path: &mut Vec<usize>) -> (Vec<usize>, f64) {
            if path.len() == t.depth {
                return (path.clone(), t.leaf(path));
            }
            let maximising = path.len().is_multiple_of(2);
            let mut best: Option<(Vec<usize>, f64)> = None;
            for m in 0..t.branching {
                path.push(m);
                let (p, v) = go(t, path);
                path.pop();
                let better = match &best {
                    None => true,
                    Some((_, bv)) => {
                        if maximising {
                            v > *bv
                        } else {
                            v < *bv
                        }
                    }
                };
                if better {
                    best = Some((p, v));
                }
            }
            best.expect("branching > 0")
        }
        go(self, &mut Vec::new())
    }

    /// Strict-cutoff alpha–beta: backward induction that skips a
    /// subtree only when its value falls *strictly* outside the
    /// `(alpha, beta)` window — the minimax analogue of the engine's
    /// strict-domination pruning. A node cut at `v > beta` (maximiser)
    /// strictly loses at the minimising ancestor that achieved `beta`,
    /// so it can neither win nor *tie* there; nodes on a tie boundary
    /// are never cut. The returned play and value are therefore
    /// bit-identical to [`GameTree::solve_backward`], leftmost
    /// tie-breaking included. Works at any depth (no handler-effect
    /// limit).
    pub fn solve_alphabeta(&self) -> (Vec<usize>, f64) {
        let mut path = Vec::new();
        let mut leaves = 0;
        let never = selc_engine::CancelToken::never();
        self.alphabeta(&mut path, f64::NEG_INFINITY, f64::INFINITY, &mut leaves, None, &never)
            .expect("a never token cannot cancel")
    }

    /// [`GameTree::solve_alphabeta`] through a flagged transposition
    /// table, under a `selc_engine::CancelToken` checked at every
    /// interior node like the tree engine's walker. Returns the play,
    /// its value and the number of leaves actually evaluated (0 on a
    /// warm repeat).
    ///
    /// Every interior resolution is stored as an [`AbEntry`] and later
    /// visits probe before searching — `Exact` entries answer outright,
    /// `Lower`/`Upper` entries re-trigger the cut they came from when
    /// they still clear the live window. The root's window is infinite,
    /// so the root always stores `Exact` and a warm repeat is O(1): one
    /// probe, zero leaves. Bit-identity with [`GameTree::solve_backward`]
    /// (play *and* value, leftmost ties) is preserved because bound
    /// entries are reused only strictly outside the live window —
    /// positions the strict-cutoff search discards or cuts on anyway —
    /// while values inside the closed window always come from `Exact`
    /// entries or a full sub-search.
    ///
    /// Returns `None` when the token fired mid-solve: minimax has no
    /// sound "best seen so far" (an unexplored sibling can change every
    /// ancestor's value), so a cancelled solve yields nothing rather
    /// than a wrong play. Soundness against the table: an aborted node
    /// returns **before** computing or storing a value, and the abort
    /// propagates straight up, so no entry derived from a
    /// partially-searched node is ever stored — entries written by
    /// completed siblings earlier in the solve are real resolutions and
    /// stay valid for the next request.
    pub fn solve_alphabeta_tt_cancellable(
        &self,
        cache: &AbCache,
        cancel: &selc_engine::CancelToken,
    ) -> Option<(Vec<usize>, f64, u64)> {
        let _span = trace::span(&AB_SOLVE_SPAN, self.depth as u64);
        let mut path = Vec::new();
        let mut leaves = 0;
        let solved = self.alphabeta(
            &mut path,
            f64::NEG_INFINITY,
            f64::INFINITY,
            &mut leaves,
            Some(cache),
            cancel,
        );
        AB_LEAVES.add(leaves);
        match solved {
            Some((play, value)) => {
                AB_SOLVES.inc();
                Some((play, value, leaves))
            }
            None => {
                AB_CANCELLED.inc();
                None
            }
        }
    }

    /// The one alpha–beta recursion behind every solver: resolves the
    /// node at `path` under the window `(alpha0, beta0)`, counting
    /// evaluated leaves. With a `cache` it probes before searching and
    /// stores the resolution, flagged against the original window; a
    /// fired `cancel` unwinds the whole solve with `None`.
    fn alphabeta(
        &self,
        path: &mut Vec<usize>,
        alpha0: f64,
        beta0: f64,
        leaves: &mut u64,
        cache: Option<&AbCache>,
        cancel: &selc_engine::CancelToken,
    ) -> Option<(Vec<usize>, f64)> {
        if path.len() == self.depth {
            *leaves += 1;
            return Some((path.clone(), self.leaf(path)));
        }
        if cancel.is_cancelled() {
            return None; // nothing computed here, nothing stored
        }
        if let Some(e) = cache.and_then(|c| c.lookup(path)) {
            // An `Exact` hit substitutes the true resolution wherever
            // the fresh search would have produced one; a bound hit is
            // honoured only when it clears the *live* window strictly,
            // i.e. exactly when the fresh search's fail-soft value
            // would land on the same side and trigger the same cut.
            let usable = match e.flag {
                AbFlag::Exact => true,
                AbFlag::Lower => e.value > beta0,
                AbFlag::Upper => e.value < alpha0,
            };
            if usable {
                return Some((e.play, e.value));
            }
        }
        let maximising = path.len().is_multiple_of(2);
        let (mut alpha, mut beta) = (alpha0, beta0);
        let mut best: Option<(Vec<usize>, f64)> = None;
        for m in 0..self.branching {
            path.push(m);
            let r = self.alphabeta(path, alpha, beta, leaves, cache, cancel);
            path.pop();
            let (p, v) = r?; // a cancelled child unwinds the whole solve
            let better = match &best {
                None => true,
                Some((_, bv)) => {
                    if maximising {
                        v > *bv
                    } else {
                        v < *bv
                    }
                }
            };
            if better {
                best = Some((p, v));
            }
            let bv = best.as_ref().expect("just set").1;
            if maximising {
                alpha = alpha.max(bv);
                if bv > beta {
                    break; // strictly loses at the min ancestor achieving beta
                }
            } else {
                beta = beta.min(bv);
                if bv < alpha {
                    break; // strictly loses at the max ancestor achieving alpha
                }
            }
        }
        let (play, value) = best.expect("branching > 0");
        if let Some(cache) = cache {
            let flag = if value > beta0 {
                AbFlag::Lower
            } else if value < alpha0 {
                AbFlag::Upper
            } else {
                AbFlag::Exact
            };
            cache.store(path.clone(), AbEntry { play: play.clone(), value, flag });
        }
        Some((play, value))
    }

    /// The game as a `Sel` program over the per-ply effects.
    fn program(&self) -> Sel<f64, Vec<usize>> {
        fn go(t: Rc<GameTree>, path: Vec<usize>) -> Sel<f64, Vec<usize>> {
            if path.len() == t.depth {
                let v = t.leaf(&path);
                return loss(v).map(move |_| path.clone());
            }
            let b = t.branching;
            let step = move |m: usize, t: Rc<GameTree>, mut p: Vec<usize>| {
                p.push(m);
                go(t, p)
            };
            match path.len() {
                0 => {
                    perform::<f64, Move0>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                1 => {
                    perform::<f64, Move1>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                2 => {
                    perform::<f64, Move2>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
                _ => {
                    perform::<f64, Move3>(b).and_then(move |m| step(m, Rc::clone(&t), path.clone()))
                }
            }
        }
        go(Rc::new(self.clone()), Vec::new())
    }

    /// Solves the game with one handler per ply, outermost first mover —
    /// exact backward induction. Returns `(play, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `depth > MAX_DEPTH`.
    pub fn solve_handlers(&self) -> (Vec<usize>, f64) {
        assert!(self.depth <= MAX_DEPTH, "per-ply handlers support depth <= {MAX_DEPTH}");
        let prog = self.program();
        let prog = handle(&h_ply3(), prog);
        let prog = handle(&h_ply2(), prog);
        let prog = handle(&h_ply1(), prog);
        let prog = handle(&h_ply0(), prog);
        let (v, play) = prog.run_unwrap();
        (play, v)
    }

    /// The *shared-handler* variant: one `hmax` for all maximiser plies
    /// and one `hmin` for all minimiser plies. For depth ≤ 2 this equals
    /// backward induction (it is the paper's own nesting); for deeper
    /// trees a later op surfacing inside an earlier probe escapes to the
    /// shared handler and the dynamics differ — see module docs.
    pub fn solve_shared_handlers(&self) -> (Vec<usize>, f64) {
        fn go(t: Rc<GameTree>, path: Vec<usize>) -> Sel<f64, Vec<usize>> {
            if path.len() == t.depth {
                let v = t.leaf(&path);
                return loss(v).map(move |_| path.clone());
            }
            let b = t.branching;
            if path.len().is_multiple_of(2) {
                perform::<f64, MaxMove>(b).and_then(move |m| {
                    let mut p = path.clone();
                    p.push(m);
                    go(Rc::clone(&t), p)
                })
            } else {
                perform::<f64, MinMove>(b).and_then(move |m| {
                    let mut p = path.clone();
                    p.push(m);
                    go(Rc::clone(&t), p)
                })
            }
        }
        let prog = go(Rc::new(self.clone()), Vec::new());
        let (v, play) = handle(&hmax(), handle(&hmin(), prog)).run_unwrap();
        (play, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selc_engine::CancelToken;

    /// The private core with no cancellation: `((play, value), leaves)`.
    fn core(t: &GameTree, cache: Option<&AbCache>) -> ((Vec<usize>, f64), u64) {
        let mut leaves = 0;
        let solved = t
            .alphabeta(
                &mut Vec::new(),
                f64::NEG_INFINITY,
                f64::INFINITY,
                &mut leaves,
                cache,
                &CancelToken::never(),
            )
            .expect("a never token cannot cancel");
        (solved, leaves)
    }

    /// The public table solve under a token that cannot fire.
    fn tt(t: &GameTree, cache: &AbCache) -> ((Vec<usize>, f64), u64) {
        let (play, value, leaves) = t
            .solve_alphabeta_tt_cancellable(cache, &CancelToken::never())
            .expect("a never token cannot cancel");
        ((play, value), leaves)
    }

    #[test]
    fn depth_two_matches_paper_shape() {
        // [[5,3],[2,9]] as a depth-2, branching-2 tree
        let t = GameTree { branching: 2, depth: 2, leaves: vec![5.0, 3.0, 2.0, 9.0] };
        assert_eq!(t.solve_backward(), (vec![0, 1], 3.0));
        assert_eq!(t.solve_handlers(), (vec![0, 1], 3.0)); // (Left, Right)
        assert_eq!(t.solve_shared_handlers(), (vec![0, 1], 3.0));
    }

    #[test]
    fn per_ply_handlers_match_backward_induction() {
        for seed in 0..10 {
            for depth in [2usize, 3, 4] {
                let t = GameTree::random(2, depth, seed);
                let (play, v) = t.solve_handlers();
                let (bplay, bv) = t.solve_backward();
                assert_eq!(v, bv, "seed {seed}, depth {depth}");
                assert_eq!(play, bplay, "seed {seed}, depth {depth}");
                assert_eq!(t.leaf(&play), v);
            }
        }
    }

    #[test]
    fn shared_handlers_agree_at_depth_two() {
        for seed in 0..10 {
            let t = GameTree::random(3, 2, seed);
            assert_eq!(t.solve_shared_handlers().1, t.solve_backward().1, "seed {seed}");
        }
    }

    #[test]
    fn shared_handlers_can_diverge_at_depth_three() {
        // Documented divergence: with shared handlers, ply-2 max ops
        // surfacing inside ply-1 min probes escape to the shared hmax.
        let mut diverged = false;
        for seed in 0..10 {
            let t = GameTree::random(2, 3, seed);
            if t.solve_shared_handlers().1 != t.solve_backward().1 {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "expected at least one divergence across seeds");
    }

    /// A tree with leaves drawn from a tiny integer set, so ties abound
    /// at every level.
    fn tied_tree(branching: usize, depth: usize, seed: u64) -> GameTree {
        let mut t = GameTree::random(branching, depth, seed);
        for leaf in &mut t.leaves {
            *leaf = (*leaf / 20.0).floor(); // values in {0..4}: heavy ties
        }
        t
    }

    #[test]
    fn alphabeta_matches_backward_induction_value_and_play() {
        for seed in 0..15 {
            for (branching, depth) in [(2, 3), (2, 5), (3, 4), (4, 2), (2, 8)] {
                let t = GameTree::random(branching, depth, seed);
                assert_eq!(
                    t.solve_alphabeta(),
                    t.solve_backward(),
                    "seed {seed} b {branching} d {depth}"
                );
            }
        }
    }

    #[test]
    fn alphabeta_breaks_ties_leftmost_like_backward_induction() {
        for seed in 0..20 {
            let t = tied_tree(3, 5, seed);
            assert_eq!(t.solve_alphabeta(), t.solve_backward(), "seed {seed}");
        }
    }

    #[test]
    fn alphabeta_actually_cuts() {
        let t = GameTree::random(4, 6, 9);
        let (_, leaves) = core(&t, None);
        let total = t.leaves.len() as u64;
        assert!(leaves < total, "window cuts must skip leaves: {leaves}/{total}");
        // And a depth-1 tree degenerates to a full scan.
        let t1 = GameTree::random(5, 1, 0);
        let (_, l1) = core(&t1, None);
        assert_eq!(l1, 5);
    }

    #[test]
    fn flagged_table_matches_backward_induction_cold_and_warm() {
        for seed in 0..15 {
            for (branching, depth) in [(2, 3), (2, 5), (3, 4), (4, 2), (2, 8)] {
                let t = GameTree::random(branching, depth, seed);
                let reference = t.solve_backward();
                let cache = AbCache::unbounded(4);
                assert_eq!(
                    tt(&t, &cache).0,
                    reference,
                    "cold, seed {seed} b {branching} d {depth}"
                );
                assert_eq!(
                    tt(&t, &cache).0,
                    reference,
                    "warm, seed {seed} b {branching} d {depth}"
                );
            }
        }
    }

    #[test]
    fn flagged_table_breaks_ties_leftmost_like_backward_induction() {
        for seed in 0..20 {
            let t = tied_tree(3, 5, seed);
            let reference = t.solve_backward();
            let cache = AbCache::unbounded(4);
            assert_eq!(tt(&t, &cache).0, reference, "cold, seed {seed}");
            assert_eq!(tt(&t, &cache).0, reference, "warm, seed {seed}");
        }
    }

    #[test]
    fn warm_repeat_answers_from_the_root_entry() {
        let t = GameTree::random(3, 6, 7);
        let cache = AbCache::unbounded(4);
        let (solved, cold_leaves) = tt(&t, &cache);
        assert!(cold_leaves > 0);
        // The table and the table-free path are one search: a cold
        // table has nothing to answer from, so it walks exactly the
        // leaves the table-free core walks.
        assert_eq!((solved.clone(), cold_leaves), core(&t, None));
        // The root window is infinite, so the root entry is Exact and a
        // warm repeat resolves at the root: zero leaves evaluated.
        let (warm, warm_leaves) = tt(&t, &cache);
        assert_eq!(warm, solved);
        assert_eq!(warm_leaves, 0, "warm repeat must be answered from the root entry");
    }

    #[test]
    fn epoch_bump_retires_entries_for_the_next_tree() {
        // One handle serves one tree per epoch: bump it and the same
        // keys must resolve the *new* tree from scratch.
        let a = GameTree::random(2, 6, 11);
        let b = GameTree::random(2, 6, 12);
        let cache = AbCache::unbounded(4);
        assert_eq!(tt(&a, &cache).0, a.solve_backward());
        cache.advance_epoch();
        let (solved, leaves) = tt(&b, &cache);
        assert!(leaves > 0, "stale entries must not answer the new tree");
        assert_eq!(solved, b.solve_backward());
        let (_, warm) = tt(&b, &cache);
        assert_eq!(warm, 0);
    }

    #[test]
    fn cancellable_solver_matches_the_plain_one_under_a_never_token() {
        for seed in 0..10 {
            let t = GameTree::random(3, 5, seed);
            let reference = t.solve_backward();
            let cache = AbCache::unbounded(4);
            assert_eq!(tt(&t, &cache).0, reference, "seed {seed}");
            // And the entries it stored answer the core's table probe.
            let (solved, warm) = core(&t, Some(&cache));
            assert_eq!((solved, warm), (reference, 0), "seed {seed}");
        }
    }

    #[test]
    fn cancelled_solves_return_none_without_poisoning_the_table() {
        let t = GameTree::random(3, 6, 5);
        let reference = t.solve_backward();
        let cache = AbCache::unbounded(4);
        let dead = CancelToken::never();
        dead.cancel();
        assert_eq!(t.solve_alphabeta_tt_cancellable(&cache, &dead), None);
        // A token that fires mid-solve (after some entries are stored)
        // must also abort without a wrong answer or a poisoned entry:
        // simulate by cancelling between two solves of sibling subgames.
        let mid = CancelToken::never();
        let warmup = GameTree::random(3, 6, 5);
        let _ = warmup.solve_alphabeta_tt_cancellable(&cache, &mid);
        mid.cancel();
        assert_eq!(t.solve_alphabeta_tt_cancellable(&cache, &mid), None);
        // Whatever the aborted runs left behind, an un-cancelled solve
        // on the same handle is still bit-identical to the reference.
        assert_eq!(tt(&t, &cache).0, reference);
    }

    #[test]
    fn tiny_capacity_eviction_stays_bit_identical() {
        // A capacity-8 table churns constantly on a 4^4 tree; evictions
        // may cost warmth but never correctness.
        for seed in 0..10 {
            let t = GameTree::random(4, 4, seed);
            let reference = t.solve_backward();
            let cache = AbCache::clock_lru(2, 8);
            for round in 0..3 {
                assert_eq!(tt(&t, &cache).0, reference, "seed {seed} round {round}");
            }
        }
    }

    #[test]
    fn three_way_branching() {
        let t = GameTree::random(3, 3, 4);
        assert_eq!(t.solve_handlers().1, t.solve_backward().1);
    }

    #[test]
    #[should_panic(expected = "depth <= 4")]
    fn depth_five_rejected_by_handler_solver() {
        let t = GameTree::random(2, 5, 0);
        let _ = t.solve_handlers();
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_depth_rejected() {
        let _ = GameTree::random(2, 0, 0);
    }
}
