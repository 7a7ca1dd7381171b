//! Engine-backed game solving: root-split parallel minimax and parallel
//! n-queens, one entry point each, both taking the engine explicitly.
//!
//! The root split is the classic parallelisation of backward induction:
//! the first mover's candidates are independent subgames, so each worker
//! replays "fix root move `a`, solve the rest with the usual handlers"
//! locally (handler programs are `Rc` trees and cannot cross threads —
//! they ship as factories, see `selc::ReplaySpace`). The engine's
//! deterministic `(loss, index)` reduction keeps the chosen play
//! bit-identical to the sequential `hmax ∘ hmin` nesting, and its
//! branch-and-bound bound prunes rows whose best conceivable value
//! (the row minimum — the exact subgame value, see `RowEval`) cannot
//! beat a value some worker already achieved.

use crate::bimatrix::Matrix;
use crate::minimax::{hmin, MinMove};
use selc::{handle, loss, perform, Sel};
use selc_engine::{CandidateEval, Engine, Outcome, SharedBound};
use std::sync::Arc;

/// The subgame after the maximiser fixes row `a`: the minimiser moves,
/// the joint loss is recorded, and the chosen column is returned.
fn subgame(table: Arc<Matrix>, a: usize) -> Sel<f64, usize> {
    let cols = table.cols();
    perform::<f64, MinMove>(cols).and_then(move |b| loss(table.entries[a][b]).map(move |_| b))
}

/// Per-row evaluator: replays `handle(hmin, subgame(a))` and scores row
/// `a` by the *negated* game value (the engine minimises; the root
/// player maximises). `lower_bound` is `-(row minimum)`: for a matrix
/// game the subgame value *is* the row minimum, so a cheap scan (no
/// handler machinery, no future replays) gives a tight bound and rows
/// that cannot strictly beat the incumbent value never pay for handler
/// evaluation. Tightness is fine for soundness — strict domination
/// (`lb > best`) still never drops a tying row. In deeper games, where
/// no exact scan exists, a heuristic bound slots into the same hook.
struct RowEval {
    table: Arc<Matrix>,
}

impl CandidateEval<f64> for RowEval {
    fn eval(&self, a: usize, _bound: &SharedBound<f64>) -> Option<f64> {
        let (value, _col) = handle(&hmin(), subgame(Arc::clone(&self.table), a)).run_unwrap();
        Some(-value)
    }

    fn lower_bound(&self, a: usize) -> Option<f64> {
        let row_min = self.table.entries[a].iter().copied().fold(f64::INFINITY, f64::min);
        Some(-row_min)
    }
}

/// Root-split parallel minimax: distributes the maximiser's rows over
/// the engine's worker pool, each worker solving the minimiser's reply
/// with the ordinary `hmin` handler. Returns `((row, col), value)`,
/// bit-identical to [`crate::minimax::minimax_handler`], plus the
/// engine's search telemetry (how many rows were evaluated vs. pruned by
/// the shared bound).
pub fn minimax_root_split(
    table: &Matrix,
    engine: &impl Engine,
) -> ((usize, usize), f64, Outcome<f64>) {
    let table = Arc::new(table.clone());
    let eval = RowEval { table: Arc::clone(&table) };
    let outcome = engine.search(table.rows(), &eval).expect("matrices are non-empty");
    let a = outcome.index;
    // Replay the winning subgame once for the minimiser's reply (pure,
    // so this reproduces exactly the value the search scored).
    let (value, b) = handle(&hmin(), subgame(table, a)).run_unwrap();
    ((a, b), value, outcome)
}

/// Parallel n-queens: splits the first queen's column over the engine's
/// worker pool; each worker finishes the board with the usual product of
/// per-row `argmin` selections under the global attack-count loss.
/// Returns the same placement as [`crate::queens::queens_selection`],
/// including the empty board for `n = 0`.
pub fn queens_parallel(engine: &impl Engine, n: usize) -> Vec<usize> {
    use selection::product::Stage;
    use std::rc::Rc;
    if n == 0 {
        return Vec::new();
    }
    let rest = move || -> Vec<Stage<usize, f64>> {
        (1..n)
            .map(|_| {
                Rc::new(move |_: &[usize]| selection::argmin((0..n).collect::<Vec<usize>>()))
                    as Stage<usize, f64>
            })
            .collect()
    };
    selection::par::par_product_root(engine, (0..n).collect(), rest, |p: &[usize]| {
        crate::queens::attacks(p) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimax::{minimax_handler, minimax_selection};
    use crate::queens::{attacks, queens_selection};
    use selc_engine::{ParallelEngine, SequentialEngine};

    /// The play and value of a root-split solve, telemetry dropped.
    fn solve(m: &Matrix, engine: &impl Engine) -> ((usize, usize), f64) {
        let (play, value, _) = minimax_root_split(m, engine);
        (play, value)
    }

    #[test]
    fn root_split_solves_the_paper_example() {
        let m = Matrix::paper_example();
        assert_eq!(solve(&m, &ParallelEngine::auto()), ((0, 1), 3.0));
    }

    #[test]
    fn root_split_matches_all_sequential_solvers_on_random_tables() {
        for seed in 0..25 {
            let m = Matrix::random(5, 4, seed);
            let expected = minimax_handler(&m);
            assert_eq!(minimax_selection(&m), expected, "seed {seed}");
            for threads in [1, 2, 4] {
                for prune in [false, true] {
                    let eng = ParallelEngine { threads, chunk: 1, prune };
                    assert_eq!(
                        solve(&m, &eng),
                        expected,
                        "seed {seed} threads {threads} prune {prune}"
                    );
                }
            }
            assert_eq!(
                solve(&m, &SequentialEngine::pruning()),
                expected,
                "seed {seed} sequential+prune"
            );
        }
    }

    #[test]
    fn pruning_skips_dominated_rows() {
        // Row 0 achieves value 5; rows 1.. have minima below 5, so with a
        // chunk covering row 0 first the rest are pruned.
        let mut rows = vec![vec![5.0, 6.0, 7.0]];
        for i in 0..6 {
            rows.push(vec![1.0 + f64::from(i) * 0.1; 3]);
        }
        let m = Matrix::new(rows);
        let (play, value, outcome) = minimax_root_split(&m, &SequentialEngine::pruning());
        assert_eq!((play, value), ((0, 0), 5.0));
        assert_eq!(outcome.stats.pruned, 6, "stats: {:?}", outcome.stats);
    }

    #[test]
    fn queens_parallel_matches_selection_product() {
        let eng = ParallelEngine::auto();
        for n in [0, 1, 4, 5] {
            let par = queens_parallel(&eng, n);
            let seq = queens_selection(n);
            assert_eq!(par, seq, "n = {n}");
        }
        // Unsolvable boards still minimise attacks identically.
        assert_eq!(attacks(&queens_parallel(&eng, 3)), 1);
        assert_eq!(queens_parallel(&eng, 3), queens_selection(3));
    }
}
