//! # selc-engine — a parallel, batched selection-search engine
//!
//! The paper's handler semantics turns every choice point into a
//! loss-driven search over candidates, but the `selc` runtime (like the
//! paper's Haskell artifact) explores them strictly sequentially over a
//! non-`Send` `Rc` free-monad tree. This crate is the execution layer
//! that turns candidate exploration into schedulable, parallel, prunable
//! work:
//!
//! * **Replay per worker** — programs cross threads as factories
//!   ([`selc::ReplaySpace`]), never as trees: each worker rebuilds the
//!   candidate's `Sel` program locally (building is pure) and keeps only
//!   the recorded loss. See [`replay`].
//! * **A fixed-size worker pool** — plain `std::thread` workers fed by a
//!   chunked atomic work queue; no external dependencies. Pool size
//!   defaults to the `SELC_THREADS` knob ([`threads::configured_threads`])
//!   so CI and benches are reproducible anywhere.
//! * **Deterministic reduction** — per-worker bests merge lexicographically
//!   by `(loss, index)` under the *total* order [`selc::OrderedLoss`], so
//!   parallel argmin returns bit-identical winners to the sequential scan
//!   regardless of interleaving.
//! * **Branch-and-bound pruning** — workers publish achieved losses into
//!   one atomic word ([`SharedBound`]) and skip candidates whose lower
//!   bound is *strictly* dominated; strictness is exactly what preserves
//!   the deterministic tie-breaking (see [`bound`] for the soundness
//!   argument).
//! * **A sequential fallback** — [`SequentialEngine`] implements the same
//!   [`Engine`] trait and is the oracle of the differential test suites.
//! * **Cache-through evaluation** — a shared `selc-cache` transposition
//!   table threads through a search exactly like the bound does
//!   ([`cached::CachedEval`]): workers stop re-evaluating candidates
//!   another worker — or an earlier search against the same handle —
//!   already scored, and hit/miss/eviction telemetry flows into
//!   [`SearchStats`].
//! * **Prefix-sharing tree search** — spaces that are really decision
//!   *trees* (compiled λC choice points, deep games) run on
//!   [`tree::TreeEngine`]: DFS with the bound consulted at every
//!   interior node, best-first child ordering, and subtree-granularity
//!   work distribution over the saturating [`queue::WorkQueue`] —
//!   bit-identical winners to the flat scan at O(tree nodes) cost.
//!
//! The engine has two fan-outs, and only two: [`ParallelEngine`]'s
//! candidate scan and [`TreeEngine`]'s subtree walk. Downstream, every
//! parallel workload has one entry point that takes its [`Engine`]
//! explicitly — `selc-games` root-splits minimax and n-queens, `selc-ml`
//! batches `tuneLR` grids (optionally through a shared rate cache) and
//! tunes whole training runs, and `selection::par` exposes parallel
//! argmin (plain or cached) and the root-split product.

pub mod bound;
pub mod cached;
pub mod cancel;
pub mod engine;
pub mod queue;
pub mod replay;
pub mod threads;
pub mod tree;

pub use bound::SharedBound;
pub use cached::CachedEval;
pub use cancel::CancelToken;
pub use engine::{
    minimize, CandidateEval, Engine, FnEval, Outcome, ParallelEngine, SearchResult, SearchStats,
    SequentialEngine,
};
pub use queue::WorkQueue;
pub use replay::{search_programs, CacheStatsSink, SelEval};
pub use threads::{configured_threads, THREADS_ENV};
pub use tree::{SummaryProbe, TreeEngine, TreeEval, TreeStep};
