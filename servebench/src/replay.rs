//! The replay: the served request streams run again in-process, one
//! request at a time, through each layer's public functions, with no
//! TCP.
//!
//! Two passes over the same prefix of the streams, each on a fresh
//! tenant registry pre-warmed exactly as the server was:
//!
//! * the **plain** pass handles each request the way a session worker
//!   does (decode, validate, tenant lookup, `selc_serve::workload::run`,
//!   encode) and times it whole — the "direct handling" time that the
//!   client latency is compared against;
//! * the **traced** pass makes the same calls one layer at a time, with
//!   the tree search's evaluator wrapped in [`Timed`], and records a
//!   span around every call. Spans stay in memory; per-layer figures
//!   are computed from them, and the spans of the first requests are
//!   written out at the end.
//!
//! Both passes must reproduce what the served run reported for every
//! request whose work is deterministic (see [`self_check`]): that is
//! the evidence the replay measured the same work the server did.

use crate::alloc;
use crate::served::Sample;
use crate::stats::{median_ns, percentile, ratio, Metrics};
use crate::traffic::{judge, prewarm, Kind, Op, References, Verdict, CLIENTS};
use lambda_rt::{LcTreeEval, OrdLossVal};
use selc_cache::{CacheStats, SubtreeSummary};
use selc_engine::tree::{SummaryProbe, TreeEngine, TreeEval, TreeStep};
use selc_engine::{CancelToken, SearchResult};
use selc_serve::workload::{self, Ran};
use selc_serve::{
    check_decision_shape, validate, Request, Response, Tenants, WarmthPolicy, WireStats, Workload,
};
use std::collections::HashSet;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Stream requests whose spans are written out. Every span is kept in
/// memory until its request's figures are folded in; only these first
/// requests' spans are kept to the end and written (a cold request alone
/// has about 5000).
const WRITTEN_REQUESTS: u32 = 16;

/// Where span files go, relative to the working directory.
pub const OUT_DIR: &str = ".servebench-out";

fn cancel_token(deadline_ms: u32) -> CancelToken {
    if deadline_ms > 0 {
        CancelToken::with_timeout(Duration::from_millis(u64::from(deadline_ms)))
    } else {
        CancelToken::never()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The replay order: the clients' streams interleaved round robin.
/// Tenant ranges are disjoint, so any interleaving gives each request
/// the warmth it met when served.
fn interleave(streams: &[Vec<Sample>]) -> Vec<(usize, usize)> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            (0..streams.len()).filter(move |&c| i < streams[c].len()).map(move |c| (c, i))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Plain pass
// ---------------------------------------------------------------------

/// One request handled as a session worker handles it, minus the
/// socket and the disconnect watcher.
fn handle_plain(tenants: &Tenants, payload: &[u8]) -> Vec<u8> {
    let response = match Request::decode(payload) {
        Err(msg) => Response::Malformed(msg),
        Ok(Request::BumpEpoch { tenant }) => Response::EpochBumped { epoch: tenants.bump(tenant) },
        Ok(Request::Metrics) => Response::Error("metrics scrapes are not replayed".to_owned()),
        Ok(Request::Search { tenant, deadline_ms, workload }) => match validate(&workload) {
            Err(msg) => Response::Malformed(msg),
            Ok(()) => {
                let tenant = tenants.get_or_create(tenant);
                let cancel = cancel_token(deadline_ms);
                match workload::run(&tenant, &workload, &cancel, deadline_ms > 0) {
                    Ran::Done { index, loss, stats } => Response::Ok { index, loss, stats },
                    Ran::TimedOut { partial } => Response::Timeout { partial },
                    Ran::Rejected(msg) => Response::Malformed(msg),
                }
            }
        },
    };
    response.encode()
}

fn decode_response(bytes: &[u8]) -> Option<Response> {
    Response::decode(bytes).ok()
}

/// What the plain pass measured.
pub struct Plain {
    /// How many requests of the interleaved order it replayed.
    pub replayed: usize,
    /// Direct-handling time of each, in replay order.
    pub handle_ns: Vec<u64>,
    pub responses: Vec<Option<Response>>,
}

/// Replays the interleaved streams until `budget` runs out (at least
/// one request per client).
pub fn plain(kind: Kind, streams: &[Vec<Sample>], budget: Duration) -> Plain {
    let tenants = Tenants::default();
    for c in 0..CLIENTS {
        for op in prewarm(kind, c) {
            handle_plain(&tenants, &op.request().encode());
        }
    }
    let order = interleave(streams);
    let started = Instant::now();
    let mut out = Plain { replayed: 0, handle_ns: Vec::new(), responses: Vec::new() };
    for &(c, i) in &order {
        if out.replayed >= CLIENTS && started.elapsed() >= budget {
            break;
        }
        let payload = streams[c][i].op.request().encode();
        let t0 = Instant::now();
        let reply = handle_plain(&tenants, &payload);
        out.handle_ns.push(elapsed_ns(t0));
        out.responses.push(decode_response(&reply));
        out.replayed += 1;
    }
    out
}

// ---------------------------------------------------------------------
// Spans and the timed evaluator
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Name {
    Request,
    Decode,
    Encode,
    Lookup,
    Create,
    Compile,
    Flow,
    Bump,
    Search,
    Enter,
    Child,
    ProbeSummary,
    InstallSummary,
    Generate,
    Solve,
}

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::Decode => "protocol.decode",
            Name::Encode => "protocol.encode",
            Name::Lookup => "tenants.lookup",
            Name::Create => "tenants.create",
            Name::Compile => "tenants.compile",
            Name::Flow => "flow.analyze",
            Name::Bump => "tenants.bump",
            Name::Search => "tree.search",
            Name::Enter => "lc_tree.enter",
            Name::Child => "lc_tree.child",
            Name::ProbeSummary => "lc_tree.probe_summary",
            Name::InstallSummary => "lc_tree.install_summary",
            Name::Generate => "games.generate",
            Name::Solve => "games.solve",
        }
    }
}

/// One timed call. `parent` is the id of the span that caused it (0 for
/// a request's root span); spans of one request share `req`.
#[derive(Clone, Copy)]
struct Span {
    req: u32,
    id: u32,
    parent: u32,
    name: Name,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
    /// Allocations on the span's thread during the call (evaluator
    /// calls only; whole requests are counted process-wide).
    allocs: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    // ordering: Relaxed — the ids only need to be unique.
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Span buffers, one per thread shard, each on its own cache lines: the
/// two search workers record into different buffers, so tracing adds no
/// lock or cache-line traffic between them.
const SHARDS: usize = 8;

#[repr(align(128))]
struct Shard(Mutex<Vec<Span>>);

struct Recorder {
    epoch: Instant,
    shards: [Shard; SHARDS],
    next_id: AtomicU32,
    /// Request the spans being recorded belong to.
    req: AtomicU32,
    /// Span evaluator calls hang under: the running `tree.search`.
    parent: AtomicU32,
    /// Allocations made by growing the buffers, so they can be taken
    /// out of the per-request count.
    own_allocs: AtomicU64,
}

// ordering: every atomic in `Recorder` is Relaxed. `req` and `parent`
// are stored by the replay thread before it starts the search whose
// workers read them, and thread spawn orders those stores before the
// workers' loads; ids only need uniqueness; `own_allocs` is a statistic.
impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            shards: std::array::from_fn(|_| Shard(Mutex::new(Vec::with_capacity(1 << 14)))),
            next_id: AtomicU32::new(1),
            req: AtomicU32::new(0),
            parent: AtomicU32::new(0),
            own_allocs: AtomicU64::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, name: Name, id: u32, parent: u32, t0: Instant, t1: Instant, allocs: u64) {
        let thread = THREAD_ID.with(|t| *t);
        let span = Span {
            // ordering: Relaxed — stored before the search's workers were spawned.
            req: self.req.load(Ordering::Relaxed),
            id,
            parent,
            name,
            thread,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            allocs,
        };
        let shard = &self.shards[thread as usize % SHARDS];
        let mut spans = shard.0.lock().expect("span buffer lock poisoned");
        if spans.len() == spans.capacity() {
            // ordering: Relaxed — a statistic, read after the search is joined.
            self.own_allocs.fetch_add(1, Ordering::Relaxed);
        }
        spans.push(span);
    }

    fn fresh_id(&self) -> u32 {
        // ordering: Relaxed — the ids only need to be unique.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Times `f` as a span under `parent`; `f` gets the span's own id
    /// to hang children on.
    fn span<T>(&self, name: Name, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.fresh_id();
        let t0 = Instant::now();
        let out = f(id);
        let t1 = Instant::now();
        self.push(name, id, parent, t0, t1, 0);
        out
    }

    /// Times one evaluator call on whichever worker makes it. Its id is
    /// given out by [`Recorder::take`]: nothing hangs under a leaf call.
    fn call<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::thread_allocs();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let allocs = alloc::thread_allocs() - a0;
        // ordering: Relaxed — stored before the search's workers were spawned.
        self.push(name, 0, self.parent.load(Ordering::Relaxed), t0, t1, allocs);
        out
    }

    /// Moves every recorded span into `into`, giving leaf calls their ids.
    fn take(&self, into: &mut Vec<Span>) {
        for shard in &self.shards {
            for mut span in shard.0.lock().expect("span buffer lock poisoned").drain(..) {
                if span.id == 0 {
                    span.id = self.fresh_id();
                }
                into.push(span);
            }
        }
    }
}

/// A [`TreeEval`] that delegates every method to the wrapped evaluator
/// and records a span around each `enter`, `child`, `probe_summary` and
/// `install_summary`. It changes nothing the engine sees.
struct Timed<'r, E> {
    inner: E,
    rec: &'r Recorder,
}

impl<E: TreeEval<OrdLossVal>> TreeEval<OrdLossVal> for Timed<'_, E> {
    type Node = E::Node;

    fn depth(&self) -> u32 {
        self.inner.depth()
    }

    fn enter(&self, prefix: u64, len: u32) -> TreeStep<E::Node, OrdLossVal> {
        self.rec.call(Name::Enter, || self.inner.enter(prefix, len))
    }

    fn child(
        &self,
        node: &E::Node,
        decision: bool,
        path: u64,
        len: u32,
    ) -> TreeStep<E::Node, OrdLossVal> {
        self.rec.call(Name::Child, || self.inner.child(node, decision, path, len))
    }

    fn hint_is_lower_bound(&self) -> bool {
        self.inner.hint_is_lower_bound()
    }

    fn min_leaf_depth(&self) -> u32 {
        self.inner.min_leaf_depth()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn probe_summary(&self, bits: u64, len: u32) -> SummaryProbe<OrdLossVal> {
        self.rec.call(Name::ProbeSummary, || self.inner.probe_summary(bits, len))
    }

    fn install_summary(&self, bits: u64, len: u32, summary: SubtreeSummary<OrdLossVal>) {
        self.rec.call(Name::InstallSummary, || self.inner.install_summary(bits, len, summary));
    }

    fn seed_bits(&self) -> Option<u64> {
        self.inner.seed_bits()
    }
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

/// Mirrors `selc_serve::workload`'s private stats flattening.
fn wire_stats(s: &selc_engine::SearchStats) -> WireStats {
    WireStats {
        evaluated: s.evaluated,
        pruned: s.pruned,
        threads: s.threads as u64,
        cache_hits: s.cache.hits,
        cache_misses: s.cache.misses,
        cache_insertions: s.cache.insertions,
        cache_evictions: s.cache.evictions,
        summary_exact_hits: s.summary.exact_hits,
        summary_bound_hits: s.summary.bound_hits,
        summary_misses: s.summary.misses,
        summary_exact_installs: s.summary.exact_installs,
        summary_bound_installs: s.summary.bound_installs,
    }
}

/// Per-layer sums and samples over the measured stream requests (the
/// first-contact layers also take the pre-warm's samples).
#[derive(Default)]
struct Layers {
    requests: u64,
    request_allocs: u64,
    decode_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    lookup_ns: Vec<u64>,
    create_ns: Vec<u64>,
    compile_ns: Vec<u64>,
    flow_ns: Vec<u64>,
    bump_ns: Vec<u64>,
    // tree search (chain requests)
    chains: u64,
    search_ns: Vec<u64>,
    self_ns: Vec<u64>,
    busy_ns: u128,
    wall_workers_ns: u128,
    workers: u64,
    enter_calls: u64,
    child_calls: u64,
    child_ns: u128,
    child_allocs: u64,
    probe_calls: u64,
    probe_ns: u128,
    install_calls: u64,
    machine_leaves: u64,
    evaluated: u64,
    pruned: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_evictions: u64,
    summary_exact_hits: u64,
    // games
    games: u64,
    generate_ns: Vec<u64>,
    solve_ns: Vec<u64>,
    game_leaves: u64,
    tt_hits: u64,
    tt_lookups: u64,
}

/// Work counts the spans cannot show, gathered while handling.
#[derive(Default)]
struct Counts {
    chain: Option<WireStats>,
    machine_leaves: u64,
    game: Option<(u64, CacheStats)>,
}

struct Traced<'r> {
    rec: &'r Recorder,
    tenants: Tenants,
    seen_tenants: HashSet<u64>,
    seen_chains: HashSet<(u64, u8)>,
    seen_games: HashSet<(u64, u64)>,
    machine_leaves: selc_obs::Counter,
}

impl Traced<'_> {
    /// Handles one request with a span around every layer call;
    /// returns the encoded response.
    fn handle(&mut self, payload: &[u8], counts: &mut Counts) -> Vec<u8> {
        let rec = self.rec;
        rec.span(Name::Request, 0, |root| {
            let request = rec.span(Name::Decode, root, |_| Request::decode(payload));
            let response = match request {
                Err(msg) => Response::Malformed(msg),
                Ok(Request::Metrics) => {
                    Response::Error("metrics scrapes are not replayed".to_owned())
                }
                Ok(Request::BumpEpoch { tenant }) => {
                    let epoch = rec.span(Name::Bump, root, |_| self.tenants.bump(tenant));
                    self.seen_tenants.insert(tenant);
                    Response::EpochBumped { epoch }
                }
                Ok(Request::Search { tenant, deadline_ms, workload }) => {
                    match validate(&workload) {
                        Err(msg) => Response::Malformed(msg),
                        Ok(()) => self.search(root, tenant, deadline_ms, workload, counts),
                    }
                }
            };
            rec.span(Name::Encode, root, |_| response.encode())
        })
    }

    fn search(
        &mut self,
        root: u32,
        id: u64,
        deadline_ms: u32,
        workload: Workload,
        counts: &mut Counts,
    ) -> Response {
        let rec = self.rec;
        let first_contact = self.seen_tenants.insert(id);
        let lookup = if first_contact { Name::Create } else { Name::Lookup };
        let tenant = rec.span(lookup, root, |_| self.tenants.get_or_create(id));
        let cancel = cancel_token(deadline_ms);
        match workload {
            Workload::Chain { choices } => {
                let first_use = self.seen_chains.insert((id, choices));
                let layer = if first_use { Name::Compile } else { Name::Lookup };
                let cands = rec.span(layer, root, |_| tenant.chain(choices));
                // The flow report is computed on a handle's first shape
                // check and memoised after that.
                let shape = if first_use {
                    rec.span(Name::Flow, root, |_| check_decision_shape(&cands))
                } else {
                    check_decision_shape(&cands)
                };
                if let Err(msg) = shape {
                    return Response::Malformed(msg);
                }
                let policy = WarmthPolicy::choose(cands.flow_report().certified(), deadline_ms > 0);
                let cert = match policy {
                    WarmthPolicy::CertifiedPrune => cands.certificate(),
                    WarmthPolicy::ExactSummaries => None,
                };
                let leaves_before = self.machine_leaves.get();
                let result = rec.span(Name::Search, root, |search| {
                    // ordering: Relaxed — spawning the workers orders this store before their loads.
                    rec.parent.store(search, Ordering::Relaxed);
                    let mut eval = LcTreeEval::new(cands.clone()).with_cache(&tenant.lc);
                    if let Some(cert) = cert {
                        eval = eval.with_nonneg_certificate(cert);
                    }
                    TreeEngine::auto().search_with(&Timed { inner: eval, rec }, &cancel)
                });
                counts.machine_leaves = self.machine_leaves.get() - leaves_before;
                match result {
                    SearchResult::Complete(out) => {
                        let out = out.expect("validated chains have non-empty spaces");
                        let stats = wire_stats(&out.stats);
                        counts.chain = Some(stats);
                        Response::Ok {
                            index: out.index as u64,
                            loss: out.loss.0.as_scalar(),
                            stats,
                        }
                    }
                    SearchResult::Cancelled(partial) => Response::Timeout {
                        partial: partial.map(|o| (o.index as u64, o.loss.0.as_scalar())),
                    },
                }
            }
            Workload::Game { branching, depth, seed } => {
                let layer =
                    if self.seen_games.insert((id, seed)) { Name::Generate } else { Name::Lookup };
                let entry = rec.span(layer, root, |_| tenant.game(branching, depth, seed));
                let base = entry.cache.stats();
                let solved = rec.span(Name::Solve, root, |_| {
                    entry.tree.solve_alphabeta_tt_cancellable(&entry.cache, &cancel)
                });
                let delta = entry.cache.stats().since(&base);
                match solved {
                    Some((play, value, leaves)) => {
                        counts.game = Some((leaves, delta));
                        let index =
                            play.iter().fold(0u64, |acc, &m| acc * u64::from(branching) + m as u64);
                        let stats = WireStats {
                            evaluated: leaves,
                            threads: 1,
                            cache_hits: delta.hits,
                            cache_misses: delta.misses,
                            cache_insertions: delta.insertions,
                            cache_evictions: delta.evictions,
                            ..WireStats::default()
                        };
                        Response::Ok { index, loss: value, stats }
                    }
                    None => Response::Timeout { partial: None },
                }
            }
        }
    }
}

/// Search wall time not covered by any evaluator call on any worker:
/// the span's duration minus the union of its children's intervals.
fn self_time(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0, parent.start_ns);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(parent.end_ns));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur().saturating_sub(covered)
}

impl Layers {
    /// Folds one request's spans (and counts) into the sums. Pre-warm
    /// requests only feed the first-contact layers.
    fn add(&mut self, spans: &[Span], counts: &Counts, allocs: u64, measured: bool) {
        for span in spans {
            let d = span.dur();
            match span.name {
                Name::Create => self.create_ns.push(d),
                Name::Compile => self.compile_ns.push(d),
                Name::Flow => self.flow_ns.push(d),
                Name::Generate => self.generate_ns.push(d),
                _ => {}
            }
        }
        if !measured {
            return;
        }
        self.requests += 1;
        self.request_allocs += allocs;
        let mut lookup = None;
        for span in spans {
            let d = span.dur();
            match span.name {
                Name::Decode => self.decode_ns.push(d),
                Name::Encode => self.encode_ns.push(d),
                Name::Bump => self.bump_ns.push(d),
                Name::Solve => self.solve_ns.push(d),
                Name::Lookup => *lookup.get_or_insert(0) += d,
                Name::Search => {
                    let mut children: Vec<(u64, u64)> = spans
                        .iter()
                        .filter(|c| c.parent == span.id)
                        .map(|c| (c.start_ns, c.end_ns))
                        .collect();
                    let busy: u64 = children.iter().map(|(s, e)| e - s).sum();
                    self.search_ns.push(d);
                    self.self_ns.push(self_time(span, &mut children));
                    self.busy_ns += u128::from(busy);
                    let workers = counts.chain.map_or(1, |s| s.threads);
                    self.wall_workers_ns += u128::from(d) * u128::from(workers);
                }
                Name::Enter => self.enter_calls += 1,
                Name::Child => {
                    self.child_calls += 1;
                    self.child_ns += u128::from(d);
                    self.child_allocs += span.allocs;
                }
                Name::ProbeSummary => {
                    self.probe_calls += 1;
                    self.probe_ns += u128::from(d);
                }
                Name::InstallSummary => self.install_calls += 1,
                _ => {}
            }
        }
        if let Some(ns) = lookup {
            self.lookup_ns.push(ns);
        }
        if let Some(s) = counts.chain {
            self.chains += 1;
            self.workers += s.threads;
            self.machine_leaves += counts.machine_leaves;
            self.evaluated += s.evaluated;
            self.pruned += s.pruned;
            self.cache_hits += s.cache_hits;
            self.cache_lookups += s.cache_hits + s.cache_misses;
            self.cache_evictions += s.cache_evictions;
            self.summary_exact_hits += s.summary_exact_hits;
        }
        if let Some((leaves, tt)) = counts.game {
            self.games += 1;
            self.game_leaves += leaves;
            self.tt_hits += tt.hits;
            self.tt_lookups += tt.lookups();
        }
    }
}

/// What the traced pass measured.
pub struct Trace {
    pub handle_ns: Vec<u64>,
    pub responses: Vec<Option<Response>>,
    layers: Layers,
}

/// Replays the first `replayed` requests of the interleaved streams
/// with spans, after a traced pre-warm; writes the spans of the first
/// [`WRITTEN_REQUESTS`] stream requests to `spans_path`.
pub fn traced(
    kind: Kind,
    streams: &[Vec<Sample>],
    replayed: usize,
    spans_path: &Path,
) -> io::Result<Trace> {
    let rec = Recorder::new();
    let mut t = Traced {
        rec: &rec,
        tenants: Tenants::default(),
        seen_tenants: HashSet::new(),
        seen_chains: HashSet::new(),
        seen_games: HashSet::new(),
        machine_leaves: selc_obs::metrics::counter("lc.machine_leaves"),
    };
    let warm: Vec<Op> = (0..CLIENTS).flat_map(|c| prewarm(kind, c)).collect();
    let stream: Vec<Op> =
        interleave(streams)[..replayed].iter().map(|&(c, i)| streams[c][i].op).collect();
    let first_stream = u32::try_from(warm.len()).unwrap_or(u32::MAX);
    let keep = first_stream..first_stream.saturating_add(WRITTEN_REQUESTS);
    let mut out = Trace { handle_ns: Vec::new(), responses: Vec::new(), layers: Layers::default() };
    let mut spans = Vec::new();
    alloc::set_counting(true);
    for (req, op) in warm.iter().chain(&stream).enumerate() {
        let req = u32::try_from(req).unwrap_or(u32::MAX);
        let measured = req as usize >= warm.len();
        let payload = op.request().encode();
        // ordering: Relaxed throughout — no search is running here, and
        // spawning or joining its workers orders these against theirs.
        rec.req.store(req, Ordering::Relaxed);
        let mut counts = Counts::default();
        // ordering: Relaxed — as above.
        let (allocs0, own0) = (alloc::total_allocs(), rec.own_allocs.load(Ordering::Relaxed));
        let t0 = Instant::now();
        let reply = t.handle(&payload, &mut counts);
        let handle_ns = elapsed_ns(t0);
        // ordering: Relaxed — as above.
        let own = rec.own_allocs.load(Ordering::Relaxed) - own0;
        let allocs = (alloc::total_allocs() - allocs0).saturating_sub(own);
        let first_span = spans.len();
        rec.take(&mut spans);
        out.layers.add(&spans[first_span..], &counts, allocs, measured);
        if !keep.contains(&req) {
            spans.truncate(first_span);
        }
        if measured {
            out.handle_ns.push(handle_ns);
            out.responses.push(decode_response(&reply));
        }
    }
    alloc::set_counting(false);
    write_spans(&spans, spans_path)?;
    Ok(out)
}

/// Tab-separated, one span a line, in the order they closed.
fn write_spans(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "req\tid\tparent\tname\tthread\tstart_ns\tdur_ns\tallocs")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.req,
            s.id,
            s.parent,
            s.name.label(),
            s.thread,
            s.start_ns,
            s.dur(),
            s.allocs
        )?;
    }
    w.flush()
}

// ---------------------------------------------------------------------
// Self-check and per-layer metrics
// ---------------------------------------------------------------------

/// The counters a served response and its replay must agree on. Every
/// `WireStats` field except `cache_misses`: with two workers, whether a
/// worker's first leaf probes the leaf cache depends on whether the
/// other worker has already recorded a leaf depth, so the miss count of
/// a first-contact walk can differ by a probe or two between runs.
fn repeatable(s: &WireStats) -> WireStats {
    WireStats { cache_misses: 0, ..*s }
}

/// Compares each replayed response with the served one. For unpruned
/// chains and games the winner and the repeatable counters must match;
/// every answer must be the reference winner; epoch acks must match.
/// Returns the first few disagreements.
pub fn self_check(
    refs: &References,
    streams: &[Vec<Sample>],
    pass: &str,
    responses: &[Option<Response>],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (&(c, i), replayed) in interleave(streams).iter().zip(responses) {
        let sample = &streams[c][i];
        let op = sample.op;
        if judge(refs, op, replayed.as_ref()) != Verdict::Correct {
            problems.push(format!("{pass} replay of {op:?} answered {replayed:?}"));
        }
        let agree = match (&sample.response, replayed) {
            (Some(Response::Ok { .. }), _)
                if matches!(op, Op::Chain { .. }) && !op.is_exact_chain() =>
            {
                true // pruned with two workers: work varies run to run
            }
            (
                Some(Response::Ok { index: i1, loss: l1, stats: s1 }),
                Some(Response::Ok { index: i2, loss: l2, stats: s2 }),
            ) => (i1, l1.to_bits(), repeatable(s1)) == (i2, l2.to_bits(), repeatable(s2)),
            (
                Some(Response::EpochBumped { epoch: e1 }),
                Some(Response::EpochBumped { epoch: e2 }),
            ) => e1 == e2,
            // A request that failed when served has nothing to agree with.
            (None | Some(Response::Busy | Response::Timeout { .. }), _) => true,
            _ => false,
        };
        if !agree {
            problems.push(format!(
                "{pass} replay of {op:?} disagrees with the served run: served {:?}, replayed {replayed:?}",
                sample.response
            ));
        }
        if problems.len() >= 5 {
            break;
        }
    }
    problems
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(
    streams: &[Vec<Sample>],
    plain: &Plain,
    trace: &Trace,
    warm_share: f64,
) -> Metrics {
    let l = &trace.layers;
    let per = |n: u64, d: u64| ratio(n as f64, d as f64);
    let mut client_ns: Vec<u64> = interleave(streams)[..plain.replayed]
        .iter()
        .map(|&(c, i)| streams[c][i].latency_ns)
        .collect();
    client_ns.sort_unstable();
    let client_p50 = percentile(&client_ns, 50.0).unwrap_or(0) as f64;
    let direct_p50 = median_ns(&plain.handle_ns, 1.0);
    let plain_total: u64 = plain.handle_ns.iter().sum();
    let traced_total: u64 = trace.handle_ns.iter().sum();

    let mut m = Metrics::default();
    m.put("protocol.decode_ns", median_ns(&l.decode_ns, 1.0), "ns");
    m.put("protocol.encode_ns", median_ns(&l.encode_ns, 1.0), "ns");
    m.put("server.overhead_us", (client_p50 - direct_p50) / 1e3, "us");
    m.put("tenants.lookup_ns", median_ns(&l.lookup_ns, 1.0), "ns");
    m.put("tree.search_us", median_ns(&l.search_ns, 1e3), "us");
    m.put("tree.self_us", median_ns(&l.self_ns, 1e3), "us");
    m.put("tree.workers", per(l.workers, l.chains), "threads");
    m.put("tree.eval_share", ratio(l.busy_ns as f64, l.wall_workers_ns as f64), "ratio");
    m.put("lc_tree.probe_summary_calls", per(l.probe_calls, l.chains), "calls/req");
    m.put("lc_tree.probe_summary_ns", ratio(l.probe_ns as f64, l.probe_calls as f64), "ns");
    m.put("lc_tree.enter_calls", per(l.enter_calls, l.chains), "calls/req");
    m.put("lc_tree.child_calls", per(l.child_calls, l.chains), "calls/req");
    m.put("lc_tree.child_ns", ratio(l.child_ns as f64, l.child_calls as f64), "ns");
    m.put("lc_tree.child_allocs", per(l.child_allocs, l.child_calls), "allocs/call");
    m.put("machine.leaves", per(l.machine_leaves, l.chains), "leaves/req");
    m.put("request.allocs", per(l.request_allocs, l.requests), "allocs/req");
    m.put("tenants.create_us", median_ns(&l.create_ns, 1e3), "us");
    m.put("tenants.compile_us", median_ns(&l.compile_ns, 1e3), "us");
    m.put("flow.analyze_us", median_ns(&l.flow_ns, 1e3), "us");
    m.put("lc_tree.install_summary_calls", per(l.install_calls, l.chains), "calls/req");
    m.put("cache.hit_rate", per(l.cache_hits, l.cache_lookups), "ratio");
    m.put("cache.evictions", l.cache_evictions as f64, "count");
    m.put("summary.exact_hits", per(l.summary_exact_hits, l.chains), "hits/req");
    m.put("tenants.bump_us", median_ns(&l.bump_ns, 1e3), "us");
    m.put("tree.pruned_share", per(l.pruned, l.evaluated + l.pruned), "ratio");
    m.put("games.generate_us", median_ns(&l.generate_ns, 1e3), "us");
    m.put("games.solve_us", median_ns(&l.solve_ns, 1e3), "us");
    m.put("games.leaves", per(l.game_leaves, l.games), "leaves/req");
    m.put("games.tt_hit_rate", per(l.tt_hits, l.tt_lookups), "ratio");
    m.put("warm_share", warm_share, "ratio");
    m.put(
        "trace.overhead_share",
        ratio(traced_total as f64 - plain_total as f64, plain_total as f64),
        "ratio",
    );
    m
}
