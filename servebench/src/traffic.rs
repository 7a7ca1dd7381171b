//! Seeded traffic: the three workloads, their per-client request
//! streams and pre-warm lists, and the reference winners every `Ok`
//! response is checked against.
//!
//! Each client owns a disjoint tenant range, so the warmth a request
//! meets (and every counter the server reports for it) depends only on
//! the seed and that client's own earlier requests, never on how the
//! clients interleave. That is what lets the traced replay re-run the
//! same streams one request at a time and expect the same counters.

use lambda_rt::{search_compiled, LcCandidates};
use selc_engine::TreeEngine;
use selc_games::alternating::GameTree;
use selc_serve::{Request, Response, Workload};
use std::collections::BTreeMap;

/// Client connections per workload (one thread each).
pub const CLIENTS: usize = 2;

/// Tenants per client in `warm_repeat` and `mixed_tenants`.
const TENANTS: u64 = 8;

/// `cold_chain` set-up: first-contact requests per client on tenants
/// outside the measured range, so the process's lazy state (allocator
/// arenas, code pages, thread stacks) is warm before timing.
const COLD_WARMUP: u64 = 8;

/// Game shape in `mixed_tenants`: `4^8 = 65536` leaves.
const GAME_BRANCHING: u8 = 4;
const GAME_DEPTH: u8 = 8;
/// Game seeds `0..GAME_SEEDS` in `mixed_tenants`.
const GAME_SEEDS: u64 = 5;

/// Deadline on `mixed_tenants`' `Chain{14}` searches. It makes them
/// deadline-bound (so the server picks `CertifiedPrune`) and is far
/// longer than any of them takes.
const PRUNED_DEADLINE_MS: u32 = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmRepeat,
    ColdChain,
    MixedTenants,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "warm_repeat" => Some(Kind::WarmRepeat),
            "cold_chain" => Some(Kind::ColdChain),
            "mixed_tenants" => Some(Kind::MixedTenants),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmRepeat => "warm_repeat",
            Kind::ColdChain => "cold_chain",
            Kind::MixedTenants => "mixed_tenants",
        }
    }

    /// Chain depths the workload requests (reference winners needed).
    fn chain_depths(self) -> &'static [u8] {
        match self {
            Kind::WarmRepeat => &[12],
            Kind::ColdChain => &[10],
            Kind::MixedTenants => &[8, 10, 12, 14],
        }
    }

    fn game_seeds(self) -> u64 {
        match self {
            Kind::MixedTenants => GAME_SEEDS,
            _ => 0,
        }
    }
}

/// One request of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Chain { tenant: u64, choices: u8, deadline_ms: u32 },
    Game { tenant: u64, seed: u64 },
    Bump { tenant: u64 },
}

impl Op {
    pub fn request(self) -> Request {
        match self {
            Op::Chain { tenant, choices, deadline_ms } => {
                Request::Search { tenant, deadline_ms, workload: Workload::Chain { choices } }
            }
            Op::Game { tenant, seed } => Request::Search {
                tenant,
                deadline_ms: 0,
                workload: Workload::Game { branching: GAME_BRANCHING, depth: GAME_DEPTH, seed },
            },
            Op::Bump { tenant } => Request::BumpEpoch { tenant },
        }
    }

    /// Label in the printed op mix.
    pub fn label(self) -> &'static str {
        match self {
            Op::Chain { choices: 8, .. } => "chain8",
            Op::Chain { choices: 10, .. } => "chain10",
            Op::Chain { choices: 12, .. } => "chain12",
            Op::Chain { choices: 14, .. } => "chain14_deadline",
            Op::Chain { .. } => "chain_other",
            Op::Game { .. } => "game",
            Op::Bump { .. } => "bump_epoch",
        }
    }

    /// Whether the server runs this search under `ExactSummaries`: an
    /// unpruned walk, whose counters repeat exactly from run to run.
    /// (The served chains are all flow-certified, so only the deadline
    /// decides; see `selc_serve::WarmthPolicy`.)
    pub fn is_exact_chain(self) -> bool {
        matches!(self, Op::Chain { deadline_ms: 0, .. })
    }
}

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by
/// its seed on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below anything measured).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// First tenant id of a client's range; ranges are 2^32 apart.
fn client_base(client: usize) -> u64 {
    (client as u64 + 1) << 32
}

/// `mixed_tenants`' op mix, one block of 60 requests: 65% exact chains
/// (8, 10 and 12 decisions alike), 15% deadline-bound `Chain{14}`, 15%
/// games, 5% epoch bumps. Each block of the stream is this list with
/// seeded tenants and game seeds, shuffled, so every run sends the mix
/// exactly and only the order is random. (Drawing each op independently
/// made the bump count, and with it the share of warm answers, differ by
/// several percent from seed to seed.)
const MIXED_BLOCK: [(MixedSlot, usize); 6] = [
    (MixedSlot::Exact(8), 13),
    (MixedSlot::Exact(10), 13),
    (MixedSlot::Exact(12), 13),
    (MixedSlot::Pruned, 9),
    (MixedSlot::Game, 9),
    (MixedSlot::Bump, 3),
];

#[derive(Clone, Copy)]
enum MixedSlot {
    Exact(u8),
    Pruned,
    Game,
    Bump,
}

/// One client's endless, seeded request stream.
pub struct Stream {
    kind: Kind,
    rng: Rng,
    base: u64,
    fresh: u64,
    /// The rest of the current `mixed_tenants` block, popped from the end.
    block: Vec<Op>,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64, client: usize) -> Stream {
        let mut rng = Rng::new(seed ^ (client as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
        // Fresh `cold_chain` tenants start at a seeded offset inside the
        // client's range, clear of the warm and warm-up tenants.
        let fresh = (1 << 24) + rng.below(1 << 24);
        Stream { kind, rng, base: client_base(client), fresh, block: Vec::new() }
    }

    fn refill_block(&mut self) {
        for slot in MIXED_BLOCK.iter().flat_map(|&(slot, n)| std::iter::repeat_n(slot, n)) {
            let tenant = self.base + self.rng.below(TENANTS);
            self.block.push(match slot {
                MixedSlot::Exact(choices) => Op::Chain { tenant, choices, deadline_ms: 0 },
                MixedSlot::Pruned => {
                    Op::Chain { tenant, choices: 14, deadline_ms: PRUNED_DEADLINE_MS }
                }
                MixedSlot::Game => Op::Game { tenant, seed: self.rng.below(GAME_SEEDS) },
                MixedSlot::Bump => Op::Bump { tenant },
            });
        }
        // Fisher-Yates.
        for i in (1..self.block.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            self.block.swap(i, j);
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::WarmRepeat => Op::Chain {
                tenant: self.base + self.rng.below(TENANTS),
                choices: 12,
                deadline_ms: 0,
            },
            Kind::ColdChain => {
                self.fresh += 1;
                Op::Chain { tenant: self.base + self.fresh, choices: 10, deadline_ms: 0 }
            }
            Kind::MixedTenants => {
                if self.block.is_empty() {
                    self.refill_block();
                }
                self.block.pop().expect("a refilled block is not empty")
            }
        }
    }
}

/// The requests a client sends during set-up, before timing starts.
pub fn prewarm(kind: Kind, client: usize) -> Vec<Op> {
    let base = client_base(client);
    match kind {
        Kind::WarmRepeat => (0..TENANTS)
            .map(|t| Op::Chain { tenant: base + t, choices: 12, deadline_ms: 0 })
            .collect(),
        Kind::ColdChain => (0..COLD_WARMUP)
            .map(|t| Op::Chain { tenant: base + (1 << 20) + t, choices: 10, deadline_ms: 0 })
            .collect(),
        Kind::MixedTenants => (0..TENANTS)
            .flat_map(|t| {
                let tenant = base + t;
                [8, 10, 12]
                    .map(|choices| Op::Chain { tenant, choices, deadline_ms: 0 })
                    .into_iter()
                    .chain((0..GAME_SEEDS).map(move |seed| Op::Game { tenant, seed }))
            })
            .collect(),
    }
}

/// Reference winners `(index, loss bits)`, computed once per run
/// outside every timed phase: the sequential, unpruned, uncached tree
/// walk for each chain depth, and backward induction for each game.
pub struct References {
    chains: BTreeMap<u8, (u64, u64)>,
    games: BTreeMap<u64, (u64, u64)>,
}

impl References {
    pub fn compute(kind: Kind) -> References {
        let chains = kind
            .chain_depths()
            .iter()
            .map(|&choices| {
                let p = lambda_c::testgen::deep_decide_chain(u32::from(choices));
                let compiled = lambda_c::compile(&p.expr).expect("generated chains compile");
                let cands = LcCandidates::new(compiled, ["decide".to_owned()], u32::from(choices));
                let (out, _) = search_compiled(&TreeEngine::sequential(), &cands)
                    .expect("chain spaces are non-empty");
                (choices, (out.index as u64, out.loss.0.as_scalar().to_bits()))
            })
            .collect();
        let games = (0..kind.game_seeds())
            .map(|seed| {
                let tree =
                    GameTree::random(usize::from(GAME_BRANCHING), usize::from(GAME_DEPTH), seed);
                let (play, value) = tree.solve_backward();
                let index =
                    play.iter().fold(0u64, |acc, &m| acc * u64::from(GAME_BRANCHING) + m as u64);
                (seed, (index, value.to_bits()))
            })
            .collect();
        References { chains, games }
    }

    fn expected(&self, op: Op) -> Option<(u64, u64)> {
        match op {
            Op::Chain { choices, .. } => self.chains.get(&choices).copied(),
            Op::Game { seed, .. } => self.games.get(&seed).copied(),
            Op::Bump { .. } => None,
        }
    }
}

/// How one response measures up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The right answer (the reference winner, bit for bit, or an
    /// epoch-bump acknowledgement).
    Correct,
    /// A well-formed answer the request should not get (`Busy`,
    /// `Timeout`, `Malformed`, `Error`) or a transport failure: counted
    /// in the error rate.
    Failed,
    /// An `Ok` whose winner differs from the reference: the run stops.
    Wrong,
}

pub fn judge(refs: &References, op: Op, response: Option<&Response>) -> Verdict {
    match (op, response) {
        (Op::Bump { .. }, Some(Response::EpochBumped { .. })) => Verdict::Correct,
        (_, Some(Response::Ok { index, loss, .. })) => match refs.expected(op) {
            Some(want) if want == (*index, loss.to_bits()) => Verdict::Correct,
            _ => Verdict::Wrong,
        },
        _ => Verdict::Failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_streams_send_the_mix_exactly() {
        let mut s = Stream::new(Kind::MixedTenants, 3, 0);
        let ops: Vec<Op> = (0..1200).map(|_| s.next_op()).collect();
        let count = |label: &str| ops.iter().filter(|op| op.label() == label).count();
        assert_eq!(count("chain8") + count("chain10") + count("chain12"), 780);
        assert_eq!(count("chain14_deadline"), 180);
        assert_eq!(count("game"), 180);
        assert_eq!(count("bump_epoch"), 60);
    }

    #[test]
    fn streams_repeat_per_seed_and_keep_clients_apart() {
        let take = |seed, client| {
            let mut s = Stream::new(Kind::MixedTenants, seed, client);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        let tenant = |op: &Op| match *op {
            Op::Chain { tenant, .. } | Op::Game { tenant, .. } | Op::Bump { tenant } => tenant,
        };
        assert!(take(7, 0).iter().all(|op| tenant(op) >> 32 == 1));
        assert!(take(7, 1).iter().all(|op| tenant(op) >> 32 == 2));
    }
}
