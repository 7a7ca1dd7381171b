//! Idle sessions hold no compute slot, in its own process: with every
//! slot's worth of connections open and idle, a fresh client's scrape
//! and search are still answered. The requests go out from a helper
//! thread and the test waits with a timeout, so a server that lets idle
//! sessions stall it fails here instead of hanging.

use selc_serve::{Client, Response, ServeConfig, Server, Workload};
use std::sync::mpsc;
use std::time::Duration;

/// The bound on each answer; a served Chain{6} takes milliseconds.
const ANSWER_WITHIN: Duration = Duration::from_secs(5);

/// The direct (no server) reference for a chain workload: the
/// single-worker exhaustive tree walk, as in `watcher.rs`.
fn direct_chain(choices: u8) -> (u64, u64) {
    let p = lambda_c::testgen::deep_decide_chain(u32::from(choices));
    let cands = lambda_rt::LcCandidates::new(
        lambda_c::compile(&p.expr).expect("testgen chains compile"),
        ["decide".to_owned()],
        u32::from(choices),
    );
    let (out, _) = lambda_rt::search_compiled(&selc_engine::TreeEngine::sequential(), &cands)
        .expect("non-empty space");
    (out.index as u64, out.loss.0.as_scalar().to_bits())
}

fn winner(resp: Response) -> (u64, u64) {
    match resp {
        Response::Ok { index, loss, .. } => (index, loss.to_bits()),
        other => panic!("expected Ok, got {other:?}"),
    }
}

/// Opens `idle` sessions, each admitted by one completed request and
/// then left idle, and requires a fresh client's `Metrics` request and
/// `Chain{6}` search to be answered within [`ANSWER_WITHIN`] each.
fn fresh_client_is_served_beside_idle_sessions(config: ServeConfig, idle: u64) {
    let server = Server::spawn(config).expect("bind loopback");
    let addr = server.addr();
    let _idle: Vec<Client> = (0..idle)
        .map(|i| {
            let mut client = Client::connect(addr).expect("connect an idle session");
            winner(client.search(80 + i, Workload::Chain { choices: 4 }, 0).expect("admit it"));
            client
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut fresh = Client::connect(addr).expect("connect the fresh client");
        let _ = tx.send(fresh.metrics());
        let _ = tx.send(fresh.search(90, Workload::Chain { choices: 6 }, 0));
    });
    let scrape = rx.recv_timeout(ANSWER_WITHIN).unwrap_or_else(|_| {
        panic!("{idle} idle session(s) stalled a Metrics request past {ANSWER_WITHIN:?}")
    });
    assert!(matches!(scrape, Ok(Response::Metrics(_))), "got {scrape:?}");
    let search = rx.recv_timeout(ANSWER_WITHIN).unwrap_or_else(|_| {
        panic!("{idle} idle session(s) stalled a Chain{{6}} search past {ANSWER_WITHIN:?}")
    });
    assert_eq!(winner(search.expect("search transport")), direct_chain(6));
    assert_eq!(server.active_watchers(), 0, "idle sessions hold no compute slot");
}

#[test]
fn one_idle_session_leaves_the_one_slot_free() {
    fresh_client_is_served_beside_idle_sessions(ServeConfig::loopback(1, 4), 1);
}

#[test]
fn two_idle_sessions_leave_both_slots_free() {
    fresh_client_is_served_beside_idle_sessions(ServeConfig::loopback(2, 8), 2);
}
