//! The disconnect watcher's alive branch, in its own process: the
//! `serve.disconnect_cancels` counter is process-global, and a sibling
//! test that hangs up on purpose would move it under this one.

use selc_serve::{Client, Request, Response, ServeConfig, Server, Workload};
use std::time::{Duration, Instant};

/// Longer than the watcher's poll interval (25 ms), with room to spare.
const IDLE: Duration = Duration::from_millis(200);

/// The direct (no server) reference for a chain workload: the
/// single-worker exhaustive tree walk, the differential oracle the
/// suites pin to the flat scan (which is too slow for Chain{16} in a
/// debug build).
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

fn disconnect_cancels(client: &mut Client) -> u64 {
    match client.metrics().expect("scrape") {
        Response::Metrics(wire) => wire.to_snapshot().counter("serve.disconnect_cancels"),
        other => panic!("expected Metrics, got {other:?}"),
    }
}

fn framed(choices: u8) -> Vec<u8> {
    let payload =
        Request::Search { tenant: 41, deadline_ms: 0, workload: Workload::Chain { choices } }
            .encode();
    let mut frame = u32::try_from(payload.len()).unwrap().to_be_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn pipelined_requests_are_alive_and_the_socket_stays_blocking() {
    let server = Server::spawn(ServeConfig::loopback(1, 2)).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let before = disconnect_cancels(&mut client);
    // A cold Chain{16} and, right behind it, a Chain{6}: while the first
    // search runs, the watcher's peeks find the second frame's bytes
    // waiting — the client is alive, and nothing may be cancelled.
    let started = Instant::now();
    client.send_bytes(&framed(16)).expect("send the long search");
    client.send_bytes(&framed(6)).expect("pipeline the short one");
    let first = winner(client.read_response().expect("first answer"));
    let second = winner(client.read_response().expect("second answer"));
    let served_in = started.elapsed();
    assert_eq!(first, direct_chain(16));
    assert_eq!(second, direct_chain(6));
    if selc_obs::metrics::configured_metrics() != Some(false) {
        assert_eq!(
            disconnect_cancels(&mut client),
            before,
            "a pipelined request is not a disconnect (served in {served_in:?})"
        );
    }
    // Idle past several watch intervals, then ask again on the same
    // session: the peeks' non-blocking window was closed behind them,
    // so the session's read blocked for this frame instead of failing.
    std::thread::sleep(IDLE);
    let third = winner(client.search(41, Workload::Chain { choices: 6 }, 0).expect("third"));
    assert_eq!(third, direct_chain(6));
}
