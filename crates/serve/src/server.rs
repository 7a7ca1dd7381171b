//! The server: accept loop, admission control, one thread per session,
//! compute slots for searches.
//!
//! * **Accept loop** (one thread) — past [`ServeConfig::max_sessions`]
//!   live sessions, or when the OS will not start a session thread, a
//!   connection is answered `Busy` and closed: fast refusals, no queue.
//! * **Sessions** (scoped threads of the accept loop) — a session reads
//!   its client's frames and runs its searches itself, holding one of
//!   [`ServeConfig::workers`] *compute slots* only while a search runs,
//!   so an idle connection costs a parked thread and stalls nobody.
//! * **Disconnect watcher** (one thread) — each poll interval it peeks
//!   the socket of every search in flight and fires the search's
//!   `CancelToken` when its client has gone.
//!
//! One registry under one lock holds every live session (its socket,
//! and its search's token while one runs) and the slot count: taking a
//! slot is registering with the watcher. A warm request makes no spawn
//! and no hand-off. A deadline, a disconnect and shutdown all fire the
//! search's one token, which is always safe: a cancelled walk installs
//! no cache summaries (see `DESIGN.md`).
//!
//! Metrics default **on** here (`SELC_METRICS=0` still wins). Gauges:
//! `serve.queue_depth` counts searches waiting for a slot,
//! `serve.active_watchers` searches in flight; counters carry refusals
//! and aborts, log2 histograms per-op latency, all scraped by `Metrics`.

use crate::protocol::{read_frame, write_frame, Request, Response, WireMetrics, Workload};
use crate::tenants::Tenants;
use crate::workload::{self, Ran};
use selc::env::{env_usize, SERVE_MAX_SESSIONS_ENV, SERVE_PORT_ENV, SERVE_WORKERS_ENV};
use selc_check::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use selc_engine::{configured_threads, CancelToken};
use selc_obs::{metrics, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, LazyLock};
use std::thread;
use std::time::{Duration, Instant};

/// Default listen port (loopback only): "SELC" on a phone keypad, mod
/// the registered range.
pub const DEFAULT_PORT: u16 = 7352;

/// Default admission limit when `SELC_SERVE_MAX_SESSIONS` is unset.
pub const DEFAULT_MAX_SESSIONS: usize = 32;

/// How often the disconnect watcher peeks the sockets of running searches.
const WATCH_INTERVAL: Duration = Duration::from_millis(25);

/// The serve layer's registry handles, resolved once. Every member is
/// an `Arc` clone of the registry's metric, so recording is an atomic
/// op (or a no-op while metrics are disabled).
struct ServeMetrics {
    queue_depth: Gauge,
    active_watchers: Gauge,
    admission_rejects: Counter,
    deadline_timeouts: Counter,
    disconnect_cancels: Counter,
    requests: Counter,
    latency_chain: Histogram,
    latency_game: Histogram,
    latency_bump_epoch: Histogram,
    latency_metrics: Histogram,
}

static SERVE_METRICS: LazyLock<ServeMetrics> = LazyLock::new(|| ServeMetrics {
    queue_depth: metrics::gauge("serve.queue_depth"),
    active_watchers: metrics::gauge("serve.active_watchers"),
    admission_rejects: metrics::counter("serve.admission_rejects"),
    deadline_timeouts: metrics::counter("serve.deadline_timeouts"),
    disconnect_cancels: metrics::counter("serve.disconnect_cancels"),
    requests: metrics::counter("serve.requests"),
    latency_chain: metrics::histogram("serve.latency_us.chain"),
    latency_game: metrics::histogram("serve.latency_us.game"),
    latency_bump_epoch: metrics::histogram("serve.latency_us.bump_epoch"),
    latency_metrics: metrics::histogram("serve.latency_us.metrics"),
});

/// Server configuration, defaulted from the `SELC_SERVE_*` knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen port on `127.0.0.1`; `0` asks the OS for an ephemeral
    /// port (tests and benches do this and read it back from
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Compute slots — the number of *concurrent searches*; a search
    /// beyond it waits for a slot, and each search parallelises
    /// further via `SELC_THREADS`. Idle sessions hold no slot.
    pub workers: usize,
    /// Admission limit: connections beyond this many live sessions are
    /// refused with `Busy`.
    pub max_sessions: usize,
}

impl ServeConfig {
    /// Reads `SELC_SERVE_PORT`, `SELC_SERVE_WORKERS` (default: the
    /// `SELC_THREADS` pool width), and `SELC_SERVE_MAX_SESSIONS`, under
    /// the workspace's usual "anything but a positive integer is
    /// as-if-unset" rule.
    #[must_use]
    pub fn from_env() -> ServeConfig {
        let port =
            env_usize(SERVE_PORT_ENV).and_then(|p| u16::try_from(p).ok()).unwrap_or(DEFAULT_PORT);
        ServeConfig {
            port,
            workers: env_usize(SERVE_WORKERS_ENV).unwrap_or_else(configured_threads),
            max_sessions: env_usize(SERVE_MAX_SESSIONS_ENV).unwrap_or(DEFAULT_MAX_SESSIONS),
        }
    }

    /// An ephemeral-port config for in-process use (tests, benches).
    #[must_use]
    pub fn loopback(workers: usize, max_sessions: usize) -> ServeConfig {
        ServeConfig { port: 0, workers, max_sessions }
    }
}

/// State shared by the server's threads and its handle.
struct Shared {
    tenants: Tenants,
    registry: Registry,
}

/// Every live session and the compute slots their searches take, under
/// one lock. `S` is a session's socket (the model tests use `()`).
struct Registry<S = Arc<TcpStream>> {
    state: Mutex<Sessions<S>>,
    /// Signalled when a slot frees while a search waits, and on close.
    slot_free: Condvar,
    slots: usize,
    max_sessions: usize,
}

/// Live sessions by id, each with its socket and, while it runs, its
/// search's token (what the watcher peeks and fires); the slots in use
/// (the searches in flight) and the searches waiting for one.
struct Sessions<S> {
    live: HashMap<u64, (S, Option<CancelToken>)>,
    next_id: u64,
    running: usize,
    waiting: usize,
    closed: bool,
}

impl<S> Registry<S> {
    fn new(slots: usize, max_sessions: usize) -> Registry<S> {
        let s =
            Sessions { live: HashMap::new(), next_id: 0, running: 0, waiting: 0, closed: false };
        Registry { state: Mutex::new(s), slot_free: Condvar::new(), slots, max_sessions }
    }

    fn lock(&self) -> MutexGuard<'_, Sessions<S>> {
        lock_clean(&self.state)
    }

    /// Registers a session under `socket` until the returned guard
    /// drops; `None` at the admission limit or once closed.
    fn admit(&self, socket: S) -> Option<Session<'_, S>> {
        let mut state = self.lock();
        if state.closed || state.live.len() >= self.max_sessions {
            return None;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.live.insert(id, (socket, None));
        Some(Session { registry: self, id })
    }

    /// Refuses every later session and slot, cancels each search in
    /// flight, hangs up every session with `hang_up`, and wakes every
    /// search waiting for a slot. Returns false if already closed.
    fn close(&self, hang_up: impl Fn(&S)) -> bool {
        let mut state = self.lock();
        if std::mem::replace(&mut state.closed, true) {
            return false;
        }
        for (socket, search) in state.live.values() {
            search.iter().for_each(CancelToken::cancel);
            hang_up(socket);
        }
        self.slot_free.notify_all();
        true
    }

    /// One watcher pass: fires the token of each search in flight whose
    /// client is `gone`. Returns false once closed.
    fn scan(&self, gone: impl Fn(&S) -> bool) -> bool {
        let state = self.lock();
        for (socket, search) in state.live.values() {
            // An already-cancelled token (a deadline, or a disconnect
            // seen last pass) has nothing left to fire or count.
            if let Some(cancel) = search.as_ref().filter(|c| !c.is_cancelled() && gone(socket)) {
                SERVE_METRICS.disconnect_cancels.inc();
                cancel.cancel();
            }
        }
        !state.closed
    }
}

/// A live session's registration; dropping it, by return or by
/// unwinding, removes the entry.
struct Session<'r, S = Arc<TcpStream>> {
    registry: &'r Registry<S>,
    id: u64,
}

impl<S> Session<'_, S> {
    /// Runs `search` in a compute slot, registered with the watcher
    /// under `cancel`, first waiting while every slot is taken. Returns
    /// `None`, without running it, once the registry is closed.
    fn run<T>(&self, cancel: &CancelToken, search: impl FnOnce() -> T) -> Option<T> {
        let registry = self.registry;
        let mut state = registry.lock();
        while state.running >= registry.slots && !state.closed {
            state.waiting += 1;
            SERVE_METRICS.queue_depth.inc();
            state = registry.slot_free.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
            SERVE_METRICS.queue_depth.dec();
        }
        if state.closed {
            return None;
        }
        state.running += 1;
        state.live.entry(self.id).and_modify(|entry| entry.1 = Some(cancel.clone()));
        drop(state);
        SERVE_METRICS.active_watchers.inc();
        let _slot = Slot(self);
        Some(search())
    }
}

impl<S> Drop for Session<'_, S> {
    fn drop(&mut self) {
        self.registry.lock().live.remove(&self.id);
    }
}

/// A held compute slot. Dropping it, by return or by unwinding, frees
/// it and deregisters the search under the watcher's lock.
struct Slot<'s, 'r, S>(&'s Session<'r, S>);

impl<S> Drop for Slot<'_, '_, S> {
    fn drop(&mut self) {
        let Session { registry, id } = self.0;
        let mut state = registry.lock();
        state.running -= 1;
        state.live.entry(*id).and_modify(|entry| entry.1 = None);
        SERVE_METRICS.active_watchers.dec();
        if state.waiting > 0 {
            registry.slot_free.notify_one();
        }
    }
}

/// Locks `m`, continuing through poison: a panicking session must not
/// cascade into its siblings. The guarded maps stay structurally valid
/// mid-panic, and a daemon's job is to keep serving.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server; dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    watcher: Option<thread::JoinHandle<()>>,
}

/// Alias kept for readers scanning the crate root: the handle *is* the
/// server object.
pub type ServerHandle = Server;

impl Server {
    /// Binds `127.0.0.1:{config.port}` and spawns the disconnect
    /// watcher and the accept loop.
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound or the OS refuses a thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.max_sessions` is zero.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        assert!(config.workers >= 1, "a server needs at least one compute slot");
        assert!(config.max_sessions >= 1, "a server must admit at least one session");
        // A service you cannot scrape is blind: the daemon defaults
        // metrics ON, and `SELC_METRICS=0` still wins (overhead runs).
        selc_obs::set_metrics_enabled(metrics::configured_metrics().unwrap_or(true));
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let registry = Registry::new(config.workers, config.max_sessions);
        let shared = Arc::new(Shared { tenants: Tenants::default(), registry });
        // If a spawn fails, dropping `server` joins what did start.
        let mut server = Server { addr, shared: Arc::clone(&shared), accept: None, watcher: None };
        let watched = Arc::clone(&shared);
        server.watcher = Some(thread::Builder::new().spawn(move || watch_loop(&watched))?);
        server.accept =
            Some(thread::Builder::new().spawn(move || accept_loop(&listener, &shared))?);
        Ok(server)
    }

    /// The bound address (read this when spawning on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions admitted and not yet hung up.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.shared.registry.lock().live.len()
    }

    /// Searches in flight, each in a compute slot and watched; zero once
    /// requests settle (a search frees its slot before it answers).
    #[must_use]
    pub fn active_watchers(&self) -> usize {
        self.shared.registry.lock().running
    }

    /// Stops accepting, cancels searches in flight, force-closes live
    /// sessions, and joins every thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // Sessions parked in `read_frame` or waiting for a slot wake.
        if !self.shared.registry.close(|socket| {
            let _ = socket.shutdown(Shutdown::Both);
        }) {
            return;
        }
        // A throwaway connection unblocks the accept loop.
        let _ = TcpStream::connect(self.addr);
        // Joins every session too: they are its scoped threads.
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The watcher saw the close or sees it once unparked, so
        // afterwards no thread of ours survives the handle.
        if let Some(watcher) = self.watcher.take() {
            watcher.thread().unpark();
            let _ = watcher.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    thread::scope(|scope| {
        for stream in listener.incoming() {
            if shared.registry.lock().closed {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_nodelay(true); // tiny frames must not wait out Nagle
            let socket = Arc::new(stream);
            let spawned = shared.registry.admit(Arc::clone(&socket)).map(|session| {
                let socket = Arc::clone(&socket);
                thread::Builder::new()
                    .spawn_scoped(scope, move || serve_session(&socket, &session, shared))
            });
            // Over the limit, or the OS refused the session thread (its
            // registration dropped with the closure): answer Busy, drop.
            if !matches!(spawned, Some(Ok(_))) {
                SERVE_METRICS.admission_rejects.inc();
                let _ = write_frame(&mut &*socket, &Response::Busy.encode());
            }
        }
    });
}

/// Serves one session until the client hangs up, the transport fails,
/// or the server shuts down. A malformed *payload* is answered and the
/// session goes on; a malformed *frame* cannot be resynchronised, so it
/// is answered and the session closed.
fn serve_session(mut stream: &TcpStream, session: &Session<'_>, shared: &Shared) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean hang-up
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let resp = Response::Malformed(e.to_string());
                let _ = write_frame(&mut stream, &resp.encode());
                return; // desynchronised: cannot keep the session
            }
            Err(_) => return,
        };
        let started = Instant::now();
        SERVE_METRICS.requests.inc();
        let (response, latency) = match Request::decode(&payload) {
            Err(msg) => (Response::Malformed(msg), None),
            Ok(Request::BumpEpoch { tenant }) => (
                Response::EpochBumped { epoch: shared.tenants.bump(tenant) },
                Some(&SERVE_METRICS.latency_bump_epoch),
            ),
            Ok(Request::Metrics) => (
                Response::Metrics(WireMetrics::from_snapshot(&metrics::snapshot())),
                Some(&SERVE_METRICS.latency_metrics),
            ),
            Ok(Request::Search { tenant, deadline_ms, workload }) => {
                let latency = match workload {
                    Workload::Chain { .. } => &SERVE_METRICS.latency_chain,
                    Workload::Game { .. } => &SERVE_METRICS.latency_game,
                };
                let response = match workload::validate(&workload) {
                    Err(msg) => Response::Malformed(msg),
                    Ok(()) => {
                        let tenant = shared.tenants.get_or_create(tenant);
                        let cancel = if deadline_ms > 0 {
                            CancelToken::with_timeout(Duration::from_millis(u64::from(deadline_ms)))
                        } else {
                            CancelToken::never()
                        };
                        // The slot is freed, and the search deregistered,
                        // before the response is written.
                        let Some(ran) = session.run(&cancel, || {
                            workload::run(&tenant, &workload, &cancel, deadline_ms > 0)
                        }) else {
                            return; // shutting down: the socket is closed
                        };
                        match ran {
                            Ran::Done { index, loss, stats } => Response::Ok { index, loss, stats },
                            Ran::TimedOut { partial } => {
                                SERVE_METRICS.deadline_timeouts.inc();
                                Response::Timeout { partial }
                            }
                            // The flow shape guard refused the compiled
                            // program: same client-visible shape as a
                            // parameter-level validation failure.
                            Ran::Rejected(msg) => Response::Malformed(msg),
                        }
                    }
                };
                (response, Some(latency))
            }
        };
        let wrote = write_frame(&mut stream, &response.encode());
        if let Some(latency) = latency {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            latency.record(micros);
        }
        if wrote.is_err() {
            return; // client gone mid-response
        }
    }
}

/// The disconnect watcher: every [`WATCH_INTERVAL`] it peeks the
/// socket of each search in flight, and fires the search's token when
/// the client has hung up (EOF) or the transport has died. Bytes
/// waiting (a pipelined request) or nothing to read both mean the
/// client is alive.
///
/// The peek must not block, so the socket is non-blocking around it.
/// The session's own reads and writes share that `O_NONBLOCK`, which is
/// safe only because the scan holds the registry lock and restores
/// blocking mode before the next entry, while a session frees its slot
/// under the same lock before it touches the socket again.
fn watch_loop(shared: &Shared) {
    // Shutdown unparks the thread, so it never sleeps out an interval.
    while shared.registry.scan(|socket| client_gone(socket)) {
        thread::park_timeout(WATCH_INTERVAL);
    }
}

/// One non-blocking peek: true on EOF or a hard transport error. The
/// socket is back in blocking mode on return.
fn client_gone(socket: &TcpStream) -> bool {
    if socket.set_nonblocking(true).is_err() {
        return true; // the fd itself is dead: same as gone
    }
    let mut probe = [0u8; 1];
    let gone = match socket.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted),
    };
    let _ = socket.set_nonblocking(false);
    gone
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_search_that_panics_gives_its_slot_back() {
        let registry = Registry::<()>::new(1, 1);
        let session = registry.admit(()).expect("room for one session");
        let cancel = CancelToken::new();
        let unwound =
            catch_unwind(AssertUnwindSafe(|| session.run(&cancel, || panic!("search panicked"))));
        assert!(unwound.is_err(), "the panic reaches the caller");
        {
            let state = registry.lock();
            assert_eq!(state.running, 0, "the unwound search freed its slot");
            assert!(state.live[&session.id].1.is_none(), "and left the watcher's view");
        }
        assert_eq!(session.run(&cancel, || 7), Some(7), "the one slot is usable again");
        drop(session);
        assert!(registry.lock().live.is_empty(), "a dropped session deregisters");
    }

    #[test]
    fn admission_stops_at_the_limit_and_on_close() {
        let registry = Registry::<()>::new(1, 2);
        let a = registry.admit(()).expect("first session");
        let _b = registry.admit(()).expect("second session");
        assert!(registry.admit(()).is_none(), "over the admission limit");
        drop(a);
        let c = registry.admit(()).expect("a freed place admits again");
        assert!(registry.close(|()| {}), "first close closes");
        assert!(!registry.close(|()| {}), "second close is a no-op");
        assert!(registry.admit(()).is_none(), "closed registries admit nobody");
        assert_eq!(c.run(&CancelToken::new(), || ()), None, "nor run searches");
    }
}

/// Exhaustive small-schedule verification of the compute-slot protocol
/// under the `selc_check` model checker
/// (`RUSTFLAGS="--cfg selc_model" cargo test -p selc-serve --lib`).
#[cfg(all(test, selc_model))]
mod model_tests {
    use super::*;
    use selc_check::model::{check, spawn, JoinHandle, Options};
    use selc_check::sync::atomic::{AtomicUsize, Ordering};

    /// Three sessions each run one search through `slots` compute
    /// slots, while the root thread closes the registry or not. On every
    /// schedule: no more than `slots` searches run at once, every thread
    /// finishes (the checker reports a lost wake-up as a deadlock), and
    /// the registry is empty once they are joined.
    fn slots_model(name: &str, slots: usize, close: bool) {
        check(name, Options::default(), move || {
            let registry = Arc::new(Registry::<()>::new(slots, 3));
            let in_use = Arc::new(AtomicUsize::new(0));
            let sessions: Vec<JoinHandle<bool>> = (0..3)
                .map(|_| {
                    let (registry, in_use) = (Arc::clone(&registry), Arc::clone(&in_use));
                    spawn(move || {
                        let Some(session) = registry.admit(()) else { return false };
                        let ran = session.run(&CancelToken::new(), || {
                            let now = in_use.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(now <= slots, "{now} searches in {slots} slots");
                            in_use.fetch_sub(1, Ordering::SeqCst);
                        });
                        ran.is_some()
                    })
                })
                .collect();
            if close {
                registry.close(|()| {});
            }
            let ran = sessions.into_iter().map(JoinHandle::join).filter(|&ran| ran).count();
            assert!(close || ran == 3, "without a close every search runs");
            let state = registry.lock();
            assert_eq!((state.running, state.waiting), (0, 0), "every slot came back");
            assert!(state.live.is_empty(), "every session deregistered");
        });
    }

    #[test]
    fn model_one_slot_serialises_three_searches() {
        slots_model("serve-slots-1", 1, false);
    }

    #[test]
    fn model_two_slots_admit_two_of_three_searches() {
        slots_model("serve-slots-2", 2, false);
    }

    #[test]
    fn model_close_wakes_every_waiter_with_one_slot() {
        slots_model("serve-slots-1-close", 1, true);
    }

    #[test]
    fn model_close_wakes_every_waiter_with_two_slots() {
        slots_model("serve-slots-2-close", 2, true);
    }
}
