//! The server: accept loop, admission control, session workers.
//!
//! Anatomy of a running server:
//!
//! * **Accept loop** (one thread) — accepts connections and applies
//!   *admission control*: while [`ServeConfig::max_sessions`] sessions
//!   are live, a new connection is answered `Busy` and closed without
//!   ever reaching a worker, so overload degrades to fast refusals
//!   instead of unbounded queueing.
//! * **Session queue** — admitted connections wait in a `VecDeque`
//!   under a condvar.
//! * **Worker pool** ([`ServeConfig::workers`] threads) — each worker
//!   owns one session at a time and serves its requests sequentially;
//!   a session holds its worker until the client hangs up, so
//!   `workers` bounds *concurrent searches* and `max_sessions` bounds
//!   *open connections*.
//!
//! * **Disconnect watcher** (one thread) — every search registers its
//!   session's socket and `CancelToken` in a shared map while it runs;
//!   each poll interval the watcher peeks every registered socket and
//!   fires the token of any whose client has gone, so no worker grinds
//!   through a search for nobody. Shutdown joins it.
//!
//! Deadlines and disconnects both flow through one `CancelToken` per
//! search: the token's deadline is the request's `deadline_ms`, and the
//! watcher fires the same token when the client vanishes. Cancellation
//! is safe to trigger at any moment: the engines guarantee a cancelled
//! walk installs no cache summaries (see `DESIGN.md`), so a timed-out
//! request leaves its tenant's warmth exactly as it found it. A warm
//! request touches no thread but its own session worker: registering
//! with the watcher is a map insert and remove, not a spawn.
//!
//! The server is also where the workspace's metrics default flips
//! **on**: a daemon you cannot scrape is blind, so `Server::spawn`
//! enables recording unless `SELC_METRICS=0` explicitly asks for the
//! zero-overhead path (overhead benches do). Live state travels as
//! gauges (`serve.queue_depth`, `serve.active_watchers`), refusals and
//! aborts as counters, and per-op end-to-end latency as log2
//! histograms, all scrapeable via a `Metrics` request.

use crate::protocol::{read_frame, write_frame, Request, Response, WireMetrics, Workload};
use crate::tenants::Tenants;
use crate::workload::{self, Ran};
use selc::env::{env_usize, SERVE_MAX_SESSIONS_ENV, SERVE_PORT_ENV, SERVE_WORKERS_ENV};
use selc_engine::{configured_threads, CancelToken};
use selc_obs::{metrics, Counter, Gauge, Histogram};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex};
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
    /// Session-worker threads — the number of *concurrent sessions
    /// being served*; each search inside a session parallelises
    /// further via `SELC_THREADS`.
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

/// State shared by the accept loop, the workers, and the handle.
struct Shared {
    tenants: Tenants,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    /// Sessions admitted and not yet finished (counted from the accept
    /// loop's enqueue to the worker's hang-up).
    active: AtomicUsize,
    shutdown: AtomicBool,
    /// Clones of live session sockets, so shutdown can force-close
    /// them and unblock workers parked in `read_frame`.
    open: Mutex<HashMap<u64, Arc<TcpStream>>>,
    next_session: AtomicU64,
    /// Searches in flight, by session id: the session's socket clone
    /// and the search's token, for the disconnect watcher to peek and
    /// fire. A session removes its entry (by dropping its [`Watch`])
    /// before it touches the socket again; see [`watch_loop`].
    watched: Mutex<HashMap<u64, (Arc<TcpStream>, CancelToken)>>,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: Acquire — pairs with the AcqRel swap in `shutdown`:
        // a thread that observes the flag also observes everything the
        // shutting-down thread published before raising it.
        self.shutdown.load(Ordering::Acquire)
    }

    /// Registers session `id`'s running search with the disconnect
    /// watcher until the returned guard drops.
    fn watch(&self, id: u64, peer: &Arc<TcpStream>, cancel: &CancelToken) -> Watch<'_> {
        lock_clean(&self.watched).insert(id, (Arc::clone(peer), cancel.clone()));
        SERVE_METRICS.active_watchers.inc();
        Watch { shared: self, id }
    }
}

/// A search's registration with the disconnect watcher. Dropping it
/// removes the entry under the watcher's lock, so once it is gone no
/// peek is in flight and the socket is back in blocking mode; being a
/// guard, it also goes when the search panics.
struct Watch<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        lock_clean(&self.shared.watched).remove(&self.id);
        SERVE_METRICS.active_watchers.dec();
    }
}

/// Locks `m`, continuing through poison: a panicking worker must not
/// cascade into every sibling that touches the same queue or map. The
/// guarded structures stay structurally valid mid-panic (pushes and
/// removes are not interruptible by Rust panics at observable points),
/// and a daemon's job is to keep serving.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running server; dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    watcher: Option<thread::JoinHandle<()>>,
}

/// Alias kept for readers scanning the crate root: the handle *is* the
/// server object.
pub type ServerHandle = Server;

impl Server {
    /// Binds `127.0.0.1:{config.port}` and spawns the accept loop, the
    /// worker pool and the disconnect watcher.
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.max_sessions` is zero.
    pub fn spawn(config: ServeConfig) -> io::Result<Server> {
        assert!(config.workers >= 1, "a server needs at least one worker");
        assert!(config.max_sessions >= 1, "a server must admit at least one session");
        // A service you cannot scrape is blind: the daemon defaults
        // metrics ON, and `SELC_METRICS=0` still wins (overhead runs).
        selc_obs::set_metrics_enabled(metrics::configured_metrics().unwrap_or(true));
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tenants: Tenants::default(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            watched: Mutex::new(HashMap::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let max = config.max_sessions;
            thread::spawn(move || accept_loop(&listener, &shared, max))
        };
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let watcher = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || watch_loop(&shared))
        };
        Ok(Server { addr, shared, accept: Some(accept), workers, watcher: Some(watcher) })
    }

    /// The bound address (read this when spawning on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions admitted and not yet hung up.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        // ordering: Relaxed — the count is exact through RMW atomicity
        // alone; it carries no data, so the old Acquire bought nothing.
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Searches currently registered with the disconnect watcher — the
    /// in-flight searches. Returns to zero once requests settle: a
    /// session deregisters its search before writing the response.
    #[must_use]
    pub fn active_watchers(&self) -> usize {
        lock_clean(&self.shared.watched).len()
    }

    /// Stops accepting, force-closes live sessions, and joins every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // ordering: AcqRel — Release publishes everything this thread
        // did before shutting down to threads that observe the flag
        // (see `shutting_down`); Acquire makes the losing caller of an
        // idempotent double-shutdown see the winner's prior work.
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before handling anything it accepts.
        let _ = TcpStream::connect(self.addr);
        // Force-close live sessions so workers parked in read_frame
        // wake with an error instead of waiting for their client.
        for (_, stream) in lock_clean(&self.shared.open).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.shared.available.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers gone ⇒ nothing is watched any more. The watcher saw
        // the flag or sees it once unparked, so afterwards no thread of
        // ours survives the handle.
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

fn accept_loop(listener: &TcpListener, shared: &Shared, max_sessions: usize) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true); // tiny frames must not wait out Nagle
                                          // ordering: Relaxed — admission control needs only an exact
                                          // count (RMW atomicity gives it); the load/add pair publishes
                                          // nothing, so the old Acquire/AcqRel were needless strength.
        if shared.active.load(Ordering::Relaxed) >= max_sessions {
            SERVE_METRICS.admission_rejects.inc();
            let _ = write_frame(&mut stream, &Response::Busy.encode());
            continue; // drop: refused, never counted
        }
        shared.active.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — see the admission comment
        lock_clean(&shared.queue).push_back(stream);
        SERVE_METRICS.queue_depth.inc();
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock_clean(&shared.queue);
            loop {
                if shared.shutting_down() {
                    return;
                }
                if let Some(stream) = queue.pop_front() {
                    SERVE_METRICS.queue_depth.dec();
                    break stream;
                }
                queue =
                    shared.available.wait(queue).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // ordering: Relaxed — session ids only need uniqueness, which
        // the RMW guarantees under any ordering.
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        // The session's one clone serves both shutdown's force-close and
        // the disconnect watcher's peeks.
        let peer = stream.try_clone().ok().map(Arc::new);
        if let Some(peer) = &peer {
            lock_clean(&shared.open).insert(id, Arc::clone(peer));
        }
        // A shutdown that raced our registration has already drained
        // the open map; re-checking the flag after inserting closes
        // the gap either way, so no worker blocks past shutdown.
        if shared.shutting_down() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        serve_session(stream, peer.as_ref(), id, shared);
        lock_clean(&shared.open).remove(&id);
        // ordering: Relaxed — see the admission-control comment.
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one session until the client hangs up or the transport
/// fails. Malformed *payloads* are survivable (the frame was consumed;
/// answer and continue); malformed *frames* are not (the stream can no
/// longer be resynchronised), so those answer and close.
fn serve_session(mut stream: TcpStream, peer: Option<&Arc<TcpStream>>, id: u64, shared: &Shared) {
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
                        let ran = {
                            // Deregistered as the block ends, before the
                            // response is written.
                            let _watch = peer.map(|peer| shared.watch(id, peer, &cancel));
                            workload::run(&tenant, &workload, &cancel, deadline_ms > 0)
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
/// socket of each running search, and fires the search's token when the
/// client has hung up (EOF) or the transport has died — the queue-drain
/// fix made end-to-end. Bytes waiting (a pipelined request) or nothing
/// to read both mean the client is alive.
///
/// The peek must not block, so the socket is switched to non-blocking
/// mode around it. `O_NONBLOCK` lives on the open file description,
/// which the watched clone shares with the session's own stream: the
/// session would see it too. That is safe only because the whole scan
/// holds the `watched` lock and restores blocking mode before the next
/// entry, while a session removes its entry under the same lock before
/// it reads or writes the socket again — so the session never touches
/// the socket inside the non-blocking window.
fn watch_loop(shared: &Shared) {
    while !shared.shutting_down() {
        // Shutdown unparks the thread, so it never sleeps out an interval.
        thread::park_timeout(WATCH_INTERVAL);
        let watched = lock_clean(&shared.watched);
        for (socket, cancel) in watched.values() {
            // Already cancelled (a deadline, or a disconnect seen on an
            // earlier pass): nothing left to fire, or to count twice.
            if !cancel.is_cancelled() && client_gone(socket) {
                SERVE_METRICS.disconnect_cancels.inc();
                cancel.cancel();
            }
        }
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
