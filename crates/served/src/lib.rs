//! `rts-served` — the standalone serving daemon: a TCP listener that
//! fronts any [`Engine`] with the framed wire protocol of
//! [`rts_serve::wire`] (see `PROTOCOL.md`).
//!
//! # Architecture
//!
//! * **One reader per connection.** It reads frames through a buffered
//!   reader (one `read` covers every frame the client queued) and
//!   dispatches them against the engine.
//! * **Pushers drain the outbox.** Every reply and event is encoded
//!   once and appended to the session's outbox. The thread that
//!   appends also writes, unless another thread already is: it copies
//!   every queued frame into one buffer, writes it with the session
//!   lock released, and pops the frames only after the write succeeded
//!   and only if the connection epoch is unchanged. Frames appended
//!   meanwhile go out in that writer's next pass. There is no writer
//!   thread.
//! * **Pooled watchers.** Each admitted request is handed to a watcher
//!   that forwards its engine events ([`Engine::wait_event_changed`])
//!   into the outbox until it finishes. Idle watchers take the next
//!   request; a thread is spawned only when every watcher is busy, so
//!   the pool grows to the peak number of in-flight requests. Idle
//!   watchers exit when [`Server::serve`] returns.
//!
//! The outbox belongs to the **session**, not the connection — that
//! asymmetry is the whole reconnect story:
//!
//! * a connection that drops (EOF, socket error, malformed frame)
//!   *parks* its session: tickets stay live in the engine, watchers
//!   keep queueing events in the outbox (with no connection attached,
//!   nothing is written), and feedback timeouts keep counting — a
//!   lapsed deadline still degrades the request to abstention exactly
//!   as if the client were attached;
//! * a client that reconnects with `Hello { resume }` re-attaches to
//!   the session by id: after the `HelloAck`, the accumulated outbox is
//!   written to the new connection (pending feedback queries are
//!   re-pushed, so delivery is at-least-once and the client
//!   deduplicates by query identity), and the same request ids keep
//!   working;
//! * only a clean [`ClientMsg::Bye`] retires the session.
//!
//! Degrade-only applies at the wire too: malformed, truncated, or
//! oversized frames produce a best-effort typed [`ServerMsg::Fault`]
//! and a parked session — never a panic, never a wedged engine.
//!
//! # Shutdown
//!
//! [`ClientMsg::Shutdown`] calls [`Engine::shutdown`] (queued and
//! parked work completes, parked flags degrade to abstention) and stops
//! the accept loop; [`Server::serve`] returns once every connection
//! has closed, so the process exits only after each outcome was
//! deliverable.

use parking_lot::{Condvar, Mutex, MutexGuard};
use rts_serve::wire::{encode_frame, read_frame, write_frame, ClientMsg, ServerMsg, WIRE_VERSION};
use rts_serve::{ClientEvent, Engine, EngineError};
use simlm::LinkTarget;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rts_core::session::FlagQuery;

/// How long the accept loop naps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How long a tearing-down reader waits for another thread's write to
/// flush a final `Fault` before closing the socket under it.
const FAULT_FLUSH: Duration = Duration::from_millis(500);

/// One logical client session: the engine-side state that outlives any
/// single TCP connection.
struct Session<T> {
    conn_state: Mutex<ConnState<T>>,
}

struct ConnState<T> {
    /// Encoded frames awaiting delivery, in push order. Survives
    /// disconnects.
    outbox: VecDeque<Vec<u8>>,
    /// The attached connection's socket; `None` while the session is
    /// parked (frames then wait in the outbox for a resume).
    conn: Option<Arc<TcpStream>>,
    /// Some thread is writing the outbox's head with the lock released;
    /// pushers only append, and that writer picks their frames up.
    writing: bool,
    /// Live requests: submit request id → engine ticket.
    reqs: HashMap<u64, T>,
    /// The recorded ack frame (`Submitted` / `SubmitFailed`) for every
    /// request id ever submitted. A reconnecting client cannot know
    /// whether its first `Submit` arrived, so it re-sends — and the
    /// server *replays* the recorded ack instead of re-processing,
    /// making admission exactly-once per request id (a rejection is
    /// retried under a fresh id, never the same one).
    replies: HashMap<u64, Vec<u8>>,
    /// The last unanswered feedback query pushed per request; re-pushed
    /// on resume so delivery is at-least-once across reconnects.
    pending: HashMap<u64, (LinkTarget, FlagQuery)>,
    /// Bumped by every (re)connect takeover and teardown. A write that
    /// straddles a bump pops nothing: its frames are re-sent on the
    /// connection that owns the new epoch.
    epoch: u64,
}

/// `msg` as one encoded frame. A message too large for a frame
/// degrades to a typed `Fault` (the client reconnects and resumes)
/// instead of wedging the outbox.
fn frame(msg: &ServerMsg) -> Vec<u8> {
    let mut buf = Vec::new();
    if let Err(e) = encode_frame(&mut buf, msg) {
        buf.clear();
        let fault = ServerMsg::Fault { error: e.into() };
        let _ = encode_frame(&mut buf, &fault);
    }
    buf
}

impl<T> Session<T> {
    fn new() -> Self {
        Session {
            conn_state: Mutex::new(ConnState {
                outbox: VecDeque::new(),
                conn: None,
                writing: false,
                reqs: HashMap::new(),
                replies: HashMap::new(),
                pending: HashMap::new(),
                epoch: 0,
            }),
        }
    }

    fn push(&self, frame: Vec<u8>) {
        let mut st = self.conn_state.lock();
        st.outbox.push_back(frame);
        self.drain(st);
    }

    /// Deliver the outbox on the attached connection, unless another
    /// thread already is. The writer copies every queued frame into one
    /// buffer and writes it with the lock released (other pushers keep
    /// appending meanwhile instead of queueing behind a slow peer);
    /// frames are popped only after the write succeeded and only while
    /// the epoch is unchanged, so a takeover mid-write re-sends rather
    /// than loses — delivery is at-least-once, and the client
    /// deduplicates. Frames appended during a write go out in the
    /// writer's next pass.
    fn drain<'a>(&'a self, mut st: MutexGuard<'a, ConnState<T>>) {
        if st.writing {
            return;
        }
        loop {
            let Some(conn) = st.conn.clone() else {
                return;
            };
            let n = st.outbox.len();
            if n == 0 {
                return;
            }
            let mut batch = Vec::with_capacity(st.outbox.iter().map(Vec::len).sum());
            for f in &st.outbox {
                batch.extend_from_slice(f);
            }
            let epoch = st.epoch;
            st.writing = true;
            drop(st);
            let wrote = (&*conn).write_all(&batch).is_ok();
            st = self.conn_state.lock();
            st.writing = false;
            if st.epoch != epoch {
                // Taken over mid-write: the new connection gets every
                // frame still queued, these included.
                continue;
            }
            if !wrote {
                // The connection died with the frames still queued:
                // they wait for the resume. Shutting the socket down
                // wakes this connection's reader into its teardown.
                let _ = conn.shutdown(Shutdown::Both);
                st.conn = None;
                return;
            }
            st.outbox.drain(..n);
        }
    }
}

/// A request a watcher should follow to its end.
struct Watch<T> {
    session: Arc<Session<T>>,
    req: u64,
    ticket: T,
}

/// Reusable watcher threads. An idle watcher takes the next job; a
/// thread is spawned only when every live one is busy, so the pool
/// grows to the peak number of in-flight requests and has no size
/// setting. Idle watchers exit once [`Server::serve`] returns.
struct WatcherPool<T> {
    pool_state: Mutex<PoolState<T>>,
    wake: Condvar,
}

struct PoolState<T> {
    jobs: VecDeque<Watch<T>>,
    /// Live watcher threads.
    threads: usize,
    /// Watchers following a request. A watcher stops counting as busy
    /// *before* it queues its request's final frame, so a client that
    /// submits only after reading that frame always finds it free.
    busy: usize,
    /// `serve` returned: watchers exit once the queue is empty.
    closed: bool,
    #[cfg(test)]
    peak_threads: usize,
}

impl<T> WatcherPool<T> {
    fn new() -> Self {
        WatcherPool {
            pool_state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                threads: 0,
                busy: 0,
                closed: false,
                #[cfg(test)]
                peak_threads: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// The calling watcher is done with its request.
    fn release(&self) {
        let mut st = self.pool_state.lock();
        st.busy = st.busy.saturating_sub(1);
    }

    fn close(&self) {
        let mut st = self.pool_state.lock();
        st.closed = true;
        self.wake.notify_all();
    }
}

struct Inner<E: Engine> {
    engine: Arc<E>,
    fingerprint: String,
    /// Instance corpus by id — the wire submits ids, not ASTs.
    corpus: HashMap<u64, benchgen::Instance>,
    sessions: Mutex<HashMap<u64, Arc<Session<E::Ticket>>>>,
    next_session: AtomicU64,
    draining: AtomicBool,
    conns: AtomicUsize,
    watchers: WatcherPool<E::Ticket>,
}

/// The wire server: fronts one [`Engine`] (in practice a
/// [`rts_serve::ShardedEngine`], but any implementation works — the
/// daemon never sees past the trait).
pub struct Server<E: Engine + Send + Sync + 'static> {
    inner: Arc<Inner<E>>,
}

impl<E: Engine + Send + Sync + 'static> Clone for Server<E> {
    fn clone(&self) -> Self {
        Server {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E: Engine + Send + Sync + 'static> Server<E> {
    /// Build a server over `engine`. `fingerprint` is the corpus
    /// recipe string (see [`rts_serve::wire::corpus_fingerprint`]);
    /// `corpus` is every instance clients may submit by id.
    pub fn new(
        engine: Arc<E>,
        fingerprint: String,
        corpus: impl IntoIterator<Item = benchgen::Instance>,
    ) -> Self {
        Server {
            inner: Arc::new(Inner {
                engine,
                fingerprint,
                corpus: corpus.into_iter().map(|i| (i.id, i)).collect(),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                draining: AtomicBool::new(false),
                conns: AtomicUsize::new(0),
                watchers: WatcherPool::new(),
            }),
        }
    }

    /// The engine behind the wire — the caller still owns its worker
    /// threads and may inspect it directly (tests do).
    pub fn engine(&self) -> &Arc<E> {
        &self.inner.engine
    }

    /// Ask the accept loop to wind down as if a client had sent
    /// [`ClientMsg::Shutdown`] (drains the engine too).
    pub fn begin_shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.engine.shutdown();
    }

    /// Accept connections until a [`ClientMsg::Shutdown`] has been
    /// received *and* every live connection has closed. Each
    /// connection gets one reader thread (this function's children);
    /// requests are followed by pooled watchers, whose idle threads
    /// exit when this returns.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        let served = self.accept_loop(listener);
        self.inner.watchers.close();
        served
    }

    fn accept_loop(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // The listener is nonblocking; per-connection I/O
                    // must not be.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let inner = Arc::clone(&self.inner);
                    inner.conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_conn(&inner, stream);
                        inner.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.inner.draining.load(Ordering::SeqCst)
                        && self.inner.conns.load(Ordering::SeqCst) == 0
                    {
                        return Ok(());
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Write a frame, swallowing failures — used only where the connection
/// is already being torn down and the message is a courtesy.
fn best_effort<T: serde::Serialize>(stream: &mut TcpStream, msg: &T) {
    let _ = write_frame(stream, msg);
}

fn handle_conn<E: Engine + Send + Sync + 'static>(inner: &Arc<Inner<E>>, mut stream: TcpStream) {
    // One buffered reader serves the handshake and the whole
    // connection, so bytes a client sends behind its Hello are never
    // lost; `stream` is the write half.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);

    // ---- Handshake -------------------------------------------------
    let hello = match read_frame::<_, ClientMsg>(&mut reader) {
        Ok(Some(msg)) => msg,
        Ok(None) => return,
        Err(e) => {
            best_effort(&mut stream, &ServerMsg::Fault { error: e.into() });
            return;
        }
    };
    let (version, resume) = match hello {
        ClientMsg::Hello { version, resume } => (version, resume),
        _ => {
            best_effort(
                &mut stream,
                &ServerMsg::Fault {
                    error: EngineError::Protocol {
                        detail: "first frame must be Hello".to_string(),
                    },
                },
            );
            return;
        }
    };
    if version != WIRE_VERSION {
        best_effort(
            &mut stream,
            &ServerMsg::Fault {
                error: EngineError::Version {
                    server: WIRE_VERSION,
                    client: version,
                },
            },
        );
        return;
    }
    let (sid, session) = match resume {
        Some(id) => {
            let found = inner.sessions.lock().get(&id).cloned();
            match found {
                Some(s) => (id, s),
                None => {
                    best_effort(
                        &mut stream,
                        &ServerMsg::Fault {
                            error: EngineError::UnknownSession { session: id },
                        },
                    );
                    return;
                }
            }
        }
        None => {
            let id = inner.next_session.fetch_add(1, Ordering::SeqCst);
            let s: Arc<Session<E::Ticket>> = Arc::new(Session::new());
            inner.sessions.lock().insert(id, Arc::clone(&s));
            (id, s)
        }
    };

    // ---- Takeover --------------------------------------------------
    // Bump the epoch and detach any previous connection, then re-push
    // every unanswered feedback query: the client may have lost the
    // original delivery with its old connection. Duplicates are fine —
    // the client resolves by query identity and a second answer to a
    // settled flag is a typed `Stale`. Nothing is written to this
    // connection until the `HelloAck` below has gone out first.
    let my_epoch = {
        let mut st = session.conn_state.lock();
        st.epoch += 1;
        st.conn = None;
        let mut reqs: Vec<u64> = st.pending.keys().copied().collect();
        reqs.sort_unstable();
        for req in reqs {
            if let Some((target, query)) = st.pending.get(&req) {
                let (target, query) = (*target, query.clone());
                st.outbox
                    .push_back(frame(&ServerMsg::NeedsFeedback { req, target, query }));
            }
        }
        st.epoch
    };
    if write_frame(
        &mut stream,
        &ServerMsg::HelloAck {
            version: WIRE_VERSION,
            session: sid,
            fingerprint: inner.fingerprint.clone(),
        },
    )
    .is_err()
    {
        return;
    }
    {
        let mut st = session.conn_state.lock();
        if st.epoch != my_epoch {
            // Another connection already took the session over.
            return;
        }
        st.conn = Some(Arc::new(stream));
        session.drain(st);
    }

    // ---- Reader ----------------------------------------------------
    let mut retire = false;
    loop {
        match read_frame::<_, ClientMsg>(&mut reader) {
            Ok(Some(msg)) => {
                if let Flow::Close { retire: r } = dispatch(inner, &session, msg) {
                    retire = r;
                    break;
                }
            }
            // Clean disconnect: park the session for resume.
            Ok(None) => break,
            Err(e) => {
                // A hostile or broken peer reads as a typed fault; the
                // session parks (feedback timeouts keep running) and
                // the connection closes.
                session.push(frame(&ServerMsg::Fault { error: e.into() }));
                flush_then_close(&session, my_epoch);
                break;
            }
        }
    }

    // ---- Teardown --------------------------------------------------
    {
        let mut st = session.conn_state.lock();
        if st.epoch == my_epoch {
            st.epoch += 1;
            st.conn = None;
        }
    }
    if retire {
        inner.sessions.lock().remove(&sid);
    }
}

/// What the reader does after one dispatched message.
enum Flow {
    Continue,
    Close { retire: bool },
}

fn dispatch<E: Engine + Send + Sync + 'static>(
    inner: &Arc<Inner<E>>,
    session: &Arc<Session<E::Ticket>>,
    msg: ClientMsg,
) -> Flow {
    match msg {
        ClientMsg::Hello { .. } => {
            session.push(frame(&ServerMsg::Fault {
                error: EngineError::Protocol {
                    detail: "duplicate Hello on an established connection".to_string(),
                },
            }));
            Flow::Close { retire: false }
        }
        ClientMsg::Submit {
            req,
            tenant,
            instance,
        } => {
            let recorded = session.conn_state.lock().replies.get(&req).cloned();
            if let Some(recorded) = recorded {
                // A reconnecting client re-sent a Submit it could not
                // confirm: replay the recorded ack, never re-process
                // the admission.
                session.push(recorded);
                return Flow::Continue;
            }
            let (ack, watch) = match inner.corpus.get(&instance) {
                None => (
                    ServerMsg::SubmitFailed {
                        req,
                        error: EngineError::Submit(rts_serve::SubmitError::UnknownInstance {
                            instance,
                        }),
                    },
                    None,
                ),
                Some(inst) => match inner.engine.submit(tenant, inst) {
                    Ok(ticket) => (ServerMsg::Submitted { req }, Some(ticket)),
                    Err(e) => (
                        ServerMsg::SubmitFailed {
                            req,
                            error: e.into(),
                        },
                        None,
                    ),
                },
            };
            let ack = frame(&ack);
            {
                let mut st = session.conn_state.lock();
                if let Some(ticket) = watch {
                    st.reqs.insert(req, ticket);
                }
                st.replies.insert(req, ack.clone());
                st.outbox.push_back(ack);
                session.drain(st);
            }
            // Watch only after the ack is queued, so the client never
            // sees an event for a request it has no ack for.
            if let Some(ticket) = watch {
                watch_request(
                    inner,
                    Watch {
                        session: Arc::clone(session),
                        req,
                        ticket,
                    },
                );
            }
            Flow::Continue
        }
        ClientMsg::Resolve {
            req,
            ticket,
            query,
            resolution,
        } => {
            let engine_ticket = session.conn_state.lock().reqs.get(&ticket).copied();
            let reply = match engine_ticket {
                None => ServerMsg::ResolveFailed {
                    req,
                    error: EngineError::Retired { ticket },
                },
                Some(t) => match inner.engine.resolve(t, &query, resolution) {
                    Ok(()) => ServerMsg::Resolved { req },
                    Err(e) => ServerMsg::ResolveFailed {
                        req,
                        error: e.into(),
                    },
                },
            };
            session.push(frame(&reply));
            Flow::Continue
        }
        ClientMsg::Stats { req } => {
            session.push(frame(&ServerMsg::Stats {
                req,
                stats: inner.engine.stats(),
            }));
            Flow::Continue
        }
        ClientMsg::InvalidateDb { req, database } => {
            session.push(frame(&ServerMsg::Invalidated {
                req,
                dropped: inner.engine.invalidate_db(&database),
            }));
            Flow::Continue
        }
        ClientMsg::SetTenantWeight { tenant, weight } => {
            inner.engine.set_tenant_weight(tenant, weight);
            Flow::Continue
        }
        ClientMsg::Shutdown => {
            inner.draining.store(true, Ordering::SeqCst);
            inner.engine.shutdown();
            Flow::Continue
        }
        ClientMsg::Bye => Flow::Close { retire: true },
    }
}

/// Wait (bounded) for the outbox to drain — used to give a final
/// `Fault` a chance to reach the peer when another thread was
/// mid-write as the reader queued it.
fn flush_then_close<T>(session: &Session<T>, my_epoch: u64) {
    let deadline = std::time::Instant::now() + FAULT_FLUSH;
    loop {
        {
            let st = session.conn_state.lock();
            if st.outbox.is_empty() || st.conn.is_none() || st.epoch != my_epoch {
                return;
            }
        }
        if std::time::Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Hand `job` to an idle watcher, spawning one only when every live
/// watcher is busy or already claimed by a queued job.
fn watch_request<E: Engine + Send + Sync + 'static>(inner: &Arc<Inner<E>>, job: Watch<E::Ticket>) {
    let pool = &inner.watchers;
    let mut st = pool.pool_state.lock();
    st.jobs.push_back(job);
    if st.jobs.len() <= st.threads.saturating_sub(st.busy) {
        pool.wake.notify_one();
        return;
    }
    st.threads += 1;
    #[cfg(test)]
    {
        st.peak_threads = st.peak_threads.max(st.threads);
    }
    drop(st);
    let inner = Arc::clone(inner);
    std::thread::spawn(move || watcher_thread(&inner));
}

/// One pooled watcher: follow queued requests one at a time; exit once
/// the pool is closed and no job is left.
fn watcher_thread<E: Engine>(inner: &Inner<E>) {
    let pool = &inner.watchers;
    let mut st = pool.pool_state.lock();
    loop {
        if let Some(job) = st.jobs.pop_front() {
            st.busy += 1;
            drop(st);
            watch(inner, &job);
            st = pool.pool_state.lock();
            continue;
        }
        if st.closed {
            st.threads = st.threads.saturating_sub(1);
            return;
        }
        pool.wake.wait(&mut st);
    }
}

/// Forward every engine event for one request into its session's
/// outbox. Follows the request exactly as long as it lives — across
/// disconnects — which is what makes a parked session's feedback
/// timeout deliverable after a resume.
fn watch<E: Engine>(inner: &Inner<E>, job: &Watch<E::Ticket>) {
    let Watch {
        session,
        req,
        ticket,
    } = job;
    let req = *req;
    let mut last: Option<FlagQuery> = None;
    loop {
        match inner.engine.wait_event_changed(*ticket, last.as_ref()) {
            ClientEvent::NeedsFeedback { target, query } => {
                let msg = frame(&ServerMsg::NeedsFeedback {
                    req,
                    target,
                    query: query.clone(),
                });
                let mut st = session.conn_state.lock();
                st.pending.insert(req, (target, query.clone()));
                st.outbox.push_back(msg);
                session.drain(st);
                last = Some(query);
            }
            ClientEvent::Done(outcome) => {
                let msg = frame(&ServerMsg::Done {
                    req,
                    outcome: outcome.into(),
                });
                finish(inner, session, req, msg);
                return;
            }
            ClientEvent::Retired => {
                finish(inner, session, req, frame(&ServerMsg::Retired { req }));
                return;
            }
        }
    }
}

/// Retire `req` and queue its final frame. The watcher leaves the busy
/// count first, so whatever the client submits after reading this
/// frame finds it free.
fn finish<E: Engine>(inner: &Inner<E>, session: &Session<E::Ticket>, req: u64, msg: Vec<u8>) {
    inner.watchers.release();
    let mut st = session.conn_state.lock();
    st.pending.remove(&req);
    st.reqs.remove(&req);
    st.outbox.push_back(msg);
    session.drain(st);
}

#[cfg(test)]
mod tests {
    //! White-box tests of the writer and the watcher pool: they read the
    //! session outbox and the pool's thread counts, which no public API
    //! exposes.

    use super::*;
    use rts_core::abstention::MitigationPolicy;
    use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
    use rts_core::branching::BranchDataset;
    use rts_core::human::{Expertise, HumanOracle};
    use rts_core::session::resolve_flag;
    use rts_serve::{ServeConfig, ShardedEngine};
    use simlm::SchemaLinker;
    use std::collections::BTreeSet;
    use std::io::Read;
    use std::sync::OnceLock;
    use std::thread::JoinHandle;
    use std::time::Instant;

    struct Fx {
        bench: benchgen::Benchmark,
        model: SchemaLinker,
        mbpp_t: Mbpp,
        mbpp_c: Mbpp,
    }

    fn fixture() -> &'static Fx {
        static FX: OnceLock<Fx> = OnceLock::new();
        FX.get_or_init(|| {
            let bench = benchgen::BenchmarkProfile::bird_like()
                .scaled(0.02)
                .generate(77);
            let model = SchemaLinker::new("bird", 5);
            let cfg = MbppConfig {
                probe: ProbeConfig {
                    epochs: 4,
                    ..Default::default()
                },
                ..Default::default()
            };
            let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 150);
            let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 150);
            let mbpp_t = Mbpp::train(&ds_t, &cfg);
            let mbpp_c = Mbpp::train(&ds_c, &cfg);
            Fx {
                bench,
                model,
                mbpp_t,
                mbpp_c,
            }
        })
    }

    const FP: &str = "served-unit-fixture";

    /// A server over a 1-shard engine on an ephemeral loopback port, with
    /// its accept loop running. Engine workers are left to the caller.
    fn serving() -> (Server<ShardedEngine>, String, JoinHandle<()>) {
        let fx = fixture();
        let engine = Arc::new(ShardedEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            1,
            ServeConfig::default(),
        ));
        let server = Server::new(engine, FP.to_string(), fx.bench.split.dev.iter().cloned());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("loopback addr").to_string();
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || server.serve(listener).expect("serve drains cleanly"))
        };
        (server, addr, accept)
    }

    fn start_workers(server: &Server<ShardedEngine>) -> Vec<JoinHandle<()>> {
        let engine = server.engine();
        (0..engine.workers_total())
            .map(|i| {
                let engine = Arc::clone(engine);
                std::thread::spawn(move || engine.worker_loop(i))
            })
            .collect()
    }

    fn session_of(
        server: &Server<ShardedEngine>,
        sid: u64,
    ) -> Arc<Session<rts_serve::ShardedTicket>> {
        server
            .inner
            .sessions
            .lock()
            .get(&sid)
            .cloned()
            .expect("session is registered")
    }

    /// Poll `cond` until it holds, failing the test after 20 s.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A connected loopback socket pair: (server side, client side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    fn attach(session: &Session<u64>, conn: TcpStream) {
        let mut st = session.conn_state.lock();
        st.epoch += 1;
        st.conn = Some(Arc::new(conn));
        session.drain(st);
    }

    /// A batched write that fails pops nothing: the frames stay queued in
    /// order and a resumed connection receives every one of them.
    #[test]
    fn failed_batched_write_pops_nothing() {
        let session: Session<u64> = Session::new();
        for req in 1..=3 {
            session.push(frame(&ServerMsg::Submitted { req }));
        }
        assert_eq!(session.conn_state.lock().outbox.len(), 3, "parked: queued");

        // A socket whose write half is already shut: the batch write fails.
        let (broken, _peer) = socket_pair();
        broken.shutdown(Shutdown::Write).expect("shut write half");
        attach(&session, broken);
        {
            let st = session.conn_state.lock();
            assert_eq!(st.outbox.len(), 3, "a failed write must pop nothing");
            assert!(st.conn.is_none(), "a failed write detaches the connection");
            assert!(!st.writing);
        }

        // Resume on a healthy socket: all three arrive, in push order.
        let (good, mut peer) = socket_pair();
        attach(&session, good);
        for req in 1..=3 {
            match read_frame::<_, ServerMsg>(&mut peer).expect("frame readable") {
                Some(ServerMsg::Submitted { req: r }) => assert_eq!(r, req),
                other => panic!("expected Submitted {{ req: {req} }}, got {other:?}"),
            }
        }
        assert!(session.conn_state.lock().outbox.is_empty());
    }

    /// Drop a connection while its session's outbox fills up, then resume:
    /// the resumed connection receives every queued frame, byte for byte,
    /// right after its `HelloAck`.
    #[test]
    fn frames_queued_while_disconnected_all_arrive_on_resume() {
        let fx = fixture();
        let (server, addr, accept) = serving();

        let mut s = TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut s,
            &ClientMsg::Hello {
                version: WIRE_VERSION,
                resume: None,
            },
        )
        .expect("write hello");
        let sid = match read_frame::<_, ServerMsg>(&mut s).expect("handshake reply") {
            Some(ServerMsg::HelloAck { session, .. }) => session,
            other => panic!("expected HelloAck, got {other:?}"),
        };
        // No engine worker runs yet, so these requests make no progress
        // until the connection is gone.
        let reqs: Vec<u64> = (1..=4).collect();
        for (req, inst) in reqs.iter().zip(&fx.bench.split.dev) {
            write_frame(
                &mut s,
                &ClientMsg::Submit {
                    req: *req,
                    tenant: 0,
                    instance: inst.id,
                },
            )
            .expect("write submit");
            match read_frame::<_, ServerMsg>(&mut s).expect("ack readable") {
                Some(ServerMsg::Submitted { req: r }) => assert_eq!(r, *req),
                other => panic!("expected Submitted, got {other:?}"),
            }
        }
        s.shutdown(Shutdown::Both).expect("drop the connection");
        drop(s);
        let session = session_of(&server, sid);
        eventually("the server detaches the dropped connection", || {
            session.conn_state.lock().conn.is_none()
        });

        // Every request's first event lands in the parked outbox.
        let workers = start_workers(&server);
        eventually("each request queued an event", || {
            session.conn_state.lock().outbox.len() >= reqs.len()
        });
        let queued: Vec<u8> = session
            .conn_state
            .lock()
            .outbox
            .iter()
            .flatten()
            .copied()
            .collect();

        let mut s2 = TcpStream::connect(&addr).expect("reconnect");
        write_frame(
            &mut s2,
            &ClientMsg::Hello {
                version: WIRE_VERSION,
                resume: Some(sid),
            },
        )
        .expect("write resume hello");
        match read_frame::<_, ServerMsg>(&mut s2).expect("resume reply") {
            Some(ServerMsg::HelloAck { session, .. }) => assert_eq!(session, sid),
            other => panic!("expected HelloAck, got {other:?}"),
        }
        let mut delivered = vec![0u8; queued.len()];
        s2.read_exact(&mut delivered)
            .expect("queued frames delivered");
        assert_eq!(
            delivered, queued,
            "the resume must deliver the parked outbox verbatim"
        );
        let mut seen = BTreeSet::new();
        let mut r = std::io::Cursor::new(&delivered);
        while let Some(msg) = read_frame::<_, ServerMsg>(&mut r).expect("queued frames decode") {
            match msg {
                ServerMsg::NeedsFeedback { req, .. } | ServerMsg::Done { req, .. } => {
                    seen.insert(req);
                }
                other => panic!("unexpected queued frame {other:?}"),
            }
        }
        assert_eq!(
            seen,
            reqs.iter().copied().collect(),
            "one event per request"
        );

        write_frame(&mut s2, &ClientMsg::Bye).expect("write bye");
        drop(s2);
        server.begin_shutdown();
        accept.join().expect("accept loop");
        for w in workers {
            w.join().expect("worker");
        }
    }

    /// Sequential requests on one connection reuse one watcher: the pool
    /// never holds more threads than requests in flight (here one), and
    /// its idle watchers exit once `serve` returns.
    #[test]
    fn watcher_pool_stays_at_peak_in_flight_and_exits_after_serve() {
        let fx = fixture();
        let (server, addr, accept) = serving();
        let workers = start_workers(&server);
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let policy = MitigationPolicy::Human(&oracle);
        let client = rts_client::RtsClient::connect(&addr, Some(FP)).expect("handshake");
        let slice: Vec<benchgen::Instance> = fx
            .bench
            .split
            .dev
            .iter()
            .cycle()
            .take(500)
            .cloned()
            .collect();
        let served = rts_serve::drive_closed_loop(&client, 0, &slice, |inst, query| {
            Some(resolve_flag(&policy, inst, query))
        });
        assert_eq!(served.len(), 500);
        {
            let st = server.inner.watchers.pool_state.lock();
            assert_eq!(
                st.peak_threads, 1,
                "500 one-at-a-time requests must reuse a single watcher"
            );
            assert_eq!(st.busy, 0, "every request finished");
        }
        client.shutdown();
        client.bye();
        accept.join().expect("accept loop");
        eventually("idle watchers exit after serve returns", || {
            server.inner.watchers.pool_state.lock().threads == 0
        });
        for w in workers {
            w.join().expect("worker");
        }
    }
}
