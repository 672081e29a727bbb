//! The TCP server: one epoll readiness loop for every socket, a bounded
//! admission queue, a worker pool with `sim` micro-batching, and graceful
//! shutdown.
//!
//! # Threading model
//!
//! * A single event-loop thread owns all socket I/O through the crate's
//!   `net` module: dependency-free `epoll(7)`/`eventfd(2)`/`signal(2)`
//!   bindings, the line framer, and the `LineConn` connection type the
//!   shard router uses too. The loop watches the non-blocking listener,
//!   every connection, and an `eventfd` wake channel. Connections never
//!   get threads: each one is a `LineConn` — a read buffer with the line
//!   framing and oversized/resync handling, and a write buffer drained as
//!   the socket accepts bytes — plus the write half the workers answer
//!   through, so an idle connection costs one epoll registration instead
//!   of a parked reader thread spinning on a 50 ms read timeout.
//! * Cheap read-only methods (`planner`, `stats`, `telemetry`) are
//!   answered inline on the event loop; heavy work (`sim`, `experiment`,
//!   `plan`) is pushed through the bounded admission queue — a full queue
//!   answers `overloaded` immediately (backpressure, never buffering).
//! * A fixed worker pool drains the queue. A worker that pops a
//!   deadline-free `sim` request also drains other queued deadline-free
//!   `sim` requests — up to `COALESCE_MAX` of them, so a deep queue
//!   spreads across the pool instead of serializing behind one worker —
//!   and submits them as **one** batch: requests sharing a warm key then
//!   share a warm-up checkpoint inside
//!   [`SimBatch`](m3d_uarch::batch::SimBatch). Deadline-bearing `sim`
//!   requests run alone — a deadline must never cancel a bystander.
//! * Workers never touch sockets. A finished response line is pushed into
//!   the mailbox and the eventfd is signalled; the event loop moves the
//!   bytes into the connection's write buffer and flushes opportunistically,
//!   registering for writability only while a partial write is
//!   outstanding. Responses stay whole lines: pipelined responses may
//!   interleave across requests but never within a line. A `plan` streams
//!   its partial frontier lines through the same path; once the loop has
//!   torn a connection down, sends to it report `false` back to the
//!   worker, which cancels the search at the next chunk boundary
//!   (counted in `serve.plan_aborted`).
//!
//! # Shutdown
//!
//! SIGTERM/SIGINT (or [`ServerHandle::shutdown`]) set a flag. The event
//! loop stops accepting, sweeps each connection's kernel buffer one last
//! time and dispatches every complete line already received, then closes
//! the queue (new pushes answer `shutdown`). Workers finish everything
//! admitted, the loop keeps draining the mailbox and the write buffers
//! until all of it is on the wire (bounded by a 60 s window), and `run`
//! returns — the binary then exits 0. A request that was fully buffered
//! when the signal arrived therefore gets a real answer, never a silent
//! close.

use crate::engine::{method_counter, parse_sim_params, Engine, SimRequest};
use crate::net::{self, oversized_line, Epoll, EpollEvent, Line, LineConn, WakeFd, FLUSH_WINDOW};
use crate::protocol::{
    err_line, ok_line, parse_request, ErrorKind, Method, WireError, MAX_LINE_BYTES,
};
use crate::telemetry::{RequestObservation, SLOW_MS_DEFAULT};
use m3d_core::report::Json;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::net::install_signal_handlers;

/// Event-loop token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop token of the mailbox's wake eventfd.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// A worker popping a deadline-free `sim` head coalesces at most this
/// many queued deadline-free `sim` requests into one batch. Uncapped
/// coalescing would let one worker swallow the whole queue while the rest
/// of the pool idles, serializing a 64-deep queue behind a single thread.
const COALESCE_MAX: usize = 16;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Quick registry scale for `experiment` queries.
    pub quick: bool,
    /// Batch-engine lanes and experiment worker-pool size (1..=64).
    pub jobs: usize,
    /// Admission-queue bound; a full queue rejects with `overloaded`.
    pub queue_cap: usize,
    /// Worker threads draining the queue (clamped to at least one).
    pub workers: usize,
    /// Slow-request log threshold, milliseconds (0 disables the log).
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            quick: false,
            jobs: 1,
            queue_cap: 64,
            workers: 2,
            slow_ms: SLOW_MS_DEFAULT,
        }
    }
}

/// Request identity and arrival facts, threaded from admission through
/// the queue to the response so the flight recorder can reconstruct the
/// request's life.
struct ReqMeta {
    id: i64,
    method: Method,
    received: Instant,
    req_bytes: u64,
}

/// One queued `sim` request.
struct SimWork {
    meta: ReqMeta,
    req: SimRequest,
    reply: Arc<ConnWriter>,
}

/// One queued `experiment` request.
struct ExpWork {
    meta: ReqMeta,
    params: Json,
    deadline: Option<Instant>,
    reply: Arc<ConnWriter>,
}

/// One queued `plan` request. Unlike the other work kinds it writes to its
/// connection *while running*: each frontier chunk goes out as a partial
/// line through the shared [`ConnWriter`] before the final result.
struct PlanWork {
    meta: ReqMeta,
    params: Json,
    deadline: Option<Instant>,
    reply: Arc<ConnWriter>,
}

enum Work {
    /// Deadline-free `sim`: eligible for coalescing.
    Sim(SimWork),
    /// Deadline-bearing `sim`: runs alone.
    SimDeadline(SimWork, Instant),
    /// `experiment`.
    Experiment(ExpWork),
    /// `plan`: a streaming design-space search; never coalesced.
    Plan(PlanWork),
}

impl Work {
    /// Answer this work with an error without running it (queue
    /// rejection): `batch` 0 — it never reached a batch.
    fn fail(self, state: &ServerState, e: WireError) {
        match self {
            Work::Sim(w) | Work::SimDeadline(w, _) => {
                send_result(state, &w.reply, &w.meta, 0, 0, Err(e))
            }
            Work::Experiment(w) => send_result(state, &w.reply, &w.meta, 0, 0, Err(e)),
            Work::Plan(w) => send_result(state, &w.reply, &w.meta, 0, 0, Err(e)),
        }
    }
}

/// What a worker claims in one round.
enum Batch {
    /// One or more coalesced deadline-free `sim` requests.
    Sims(Vec<SimWork>),
    /// A single non-coalescible item.
    One(Work),
}

struct QueueInner {
    items: VecDeque<Work>,
    closed: bool,
}

/// Bounded admission queue (mutex + condvar; no timers, no unbounded
/// buffering).
struct Queue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Admit work, or hand it back with the structured rejection.
    ///
    /// The rejected `Work` rides in the `Err` by value on purpose: the
    /// caller needs it back to answer the client, and this is a
    /// once-per-request cold path.
    #[allow(clippy::result_large_err)]
    fn push(&self, w: Work) -> Result<(), (Work, WireError)> {
        let mut q = self.inner.lock().expect("serve queue poisoned");
        if q.closed {
            return Err((
                w,
                WireError::new(ErrorKind::Shutdown, "server is shutting down"),
            ));
        }
        if q.items.len() >= self.cap {
            return Err((
                w,
                WireError::new(
                    ErrorKind::Overloaded,
                    format!("admission queue full ({} queued)", q.items.len()),
                ),
            ));
        }
        q.items.push_back(w);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Stop admitting; queued work still drains.
    fn close(&self) {
        self.inner.lock().expect("serve queue poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Claim the next batch: a deadline-free `sim` head coalesces up to
    /// `COALESCE_MAX - 1` other queued deadline-free `sim` requests (the
    /// overflow stays queued, in order, for the next worker); anything
    /// else runs alone. `None` once the queue is closed and drained.
    fn pop_batch(&self) -> Option<Batch> {
        let mut q = self.inner.lock().expect("serve queue poisoned");
        loop {
            if let Some(w) = q.items.pop_front() {
                return Some(match w {
                    Work::Sim(first) => {
                        let mut group = vec![first];
                        let mut rest = VecDeque::with_capacity(q.items.len());
                        for other in q.items.drain(..) {
                            match other {
                                Work::Sim(s) if group.len() < COALESCE_MAX => group.push(s),
                                keep => rest.push_back(keep),
                            }
                        }
                        q.items = rest;
                        Batch::Sims(group)
                    }
                    other => Batch::One(other),
                });
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("serve queue poisoned");
        }
    }
}

/// Finished response lines travelling from whoever produced them (workers,
/// or the event loop itself for inline methods) back to the event loop,
/// which owns every socket. Pushing also signals the wake eventfd.
struct Mailbox {
    lines: Mutex<Vec<(u64, Vec<u8>)>>,
    wake: WakeFd,
}

impl Mailbox {
    fn new() -> std::io::Result<Mailbox> {
        Ok(Mailbox {
            lines: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
        })
    }

    fn push(&self, token: u64, bytes: Vec<u8>) {
        self.lines
            .lock()
            .expect("serve mailbox poisoned")
            .push((token, bytes));
        self.wake.wake();
    }

    fn drain(&self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut *self.lines.lock().expect("serve mailbox poisoned"))
    }

    fn is_empty(&self) -> bool {
        self.lines.lock().expect("serve mailbox poisoned").is_empty()
    }
}

/// The write half of one connection, shared between the event loop and
/// the workers answering its queued requests. Sends go through the
/// mailbox, never the socket: the event loop is the only thread that
/// writes to (or reads from) a `TcpStream`.
struct ConnWriter {
    token: u64,
    mailbox: Arc<Mailbox>,
    /// Set by the event loop when it tears the connection down (write
    /// failure, `EPOLLERR`/`EPOLLHUP`, or the flush window expiring).
    /// Once set, sends fail fast — which is what cancels a streaming
    /// `plan` whose client hung up.
    dead: AtomicBool,
    /// Requests admitted but not yet answered; the event loop keeps the
    /// connection's state alive until this reaches zero.
    pending: AtomicUsize,
}

impl ConnWriter {
    /// Hand one response line to the event loop for writing. Returns
    /// whether the connection was still up when the line was enqueued; a
    /// `false` (the client hung up, which must not take the worker down)
    /// is counted in `serve.write_errors`, matching a failed socket
    /// write.
    fn send(&self, line: &str) -> bool {
        if self.dead.load(Ordering::Acquire) {
            m3d_obs::add("serve.write_errors", 1);
            return false;
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.mailbox.push(self.token, buf);
        true
    }
}

/// Send a handler outcome and maintain the serve counters, the latency
/// histogram, and the engine's live telemetry (windows + flight
/// recorder). A response whose connection is already gone records no
/// latency — the client never saw it — but still leaves a flight record
/// with outcome `write_error`. Decrements the connection's pending count.
fn send_result(
    state: &ServerState,
    writer: &ConnWriter,
    meta: &ReqMeta,
    queue_us: u64,
    batch: u32,
    result: Result<Json, WireError>,
) {
    let (line, outcome) = match result {
        Ok(v) => (ok_line(meta.id, v), "ok"),
        Err(e) => {
            m3d_obs::add("serve.errors", 1);
            match e.kind {
                ErrorKind::Deadline => m3d_obs::add("serve.deadline_expired", 1),
                ErrorKind::Overloaded => m3d_obs::add("serve.rejected", 1),
                _ => {}
            }
            (err_line(Some(meta.id), &e), e.kind.wire_name())
        }
    };
    let sent = writer.send(&line);
    let total_us = (meta.received.elapsed().as_secs_f64() * 1e6) as u64;
    if sent {
        m3d_obs::record("serve.latency_us", total_us as f64);
    }
    state.engine.live().observe(RequestObservation {
        id: meta.id,
        method: meta.method,
        req_bytes: meta.req_bytes,
        resp_bytes: line.len() as u64,
        queue_us,
        total_us,
        batch,
        outcome: if sent { outcome } else { "write_error" },
    });
    writer.pending.fetch_sub(1, Ordering::AcqRel);
}

/// Microseconds between a request's arrival and a worker claiming it.
fn queue_wait_us(meta: &ReqMeta, claimed: Instant) -> u64 {
    (claimed.duration_since(meta.received).as_secs_f64() * 1e6) as u64
}

struct ServerState {
    engine: Engine,
    queue: Queue,
    stop: AtomicBool,
    workers: usize,
    mailbox: Arc<Mailbox>,
}

impl ServerState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || net::signalled()
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and build the engine. Fails on an unbindable
    /// address, an out-of-range `jobs` (surfaced as `InvalidInput`), or
    /// an exhausted fd table (the wake eventfd).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let engine = Engine::new(cfg.quick, cfg.jobs).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
        })?;
        engine.set_slow_ms(cfg.slow_ms);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let mailbox = Arc::new(Mailbox::new()?);
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                engine,
                queue: Queue::new(cfg.queue_cap),
                stop: AtomicBool::new(false),
                workers: cfg.workers.max(1),
                mailbox,
            }),
        })
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a signal arrives or [`ServerHandle::shutdown`] is
    /// called, then drain and return.
    pub fn run(self) {
        let mut workers = Vec::new();
        for k in 0..self.state.workers {
            let st = Arc::clone(&self.state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{k}"))
                    .spawn(move || {
                        m3d_obs::label_thread(format!("serve-worker-{k}"));
                        worker_loop(&st);
                    })
                    .expect("spawn serve worker"),
            );
        }
        let epoll = Epoll::new().expect("epoll_create1");
        epoll
            .add(&self.listener, TOKEN_LISTENER)
            .expect("register listener");
        epoll
            .add(&self.state.mailbox.wake, TOKEN_WAKE)
            .expect("register wake eventfd");
        let mut el = EventLoop {
            epoll,
            listener: self.listener,
            state: self.state,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        let mut events = [EpollEvent::default(); 64];
        while !el.state.stopping() {
            // The timeout bounds how long a signal can go unnoticed when
            // the loop is otherwise idle.
            let n = el.epoll.wait(&mut events, 100);
            for ev in events.iter().take(n).copied() {
                match ev.token() {
                    TOKEN_LISTENER => el.accept_clients(),
                    TOKEN_WAKE => el.state.mailbox.wake.drain(),
                    t => el.conn_event(t, ev),
                }
            }
            el.deliver_and_flush();
            el.reap();
        }
        el.drain_and_exit(workers);
    }

    /// Run on a background thread; the returned handle stops it.
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { state, thread }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    state: Arc<ServerState>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Request a graceful drain and wait for it to finish.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Kick the event loop out of its epoll_wait immediately.
        self.state.mailbox.wake.wake();
        let _ = self.thread.join();
    }
}

/// Per-connection state, owned by the event loop: the socket and its
/// buffers, plus the write half shared with the workers.
struct Conn {
    net: LineConn,
    writer: Arc<ConnWriter>,
}

/// The readiness loop's working set: the epoll instance, the listener,
/// and every live connection keyed by token.
struct EventLoop {
    epoll: Epoll,
    listener: TcpListener,
    state: Arc<ServerState>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    /// Accept and register every pending connection.
    fn accept_clients(&mut self) {
        let (conns, mailbox) = (&mut self.conns, &self.state.mailbox);
        net::accept(&self.listener, &self.epoll, &mut self.next_token, |net| {
            let writer = Arc::new(ConnWriter {
                token: net.token(),
                mailbox: Arc::clone(mailbox),
                dead: AtomicBool::new(false),
                pending: AtomicUsize::new(0),
            });
            conns.insert(net.token(), Conn { net, writer });
        });
    }

    /// Dispatch one readiness event for a connection (a stale event for
    /// one torn down earlier in the same batch is ignored).
    fn conn_event(&mut self, token: u64, ev: EpollEvent) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.hangup() || (ev.writable() && !c.net.flush(&self.epoll)) {
            self.kill(token);
        } else if ev.readable() {
            self.read_requests(token);
        }
    }

    /// Read until the socket would block (or EOF), dispatching complete
    /// lines as they are framed.
    fn read_requests(&mut self, token: u64) {
        let Some(c) = self.conns.get_mut(&token) else {
            return;
        };
        let (state, writer) = (&self.state, &c.writer);
        c.net.read_lines(MAX_LINE_BYTES, &self.epoll, |line| match line {
            Line::Text(text) => process_line(text, writer, state),
            Line::Oversized => {
                m3d_obs::add("serve.errors", 1);
                writer.send(&oversized_line());
            }
        });
    }

    /// Tear a connection down *now*: mark its writer dead (late sends
    /// from workers then fail fast and count `serve.write_errors`) and
    /// drop the socket, which also deregisters it from epoll.
    fn kill(&mut self, token: u64) {
        if let Some(c) = self.conns.remove(&token) {
            c.writer.dead.store(true, Ordering::Release);
            if c.net.has_backlog() {
                // The unflushed tail never reached the client.
                m3d_obs::add("serve.write_errors", 1);
            }
        }
    }

    /// Move mailbox lines into their connections' write buffers and try
    /// to put them on the wire. Lines for a connection that no longer
    /// exists are write errors: the client hung up before its answer.
    fn deliver_and_flush(&mut self) {
        for (token, bytes) in self.state.mailbox.drain() {
            match self.conns.get_mut(&token) {
                Some(c) => c.net.queue(&bytes),
                None => m3d_obs::add("serve.write_errors", 1),
            }
        }
        let failed: Vec<u64> = self
            .conns
            .iter_mut()
            .filter_map(|(t, c)| (c.net.has_backlog() && !c.net.flush(&self.epoll)).then_some(*t))
            .collect();
        for token in failed {
            self.kill(token);
        }
    }

    /// Close connections that are finished: the peer stopped sending and
    /// every admitted request has been answered and flushed. A peer that
    /// half-closed but cannot absorb its responses is cut off after the
    /// flush window, like shutdown.
    fn reap(&mut self) {
        let now = Instant::now();
        let mailbox_empty = self.state.mailbox.is_empty();
        let done: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.net.read_closed()
                    && ((mailbox_empty
                        && !c.net.has_backlog()
                        && c.writer.pending.load(Ordering::Acquire) == 0)
                        || c.net.flush_expired(now))
            })
            .map(|(t, _)| *t)
            .collect();
        for token in done {
            self.kill(token);
        }
    }

    /// Graceful drain. Requests whose bytes already reached this host are
    /// still answered: sweep each connection's kernel buffer, dispatch
    /// every complete line (the queue is still open, so they get real
    /// answers or structured rejections), then close the queue and keep
    /// the loop alive until the workers finish and every response line is
    /// on the wire — bounded by the flush window.
    fn drain_and_exit(mut self, workers: Vec<JoinHandle<()>>) {
        // One final accept sweep first: a client whose handshake finished
        // before the signal may still be sitting in the listener backlog
        // with fully written requests — established is established, so it
        // gets the same drain guarantee as an already-registered
        // connection. (Handshakes completing after this instant see a
        // reset when the listener drops, which is indistinguishable from
        // the daemon having exited a moment sooner.)
        self.accept_clients();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.read_requests(token);
            if let Some(c) = self.conns.get_mut(&token) {
                // No more reads from here on; dropping EPOLLIN interest
                // keeps readable-but-ignored sockets from spinning the
                // drain loop hot.
                c.net.stop_reading(&self.epoll);
            }
        }
        self.state.queue.close();
        let t0 = Instant::now();
        let mut events = [EpollEvent::default(); 64];
        loop {
            // Read the workers' state *before* draining the mailbox: a
            // worker always pushes its last response before exiting, so
            // "all finished" + "mailbox empty after a drain" means every
            // response has been handed over.
            let workers_done = workers.iter().all(|w| w.is_finished());
            self.deliver_and_flush();
            let flushed = self.state.mailbox.is_empty()
                && self.conns.values().all(|c| !c.net.has_backlog());
            if (workers_done && flushed) || t0.elapsed() > FLUSH_WINDOW {
                break;
            }
            let n = self.epoll.wait(&mut events, 50);
            for ev in events.iter().take(n).copied() {
                match ev.token() {
                    TOKEN_LISTENER => {}
                    TOKEN_WAKE => self.state.mailbox.wake.drain(),
                    // Reads stopped above, so only hang-ups and
                    // writability are reported from here on.
                    t => self.conn_event(t, ev),
                }
            }
        }
        for w in workers {
            let _ = w.join();
        }
        // Dropping the event loop closes every socket: clients see EOF
        // only after their buffered requests were answered.
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "handler panicked".to_owned()
    }
}

/// Run one claimed `sim` group (coalesced, solo, or deadline-bearing)
/// behind a panic guard and answer every member. Every `sim` path goes
/// through here, so no arm can leak a panic and kill its worker thread.
fn run_sim_group(
    state: &ServerState,
    group: &[SimWork],
    deadline: Option<Instant>,
    claimed: Instant,
) {
    let _span = m3d_obs::span("serve", "sim");
    let batch_size = group.len() as u32;
    let reqs: Vec<&SimRequest> = group.iter().map(|w| &w.req).collect();
    match catch_unwind(AssertUnwindSafe(|| state.engine.sim_group(&reqs, deadline))) {
        Ok(results) => {
            for (w, r) in group.iter().zip(results) {
                send_result(
                    state,
                    &w.reply,
                    &w.meta,
                    queue_wait_us(&w.meta, claimed),
                    batch_size,
                    r,
                );
            }
        }
        Err(p) => {
            let e = WireError::new(ErrorKind::Panic, panic_text(p));
            for w in group {
                send_result(
                    state,
                    &w.reply,
                    &w.meta,
                    queue_wait_us(&w.meta, claimed),
                    batch_size,
                    Err(e.clone()),
                );
            }
        }
    }
}

fn worker_loop(state: &ServerState) {
    while let Some(batch) = state.queue.pop_batch() {
        // Queue wait ends the moment the worker claims the batch; the rest
        // of each request's life is handle time.
        let claimed = Instant::now();
        match batch {
            Batch::Sims(group) => {
                if group.len() > 1 {
                    m3d_obs::add("serve.coalesced", (group.len() - 1) as u64);
                }
                run_sim_group(state, &group, None, claimed);
            }
            Batch::One(Work::SimDeadline(w, deadline)) => {
                run_sim_group(state, std::slice::from_ref(&w), Some(deadline), claimed);
            }
            Batch::One(Work::Sim(w)) => {
                // Unreachable by construction (pop_batch coalesces these),
                // but answering it is still the right fallback — and it
                // shares the panic guard, so even this path cannot
                // silently shrink the pool.
                run_sim_group(state, std::slice::from_ref(&w), None, claimed);
            }
            Batch::One(Work::Experiment(w)) => {
                let _span = m3d_obs::span("serve", "experiment");
                let r = if w.deadline.is_some_and(|d| Instant::now() >= d) {
                    Err(WireError::new(
                        ErrorKind::Deadline,
                        "deadline expired before the experiment started",
                    ))
                } else {
                    catch_unwind(AssertUnwindSafe(|| state.engine.experiment(&w.params)))
                        .unwrap_or_else(|p| {
                            Err(WireError::new(ErrorKind::Panic, panic_text(p)))
                        })
                };
                send_result(state, &w.reply, &w.meta, queue_wait_us(&w.meta, claimed), 1, r);
            }
            Batch::One(Work::Plan(w)) => {
                let _span = m3d_obs::span("serve", "plan");
                let r = if w.deadline.is_some_and(|d| Instant::now() >= d) {
                    Err(WireError::new(
                        ErrorKind::Deadline,
                        "deadline expired before the search started",
                    ))
                } else {
                    // Partials go out through the mailbox as they are
                    // produced. The send result feeds back into the
                    // search: once the client is gone the next chunk
                    // boundary aborts the run instead of simulating for
                    // nobody. The final line still flows through
                    // `send_result` for the counters and latency record.
                    catch_unwind(AssertUnwindSafe(|| {
                        state
                            .engine
                            .plan(w.meta.id, &w.params, w.deadline, |line| w.reply.send(line))
                    }))
                    .unwrap_or_else(|p| Err(WireError::new(ErrorKind::Panic, panic_text(p))))
                };
                send_result(state, &w.reply, &w.meta, queue_wait_us(&w.meta, claimed), 1, r);
            }
        }
    }
}

fn process_line(line: &str, writer: &Arc<ConnWriter>, state: &Arc<ServerState>) {
    let received = Instant::now();
    let req = match parse_request(line) {
        Ok(r) => r,
        Err((id, e)) => {
            m3d_obs::add("serve.errors", 1);
            writer.send(&err_line(id, &e));
            return;
        }
    };
    m3d_obs::add("serve.requests", 1);
    m3d_obs::add(method_counter(req.method), 1);
    let meta = ReqMeta {
        id: req.id,
        method: req.method,
        received,
        req_bytes: line.len() as u64,
    };
    let deadline = req
        .deadline_ms
        .map(|ms| received + Duration::from_millis(ms));
    match req.method {
        Method::Planner => {
            let _span = m3d_obs::span("serve", "planner");
            writer.pending.fetch_add(1, Ordering::AcqRel);
            send_result(state, writer, &meta, 0, 1, Ok(state.engine.planner()));
        }
        Method::Stats => {
            let _span = m3d_obs::span("serve", "stats");
            writer.pending.fetch_add(1, Ordering::AcqRel);
            send_result(state, writer, &meta, 0, 1, Ok(state.engine.stats()));
        }
        Method::Telemetry => {
            let _span = m3d_obs::span("serve", "telemetry");
            writer.pending.fetch_add(1, Ordering::AcqRel);
            let r = state.engine.telemetry(&req.params);
            send_result(state, writer, &meta, 0, 1, r);
        }
        Method::Sim => {
            let sim = match parse_sim_params(&req.params) {
                Ok(s) => s,
                Err(e) => {
                    writer.pending.fetch_add(1, Ordering::AcqRel);
                    send_result(state, writer, &meta, 0, 0, Err(e));
                    return;
                }
            };
            let w = SimWork {
                meta,
                req: sim,
                reply: Arc::clone(writer),
            };
            writer.pending.fetch_add(1, Ordering::AcqRel);
            let work = match deadline {
                Some(d) => Work::SimDeadline(w, d),
                None => Work::Sim(w),
            };
            if let Err((work, e)) = state.queue.push(work) {
                work.fail(state, e);
            }
        }
        Method::Experiment => {
            let w = ExpWork {
                meta,
                params: req.params.clone(),
                deadline,
                reply: Arc::clone(writer),
            };
            writer.pending.fetch_add(1, Ordering::AcqRel);
            if let Err((work, e)) = state.queue.push(Work::Experiment(w)) {
                work.fail(state, e);
            }
        }
        Method::Plan => {
            let w = PlanWork {
                meta,
                params: req.params.clone(),
                deadline,
                reply: Arc::clone(writer),
            };
            writer.pending.fetch_add(1, Ordering::AcqRel);
            if let Err((work, e)) = state.queue.push(Work::Plan(w)) {
                work.fail(state, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_writer(mailbox: &Arc<Mailbox>) -> Arc<ConnWriter> {
        Arc::new(ConnWriter {
            token: FIRST_CONN_TOKEN,
            mailbox: Arc::clone(mailbox),
            dead: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
        })
    }

    fn sim_work(mailbox: &Arc<Mailbox>, id: i64) -> Work {
        Work::Sim(SimWork {
            meta: ReqMeta {
                id,
                method: Method::Sim,
                received: Instant::now(),
                req_bytes: 0,
            },
            req: SimRequest {
                points: Vec::new(),
                strict: false,
            },
            reply: test_writer(mailbox),
        })
    }

    #[test]
    fn coalescing_caps_the_group_size() {
        let mailbox = Arc::new(Mailbox::new().expect("eventfd"));
        let q = Queue::new(64);
        for id in 0..40 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        q.close();
        let mut sizes = Vec::new();
        let mut ids = Vec::new();
        while let Some(b) = q.pop_batch() {
            match b {
                Batch::Sims(group) => {
                    sizes.push(group.len());
                    ids.extend(group.iter().map(|w| w.meta.id));
                }
                Batch::One(_) => panic!("only sims were queued"),
            }
        }
        assert_eq!(sizes, vec![COALESCE_MAX, COALESCE_MAX, 40 - 2 * COALESCE_MAX]);
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn capped_coalescing_preserves_queue_order_around_other_work() {
        let mailbox = Arc::new(Mailbox::new().expect("eventfd"));
        let q = Queue::new(64);
        for id in 0..10 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        assert!(q
            .push(Work::Experiment(ExpWork {
                meta: ReqMeta {
                    id: 100,
                    method: Method::Experiment,
                    received: Instant::now(),
                    req_bytes: 0,
                },
                params: Json::Null,
                deadline: None,
                reply: test_writer(&mailbox),
            }))
            .is_ok());
        for id in 10..30 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        q.close();
        // First claim: 16 sims (the experiment is skipped, not reordered).
        let Some(Batch::Sims(group)) = q.pop_batch() else {
            panic!("sim head coalesces");
        };
        assert_eq!(group.len(), COALESCE_MAX);
        assert_eq!(group.iter().map(|w| w.meta.id).collect::<Vec<_>>(), {
            let mut want: Vec<i64> = (0..16).collect();
            want.truncate(COALESCE_MAX);
            want
        });
        // The experiment kept its place ahead of the overflow sims.
        let Some(Batch::One(Work::Experiment(e))) = q.pop_batch() else {
            panic!("experiment is next");
        };
        assert_eq!(e.meta.id, 100);
        let Some(Batch::Sims(rest)) = q.pop_batch() else {
            panic!("remaining sims coalesce");
        };
        assert_eq!(
            rest.iter().map(|w| w.meta.id).collect::<Vec<_>>(),
            (16..30).collect::<Vec<_>>()
        );
        assert!(q.pop_batch().is_none(), "closed and drained");
    }

    #[test]
    fn dead_writer_fails_sends_without_touching_the_mailbox() {
        let mailbox = Arc::new(Mailbox::new().expect("eventfd"));
        let w = test_writer(&mailbox);
        assert!(w.send("{\"ok\":1}"));
        w.dead.store(true, Ordering::Release);
        assert!(!w.send("{\"ok\":2}"));
        let delivered = mailbox.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, b"{\"ok\":1}\n");
        assert!(mailbox.is_empty());
    }
}
