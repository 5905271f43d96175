//! The TCP front of the evaluation service: a `std::net` listener,
//! per-connection reader/writer threads and a shared request worker pool,
//! with newline-delimited JSON framing.
//!
//! Design constraints (see the crate docs): the build environment is
//! offline, so there is no async runtime — everything is plain blocking
//! `std` threads. Since protocol v3 each connection **pipelines**: a
//! reader thread decodes `RequestEnvelope`s continuously and dispatches
//! each tagged streaming request (`Sweep`, `GridSweep`, `Lint`,
//! `Experiment`) to the shared pool of `threads` request workers, while a
//! per-connection writer thread fairly interleaves the tagged response
//! lines of every in-flight stream onto the socket (round-robin, one line
//! per stream per turn). Each stream feeds the writer through its own
//! bounded queue, so one sweep producing records faster than the wire
//! drains them blocks **its own** worker, never the reader or the other
//! streams. Cheap requests (`Ping`, `Submit`, `Cancel`, `Shutdown`, …)
//! are answered inline on the reader thread, which is why a `Cancel` sent
//! on the same connection stops a sweep ahead of it — whether that sweep
//! is still streaming or still *queued* for a worker.
//!
//! Every heavy request, tagged or bare, takes the same path: a tagged
//! one first reserves its id ([`EvalService::reserve`], which registers
//! the cancel token before the request enters the pool queue), then the
//! request becomes one pool job. The only difference is that a bare (v1)
//! request has no id to demultiplex by, so the reader waits for its job
//! to finish before decoding the next line — one at a time in arrival
//! order, exactly as in v2 — while `--threads` still bounds concurrent
//! heavy requests for v1 clients too.
//!
//! `--threads` bounds concurrent heavy *requests*, not concurrent
//! simulations: each pool job's sweep runs its cells on
//! `SweepExecutor::new`'s default of one thread per core, so two sweeps
//! in flight may simulate on twice as many threads as there are cores.
//!
//! Request lines are read as bytes and checked for UTF-8 once complete,
//! so a request split anywhere across a slow network survives the read
//! timeout. A line longer than [`MAX_REQUEST_LINE`] bytes gets one
//! `Error` and the connection closes.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] (or a client
//! `Shutdown` request) raises a flag; the accept loop and idle readers
//! notice it within one poll interval, in-flight streams run to
//! completion, and [`ServerHandle::join`] returns with no dangling
//! threads.

use crate::protocol::{self, Request, Response, ResponseEnvelope, MAX_REQUEST_LINE};
use crate::service::{EvalService, Reservation};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Per-connection read timeout; bounds how long shutdown can lag a
/// reader thread (a blocking read returns as soon as data arrives, so
/// this never delays a request).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Poll interval of the non-blocking accept loop. Unlike the read
/// timeout, this one is user-visible latency — a fresh connection's
/// first request waits for the next accept poll — so it stays tight.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-write timeout on response frames: a stalled reader costs at most
/// this long per write before its connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Bounded depth of one stream's frame queue between its producing worker
/// and the connection's writer thread. A stream that outruns the wire by
/// this many lines blocks its own sweep (backpressure), not the
/// connection.
const STREAM_QUEUE_CAP: usize = 64;

/// Upper bound on bytes coalesced into one socket write by the writer
/// thread. Batching amortizes syscalls under load without letting one
/// flush starve the queues for long.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// The worker-pool size used when the operator does not pass `--threads`:
/// one request worker per hardware thread (`available_parallelism`),
/// falling back to 4 when the parallelism is unknown.
pub fn default_worker_threads() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server: its bound address plus the shutdown/join controls.
/// Dropping the handle shuts the server down and joins its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag; the accept loop and idle connections stop
    /// within one poll interval.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until the accept loop and every worker have exited (after
    /// [`ServerHandle::shutdown`] or a client `Shutdown` request).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            handle.join().expect("server accept thread panicked");
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` and serves `service` until shut down. Returns immediately;
/// the listener runs on background threads. `threads` sizes the shared
/// request worker pool that heavy requests (sweeps, lints, experiments)
/// are dispatched to — it bounds concurrent heavy *requests*, not
/// concurrent connections: every connection gets its own lightweight
/// reader and writer thread, and heavy requests from all connections
/// multiplex over the one pool. Nor does it bound simulations: each
/// request's sweep runs its cells on one thread per core.
///
/// # Errors
///
/// Propagates socket errors from binding the listener.
pub fn serve(
    addr: impl ToSocketAddrs,
    service: EvalService,
    threads: usize,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let service = Arc::new(service);

    let accept = {
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || accept_loop(listener, service, shutdown, threads.max(1)))
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        accept: Some(accept),
    })
}

// ------------------------------------------------------- request pool

/// One unit of pool work: a request handler closure, boxed for the shared
/// mpsc job channel.
type Job = Box<dyn FnOnce() + Send>;

/// The shared request worker pool: heavy requests from every
/// connection funnel into one job queue consumed by `threads` workers.
struct RequestPool {
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl RequestPool {
    fn new(threads: usize) -> Arc<Self> {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                thread::spawn(move || pool_worker(&rx))
            })
            .collect();
        Arc::new(RequestPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        })
    }

    /// Enqueues a job; returns it back when the pool is already closed
    /// (shutdown raced the dispatch) so the caller can run it inline.
    fn submit(&self, job: Job) -> Result<(), Job> {
        match lock(&self.tx).as_ref() {
            Some(tx) => tx.send(job).map_err(|e| e.0),
            None => Err(job),
        }
    }

    /// Closes the job queue and joins the workers (in-flight jobs run to
    /// completion).
    fn close(&self) {
        lock(&self.tx).take();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

fn pool_worker(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Holding the lock across recv is fine: exactly one idle worker
        // waits on the channel, the rest queue on the mutex.
        let job = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                // A panicking request must not shrink the shared pool for
                // the rest of the server's lifetime: contain the unwind
                // and keep the worker serving. (The job's stream handle
                // drops during the unwind, so its response stream closes.)
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    eprintln!(
                        "cassandra-server: a request job panicked; \
                         its worker keeps serving"
                    );
                }
            }
            Err(_) => return, // Channel closed: the server is shutting down.
        }
    }
}

// --------------------------------------------------- connection writer

/// One in-flight response stream's slot in the connection writer: its
/// bounded frame queue plus whether the producing request is still
/// running.
struct MuxStream {
    token: u64,
    queue: VecDeque<String>,
    open: bool,
}

/// Shared state of one connection's writer thread: the active streams in
/// open order plus the round-robin cursor.
struct MuxState {
    streams: Vec<MuxStream>,
    next_slot: usize,
    next_token: u64,
    /// The reader is gone (EOF or shutdown): the writer exits once every
    /// stream has closed and drained.
    reader_done: bool,
    /// The socket is gone (write error/timeout): producers stop blocking
    /// and get an error instead.
    dead: bool,
}

/// The per-connection response multiplexer: producers push encoded frames
/// into per-stream bounded queues, the writer thread drains them onto the
/// socket with a fair round-robin interleave.
struct MuxWriter {
    state: Mutex<MuxState>,
    /// Writer waits here for frames (or closure).
    frames: Condvar,
    /// Producers wait here for queue space.
    space: Condvar,
}

impl MuxWriter {
    fn new() -> Arc<Self> {
        Arc::new(MuxWriter {
            state: Mutex::new(MuxState {
                streams: Vec::new(),
                next_slot: 0,
                next_token: 0,
                reader_done: false,
                dead: false,
            }),
            frames: Condvar::new(),
            space: Condvar::new(),
        })
    }

    /// Opens a new stream slot and returns its producer handle.
    fn open_stream(self: &Arc<Self>) -> StreamHandle {
        let mut state = lock(&self.state);
        let token = state.next_token;
        state.next_token += 1;
        state.streams.push(MuxStream {
            token,
            queue: VecDeque::new(),
            open: true,
        });
        StreamHandle {
            mux: Arc::clone(self),
            token,
        }
    }

    /// Marks the reader as gone; the writer exits once the remaining
    /// streams finish.
    fn reader_done(&self) {
        lock(&self.state).reader_done = true;
        self.frames.notify_all();
    }
}

/// A producer's handle on its stream slot: pushes frames with per-stream
/// backpressure and closes the slot on drop (every exit path of the
/// request handler, including panics inside the pool job).
struct StreamHandle {
    mux: Arc<MuxWriter>,
    token: u64,
}

impl StreamHandle {
    /// Enqueues one encoded response line, blocking while this stream's
    /// queue is full.
    ///
    /// # Errors
    ///
    /// Fails with `BrokenPipe` once the connection's socket has died, so
    /// an abandoned sweep stops simulating instead of streaming into the
    /// void.
    fn push(&self, frame: String) -> io::Result<()> {
        self.push_all([frame])
    }

    /// Enqueues response lines in order, holding the state lock between
    /// them (it is released only to wait for queue space), so the writer
    /// finds them together and sends them in one socket write.
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push).
    fn push_all(&self, frames: impl IntoIterator<Item = String>) -> io::Result<()> {
        let mut state = lock(&self.mux.state);
        for frame in frames {
            loop {
                if state.dead {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "connection writer closed",
                    ));
                }
                let Some(stream) = state.streams.iter_mut().find(|s| s.token == self.token) else {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "response stream closed",
                    ));
                };
                if stream.queue.len() < STREAM_QUEUE_CAP {
                    stream.queue.push_back(frame);
                    self.mux.frames.notify_all();
                    break;
                }
                state = self
                    .mux
                    .space
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        Ok(())
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        let mut state = lock(&self.mux.state);
        if let Some(stream) = state.streams.iter_mut().find(|s| s.token == self.token) {
            stream.open = false;
        }
        self.mux.frames.notify_all();
    }
}

/// The connection's writer thread: round-robins one frame per non-empty
/// stream per turn (fair interleave), coalescing up to
/// [`WRITE_BATCH_BYTES`] per socket write. Exits when the socket dies or
/// when the reader is done and every stream has closed and drained.
/// Fills `batch` with frames from the streams' queues: repeated
/// round-robin cycles taking at most one frame per stream per cycle (the
/// fair interleave), until the batch reaches [`WRITE_BATCH_BYTES`] or
/// every queue is empty. `state.next_slot` resumes after the last slot
/// served, so fairness carries across batches too.
fn fill_batch(state: &mut MuxState, batch: &mut String) {
    let n = state.streams.len();
    let mut took = true;
    while took && batch.len() < WRITE_BATCH_BYTES {
        took = false;
        // Snapshot the cursor for this cycle: it must visit every stream
        // exactly once even as taking a frame advances the cursor
        // (iterating from the live cursor skips slots — with three ready
        // streams the serve order degenerated to 0,2,2,… and starved
        // slot 1 indefinitely).
        let base = state.next_slot;
        for step in 0..n {
            let slot = (base + step) % n;
            if let Some(frame) = state.streams[slot].queue.pop_front() {
                batch.push_str(&frame);
                batch.push('\n');
                state.next_slot = (slot + 1) % n;
                took = true;
                if batch.len() >= WRITE_BATCH_BYTES {
                    return;
                }
            }
        }
    }
}

fn writer_loop(mut socket: TcpStream, mux: &MuxWriter) {
    let mut batch = String::new();
    loop {
        batch.clear();
        {
            let mut state = lock(&mux.state);
            loop {
                if state.dead {
                    return;
                }
                // Retire streams whose producer finished and whose queue
                // has drained.
                state.streams.retain(|s| s.open || !s.queue.is_empty());
                if state.streams.is_empty() && state.reader_done {
                    return;
                }
                fill_batch(&mut state, &mut batch);
                if !batch.is_empty() {
                    break;
                }
                state = mux
                    .frames
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Queue space freed: wake blocked producers before the write so
        // they refill while the syscall runs.
        mux.space.notify_all();
        if socket.write_all(batch.as_bytes()).is_err() {
            lock(&mux.state).dead = true;
            mux.frames.notify_all();
            mux.space.notify_all();
            return;
        }
    }
}

// ---------------------------------------------------------- accept loop

fn accept_loop(
    listener: TcpListener,
    service: Arc<EvalService>,
    shutdown: Arc<AtomicBool>,
    threads: usize,
) {
    let pool = RequestPool::new(threads);
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(&service);
                let shutdown = Arc::clone(&shutdown);
                let pool = Arc::clone(&pool);
                readers.push(thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &shutdown, &pool);
                }));
                // Reap finished connections so a long-lived server does
                // not accumulate joined-but-unreclaimed handles.
                readers.retain(|r| !r.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => break,
        }
    }
    // Let in-flight requests finish, then the connection threads drain
    // their writers and exit (their readers notice the shutdown flag
    // within one poll interval).
    pool.close();
    for reader in readers {
        let _ = reader.join();
    }
}

/// True for requests answered inline on the connection's reader thread:
/// everything that neither simulates nor analyzes, so the reader stays
/// responsive (this is what lets a same-connection `Cancel` stop a sweep
/// that is still streaming). Streaming/heavy requests go to the pool.
fn runs_inline(request: &Request) -> bool {
    matches!(
        request,
        Request::Ping
            | Request::ListPolicies
            | Request::ListWorkloads
            | Request::Submit { .. }
            | Request::Cancel { .. }
            | Request::Shutdown
    )
}

/// Encodes one response line in the request's framing: enveloped requests
/// get every line wrapped with their id, bare requests get bare lines.
fn encode_frame(id: Option<&str>, response: Response) -> String {
    match id {
        Some(id) => protocol::encode(&ResponseEnvelope {
            id: id.to_string(),
            response,
        }),
        None => protocol::encode(&response),
    }
}

/// Serves one client connection (the reader half): decodes requests
/// continuously, answering cheap ones inline and dispatching tagged
/// streaming ones to the request pool, while the spawned writer thread
/// interleaves all response streams onto the socket. See the module docs
/// for the full pipelining contract.
fn handle_connection(
    stream: TcpStream,
    service: &Arc<EvalService>,
    shutdown: &AtomicBool,
    pool: &RequestPool,
) -> io::Result<()> {
    // BSD-derived platforms let accepted sockets inherit the listener's
    // non-blocking mode; force blocking so the read timeout below governs
    // the idle poll instead of a busy WouldBlock spin.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    // Bound writes so a client that stops reading mid-stream errors this
    // connection out instead of blocking its writer thread forever on a
    // full send buffer.
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let socket = stream.try_clone()?;
    let mux = MuxWriter::new();
    let writer = {
        let mux = Arc::clone(&mux);
        thread::spawn(move || writer_loop(socket, &mux))
    };

    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    let mut overlong = false;
    let result = loop {
        // Bytes, not `read_line`: a timeout mid-character must keep the
        // partial read, and UTF-8 is checked once the line is whole.
        let room = (MAX_REQUEST_LINE - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => break Ok(()), // EOF: client hung up.
            Ok(_) if line.len() == MAX_REQUEST_LINE && !line.ends_with(b"\n") => {
                overlong = true;
                let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                break mux
                    .open_stream()
                    .push(encode_frame(None, Response::Error { message }));
            }
            Ok(_) => {
                let taken = std::mem::take(&mut line);
                let trimmed = taken.trim_ascii();
                if !trimmed.is_empty() {
                    if let Err(e) = serve_line(trimmed, service, shutdown, pool, &mux) {
                        break Err(e);
                    }
                    if shutdown.load(Ordering::Relaxed) {
                        break Ok(());
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll; `line` keeps any partial read. Stop waiting for
                // more input once shutdown is raised.
                if shutdown.load(Ordering::Relaxed) {
                    break Ok(());
                }
            }
            Err(e) => break Err(e),
        }
    };
    // In-flight pool streams keep the writer alive until they finish;
    // joining it here keeps the connection's thread accounting exact.
    mux.reader_done();
    let _ = writer.join();
    if overlong {
        // Close after the `Error` line without a reset: send FIN, then
        // discard what the client already sent (bounded by the read
        // timeout) so no unread bytes remain when the socket closes.
        let stream = reader.into_inner();
        let _ = stream.shutdown(Shutdown::Write);
        let _ = io::copy(&mut stream.take(MAX_REQUEST_LINE as u64), &mut io::sink());
    }
    result
}

/// Routes one request line: inline on this thread, or onto the pool with
/// its own response stream. `Err` means the connection is dead (mux
/// closed under us) — request-level failures become `Error` frames.
fn serve_line(
    line: &[u8],
    service: &Arc<EvalService>,
    shutdown: &AtomicBool,
    pool: &RequestPool,
    mux: &Arc<MuxWriter>,
) -> io::Result<()> {
    let decoded = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .and_then(|text| protocol::decode_request(text).map_err(|e| e.to_string()));
    let handle = mux.open_stream();
    let (id, request) = match decoded {
        Ok(decoded) => decoded,
        Err(e) => {
            let message = format!("invalid request: {e}");
            return handle.push(encode_frame(None, Response::Error { message }));
        }
    };
    // Cheap requests run inline on the reader thread, tagged or bare:
    // dispatching them behind queued sweeps would cost responsiveness for
    // no concurrency win (and the inline `Cancel` is what stops sweeps
    // streaming ahead of it on the same connection).
    if runs_inline(&request) {
        let is_shutdown = matches!(request, Request::Shutdown);
        // The reply is queued whole. Pushed line by line, the writer could
        // wake between lines and send the first alone; the rest (`Submit`'s
        // `Submitted` after its `Progress`) would then wait under Nagle's
        // algorithm for the client's delayed ACK, or not, by thread timing.
        let mut frames = Vec::new();
        let mut sink = |response: Response| {
            frames.push(encode_frame(id.as_deref(), response));
            Ok(())
        };
        service.handle(None, request, &mut sink)?;
        handle.push_all(frames)?;
        if is_shutdown {
            shutdown.store(true, Ordering::Relaxed);
        }
        return Ok(());
    }
    // Heavy request: a tagged one reserves its id *before* entering the
    // pool queue, so a `Cancel` racing the queue already finds the token —
    // the job then starts pre-cancelled and terminates with `Cancelled`
    // without simulating.
    let reservation = match id.as_deref().map(|id| service.reserve(id)).transpose() {
        Ok(reservation) => reservation,
        Err(message) => {
            return handle.push(encode_frame(id.as_deref(), Response::Error { message }))
        }
    };
    let bare = reservation.is_none();
    let service = Arc::clone(service);
    let (done_tx, done_rx) = mpsc::channel();
    let job: Job = Box::new(move || {
        let id = reservation.as_ref().map(Reservation::id);
        let mut sink = |response: Response| handle.push(encode_frame(id, response));
        let _ = done_tx.send(service.handle(reservation.as_ref(), request, &mut sink));
    });
    if let Err(job) = pool.submit(job) {
        // Shutdown raced the dispatch: serve the request inline rather
        // than dropping it on the floor.
        job();
    }
    if bare {
        // The v1 lockstep contract: no id to demultiplex response lines
        // by, so the next line waits for this one's stream to end. The
        // pool runs queued jobs to completion even during shutdown, so
        // the result always arrives; a disconnect means the job panicked
        // (logged by its worker).
        return done_rx.recv().unwrap_or(Ok(()));
    }
    // A tagged stream's sink errors mean its client is gone; the stream
    // closes with the job and there is nobody to report to.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(queues: &[Vec<String>]) -> MuxState {
        MuxState {
            streams: queues
                .iter()
                .enumerate()
                .map(|(i, frames)| MuxStream {
                    token: i as u64,
                    queue: frames.iter().cloned().collect(),
                    open: true,
                })
                .collect(),
            next_slot: 0,
            next_token: queues.len() as u64,
            reader_done: false,
            dead: false,
        }
    }

    fn frames(prefix: &str, count: usize) -> Vec<String> {
        (0..count).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn fill_batch_interleaves_three_streams_one_frame_per_turn() {
        let mut state = state_with(&[frames("a", 2), frames("b", 2), frames("c", 2)]);
        let mut batch = String::new();
        fill_batch(&mut state, &mut batch);
        assert_eq!(batch, "a0\nb0\nc0\na1\nb1\nc1\n");
        assert_eq!(state.next_slot, 0, "the cursor resumes after the last slot");
    }

    /// Regression: iterating the round-robin cycle from the *live* cursor
    /// (which advances as frames are taken) instead of a per-cycle
    /// snapshot degenerates three always-ready streams into the serve
    /// pattern 0,2,2,… — stream 1 is starved for as long as the other two
    /// keep their queues non-empty. With frames large enough that a batch
    /// fills mid-cycle (the steady state under load) and queues refilled
    /// between batches (producers waking on freed space), every stream
    /// must drain at the same rate.
    #[test]
    fn fill_batch_starves_no_stream_across_batches() {
        // Each frame is ~30 KiB, so one 64 KiB batch holds three frames.
        let frame = |slot: usize| format!("s{slot}{}", "x".repeat(30_000));
        let mut state = state_with(&[Vec::new(), Vec::new(), Vec::new()]);
        let mut served = [0usize; 3];
        for _batch in 0..32 {
            for stream in &mut state.streams {
                let slot = stream.token as usize;
                while stream.queue.len() < 2 {
                    stream.queue.push_back(frame(slot));
                }
            }
            let mut batch = String::new();
            fill_batch(&mut state, &mut batch);
            for line in batch.lines() {
                let slot = usize::from(line.as_bytes()[1] - b'0');
                served[slot] += 1;
            }
        }
        assert!(
            served[0] == served[1] && served[1] == served[2],
            "unfair round-robin: {served:?}"
        );
    }

    /// A panicking job is contained by its worker: the pool keeps serving
    /// subsequent jobs instead of silently shrinking.
    #[test]
    fn pool_worker_survives_a_panicking_job() {
        let pool = RequestPool::new(1);
        assert!(pool.submit(Box::new(|| panic!("job panic"))).is_ok());
        let (tx, rx) = mpsc::channel();
        assert!(pool
            .submit(Box::new(move || tx.send(()).expect("receiver alive")))
            .is_ok());
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the single worker must survive the panic and run the next job");
        pool.close();
    }
}
