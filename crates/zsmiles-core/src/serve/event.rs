//! The pooled executor: a readiness-driven event loop over `poll(2)`
//! plus a small fixed worker pool.
//!
//! One thread owns every socket. It sleeps in `poll(2)` (no tick), and
//! on each readiness event drains *every* complete frame a connection
//! has buffered, assigns each decoded request a per-connection sequence
//! number, and hands the batch to the workers — contiguous `GET` runs as
//! one batched `get_many` job against a single generation snapshot.
//! Workers push encoded response frames onto a completion queue and kick
//! the loop through a wakeup pipe; the loop flushes completions strictly
//! in sequence order, so a pipelining client always gets responses in
//! submission order no matter how the pool interleaved the work.
//!
//! Per-connection discipline mirrors the blocking `read_frame` path,
//! re-expressed as a state machine:
//!
//! * a bounded read buffer reassembles frames incrementally; a frame
//!   stalled mid-body past `STALL_PATIENCE` (slowloris) or with a
//!   zero/oversized length prefix gets a typed `BadFrame` error and the
//!   connection closes *after* earlier responses flush;
//! * a malformed frame *body* (the boundary held) gets an error response
//!   in its sequence slot and the connection lives on;
//! * a bounded write buffer applies backpressure — past
//!   `WBUF_LIMIT`, or with `ServeOptions::pipeline_depth` requests in
//!   flight, the loop simply stops reading that socket until the client
//!   drains responses.
//!
//! Over-cap connections are admitted just far enough to present one
//! frame: a `health` probe is answered, anything else (or silence past
//! the over-cap deadline) gets the typed `Busy`.
//!
//! When the pool is a single worker (one-CPU boxes), handing a cheap
//! deck read across threads buys no overlap — just a futex round trip
//! and two context switches per request — so the loop answers bounded
//! reads and counter snapshots inline and keeps only the slow ops
//! (`TOP_HITS` sweeps, `FLIP`'s deck open) on the pool.

use crate::error::ZsmilesError;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

use super::server::Shared;

/// How long a connection may sit mid-frame without delivering a byte
/// before it is declared stalled — the event-loop equivalent of
/// `read_frame`'s 100-tick patience window.
#[cfg(all(unix, target_pointer_width = "64"))]
const STALL_PATIENCE: std::time::Duration = std::time::Duration::from_secs(10);

/// Buffered-response bytes per connection past which the loop stops
/// reading that socket (backpressure, not an error).
#[cfg(all(unix, target_pointer_width = "64"))]
const WBUF_LIMIT: usize = 8 << 20;

/// Most over-cap connections held open for their one-frame grace at a
/// time; beyond this, over-cap connects get an immediate best-effort
/// `Busy`.
#[cfg(all(unix, target_pointer_width = "64"))]
const OVERCAP_LIMIT: usize = 64;

/// Most jobs a worker claims per queue lock. Under fan-in the loop
/// enqueues one job per ready connection in a single push, so claiming
/// a chunk amortizes the mutex/condvar round trip and the completion
/// wake over many requests instead of paying them per request, while
/// still splitting a full queue across the pool.
#[cfg(all(unix, target_pointer_width = "64"))]
const WORKER_BATCH: usize = 16;

/// Start the pooled executor. On platforms without the `poll(2)`
/// binding this transparently falls back to the threaded executor.
#[cfg(not(all(unix, target_pointer_width = "64")))]
pub(super) fn start(
    listener: TcpListener,
    shared: Arc<Shared>,
    _workers: usize,
) -> Result<JoinHandle<()>, ZsmilesError> {
    super::server::start_threaded(listener, shared)
}

/// Start the pooled executor: spawn the worker pool and the event-loop
/// thread, and register the wakeup-pipe waker so `begin_shutdown` can
/// kick the loop out of `poll(2)`.
#[cfg(all(unix, target_pointer_width = "64"))]
pub(super) fn start(
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
) -> Result<JoinHandle<()>, ZsmilesError> {
    imp::start(listener, shared, workers)
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod imp {
    use super::super::protocol::{ErrorCode, Request, Response};
    use super::super::server::{
        busy_response, default_workers, Shared, DRAIN_DEADLINE, OVERCAP_DEADLINE,
    };
    use super::{ZsmilesError, OVERCAP_LIMIT, STALL_PATIENCE, WBUF_LIMIT, WORKER_BATCH};
    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::thread::{self, JoinHandle};
    use std::time::{Duration, Instant};

    /// Raw `poll(2)` binding, declared directly (the workspace is
    /// hermetic — no `libc` crate). The `pollfd` layout and event bits
    /// are identical on every 64-bit unix this crate targets; only the
    /// `nfds_t` width differs (`unsigned long` on Linux, `unsigned int`
    /// on the BSDs and macOS).
    mod poll_sys {
        use std::ffi::c_int;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: i16,
            pub revents: i16,
        }

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;
        pub const POLLNVAL: i16 = 0x020;

        #[cfg(target_os = "linux")]
        pub type NFds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        pub type NFds = std::ffi::c_uint;

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
        }
    }

    use poll_sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

    /// One unit of work for the pool.
    enum Job {
        /// A single decoded request.
        One { conn: u64, seq: u64, req: Request },
        /// A contiguous run of `GET`s from one connection, answered as a
        /// single `get_many` against one generation snapshot.
        GetRun {
            conn: u64,
            first_seq: u64,
            lines: Vec<u64>,
        },
    }

    impl Job {
        /// Sweeps and flips: jobs that hold a worker for long. Everything
        /// else is a bounded read or a counter snapshot.
        fn is_slow(&self) -> bool {
            matches!(self, Job::One { req, .. } if !inline_eligible(req))
        }
    }

    /// One finished response frame, ready to flush in sequence order.
    struct Done {
        conn: u64,
        seq: u64,
        frame: Vec<u8>,
    }

    struct JobQueue {
        jobs: Mutex<(VecDeque<Job>, bool)>,
        ready: Condvar,
    }

    impl JobQueue {
        fn push(&self, batch: Vec<Job>) {
            let n = batch.len();
            let mut q = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            q.0.extend(batch);
            drop(q);
            if n == 1 {
                self.ready.notify_one();
            } else {
                self.ready.notify_all();
            }
        }

        fn close(&self) {
            self.jobs.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
            self.ready.notify_all();
        }

        /// Claim up to `max` queued jobs in one lock. Blocks while the
        /// queue is empty and open; `None` once closed and drained.
        fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
            let mut q = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !q.0.is_empty() {
                    let n = q.0.len().min(max);
                    return Some(q.0.drain(..n).collect());
                }
                if q.1 {
                    return None;
                }
                q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// The workers' side of the completion path: push finished frames,
    /// then kick the event loop through the pipe. The armed flag keeps
    /// the pipe at most one byte deep — the loop drains the byte, resets
    /// the flag, then drains the queue, so a push can never be missed.
    struct Completions {
        done: Mutex<Vec<Done>>,
        armed: AtomicBool,
        pipe: PipeWriter,
    }

    impl Completions {
        fn finish(&self, batch: Vec<Done>) {
            self.done
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(batch);
            self.wake();
        }

        fn wake(&self) {
            if !self.armed.swap(true, Ordering::SeqCst) {
                let _ = (&self.pipe).write(&[1u8]);
            }
        }

        fn drain(&self, pipe_readable: bool, reader: &PipeReader) -> Vec<Done> {
            if pipe_readable {
                let mut sink = [0u8; 16];
                let _ = (&*reader).read(&mut sink);
            }
            self.armed.store(false, Ordering::SeqCst);
            std::mem::take(&mut *self.done.lock().unwrap_or_else(PoisonError::into_inner))
        }
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        /// Partial/undecoded request bytes, reassembled incrementally.
        rbuf: Vec<u8>,
        /// Encoded responses not yet accepted by the socket.
        wbuf: Vec<u8>,
        /// Bytes of `wbuf` already written.
        wpos: usize,
        /// Sequence number the next decoded request gets.
        next_seq: u64,
        /// Sequence number of the next response to flush.
        next_flush: u64,
        /// Completed responses that arrived out of order.
        done: BTreeMap<u64, Vec<u8>>,
        /// The peer half-closed (or a fatal frame error stopped reads).
        read_closed: bool,
        /// An over-cap connection: one frame's grace, then close.
        overcap: bool,
        /// Slowloris / over-cap deadline, when one is running.
        deadline: Option<Instant>,
    }

    impl Conn {
        fn new(stream: TcpStream, overcap: bool) -> Conn {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_nonblocking(true);
            Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                next_seq: 0,
                next_flush: 0,
                done: BTreeMap::new(),
                read_closed: false,
                overcap,
                deadline: if overcap {
                    Some(Instant::now() + OVERCAP_DEADLINE)
                } else {
                    None
                },
            }
        }

        fn inflight(&self) -> u64 {
            self.next_seq - self.next_flush
        }

        fn wants_read(&self, depth: u64, rbuf_limit: usize) -> bool {
            !self.read_closed
                && self.inflight() < depth
                && self.rbuf.len() < rbuf_limit
                && self.wbuf.len() - self.wpos < WBUF_LIMIT
        }

        fn wants_write(&self) -> bool {
            self.wpos < self.wbuf.len()
        }

        /// Everything read, answered and flushed — time to close?
        fn finished(&self) -> bool {
            self.read_closed && self.inflight() == 0 && !self.wants_write()
        }

        /// Complete `seq` locally (decode errors, `bye`, over-cap
        /// answers) without a worker round trip.
        fn complete_local(&mut self, seq: u64, resp: &Response) {
            self.done.insert(seq, resp.encode());
        }

        /// Move in-order completions into the write buffer.
        fn flush_ready(&mut self) {
            while let Some(frame) = self.done.remove(&self.next_flush) {
                self.wbuf.extend_from_slice(&frame);
                self.next_flush += 1;
            }
            if self.wpos > 0 && self.wpos == self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
            }
        }

        /// Push buffered responses into the socket until it would block.
        /// Returns `false` on a fatal socket error.
        fn try_write(&mut self) -> bool {
            while self.wpos < self.wbuf.len() {
                match self.stream.write(&self.wbuf[self.wpos..]) {
                    Ok(0) => return false,
                    Ok(n) => self.wpos += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => return false,
                }
            }
            if self.wpos == self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
            }
            true
        }

        /// Pull what the socket has (up to the buffer bound) into
        /// `rbuf`. One read per readiness event: `poll(2)` is
        /// level-triggered, so bytes beyond the first chunk simply
        /// re-report readable — draining to `WouldBlock` here would pay
        /// an extra empty `read(2)` on every round trip. A short read
        /// (the common case) is known complete without a second call.
        /// Returns `false` on a fatal socket error.
        fn try_read(&mut self, rbuf_limit: usize) -> bool {
            let mut chunk = [0u8; 64 * 1024];
            while self.rbuf.len() < rbuf_limit {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => return false,
                }
            }
            true
        }
    }

    fn stall_response(reason: String) -> Response {
        Response::Error {
            code: ErrorCode::BadFrame,
            message: reason,
        }
    }

    pub(in crate::serve) fn start(
        listener: TcpListener,
        shared: Arc<Shared>,
        workers: usize,
    ) -> Result<JoinHandle<()>, ZsmilesError> {
        let (pipe_r, pipe_w) = std::io::pipe()?;
        listener.set_nonblocking(true)?;
        let completions = Arc::new(Completions {
            done: Mutex::new(Vec::new()),
            armed: AtomicBool::new(false),
            pipe: pipe_w,
        });
        let waker = Arc::clone(&completions);
        shared.set_waker(Box::new(move || waker.wake()));
        let queue = Arc::new(JobQueue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let n_workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        let mut pool = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            let completions = Arc::clone(&completions);
            pool.push(
                thread::Builder::new()
                    .name(format!("zsmiles-serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &shared, &completions))
                    .map_err(|e| ZsmilesError::Io(e.to_string()))?,
            );
        }
        thread::Builder::new()
            .name("zsmiles-serve-event".into())
            .spawn(move || {
                event_loop(
                    listener,
                    &shared,
                    &queue,
                    &completions,
                    &pipe_r,
                    n_workers == 1,
                );
                queue.close();
                for h in pool {
                    let _ = h.join();
                }
            })
            .map_err(|e| ZsmilesError::Io(e.to_string()))
    }

    /// Answer one job, appending its response frames to `done`.
    fn run_job(shared: &Shared, job: Job, done: &mut Vec<Done>) {
        match job {
            Job::One { conn, seq, req } => {
                let frame = shared.answer(req).encode();
                done.push(Done { conn, seq, frame });
            }
            Job::GetRun {
                conn,
                first_seq,
                lines,
            } => {
                let gen = shared.snapshot();
                done.extend(
                    shared
                        .answer_get_run(&gen, &lines)
                        .into_iter()
                        .enumerate()
                        .map(|(i, resp)| Done {
                            conn,
                            seq: first_seq + i as u64,
                            frame: resp.encode(),
                        }),
                );
            }
        }
    }

    /// Run claimed batches. The cheap jobs of a batch run first and are
    /// published before its slow job starts, so a `GET` claimed together
    /// with a sweep or a flip is not held until that job ends. A read
    /// pipelined behind a flip may therefore see the old generation, as
    /// on the inline path; replies still go out in submission order.
    fn worker_loop(queue: &JobQueue, shared: &Shared, completions: &Completions) {
        while let Some(mut batch) = queue.pop_batch(WORKER_BATCH) {
            batch.sort_by_key(Job::is_slow);
            let mut done: Vec<Done> = Vec::with_capacity(batch.len());
            for job in batch {
                if job.is_slow() && !done.is_empty() {
                    completions.finish(std::mem::take(&mut done));
                }
                run_job(shared, job, &mut done);
            }
            completions.finish(done);
        }
    }

    /// Decode every complete frame sitting in `conn.rbuf` (respecting
    /// the pipeline-depth and buffer bounds), queueing worker jobs and
    /// local completions. Returns `true` if the shutdown flag was raised
    /// by a `bye` frame.
    fn parse_frames(conn_id: u64, conn: &mut Conn, shared: &Shared, jobs: &mut Vec<Job>) -> bool {
        let depth = if conn.overcap {
            1
        } else {
            shared.pipeline_depth as u64
        };
        let mut consumed = 0;
        let mut run: Vec<u64> = Vec::new();
        let mut run_first_seq = 0;
        let mut saw_shutdown = false;
        // Did parsing stop on a frame the peer has not finished sending?
        // (As opposed to stopping on the depth cap with complete frames
        // still buffered.)
        let mut incomplete = false;
        loop {
            if conn.inflight() + run.len() as u64 >= depth
                || conn.wbuf.len() - conn.wpos >= WBUF_LIMIT
            {
                break;
            }
            let avail = &conn.rbuf[consumed..];
            if avail.is_empty() {
                break;
            }
            if avail.len() < 4 {
                incomplete = true;
                break;
            }
            let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
            if len == 0 || len > shared.max_request_frame {
                // Frame boundary lost: typed error in this request's
                // slot, then no more reads — earlier responses still
                // flush first.
                let reason = if len == 0 {
                    "zero-length frame (no opcode)".to_string()
                } else {
                    format!(
                        "oversized frame: {len} bytes declared, cap is {}",
                        shared.max_request_frame
                    )
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.complete_local(seq, &stall_response(reason));
                conn.read_closed = true;
                conn.rbuf.clear();
                consumed = 0;
                break;
            }
            if avail.len() < 4 + len {
                incomplete = true;
                break; // partial frame — wait for more bytes
            }
            let body = &avail[4..4 + len];
            let decoded = Request::decode(body);
            consumed += 4 + len;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match decoded {
                Err(e) => {
                    // Boundary held; only the body was bad. Error in
                    // this slot, connection survives. The pending GET
                    // run ends here — its seqs must stay contiguous.
                    flush_run(conn_id, &mut run, run_first_seq, jobs);
                    conn.complete_local(seq, &stall_response(e.to_string()));
                }
                Ok(req) if conn.overcap => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    let resp = match req {
                        Request::Health => Response::Health(shared.health_snapshot()),
                        _ => busy_response(shared.max_connections),
                    };
                    conn.complete_local(seq, &resp);
                    conn.read_closed = true;
                    conn.deadline = None;
                    break;
                }
                Ok(Request::Shutdown) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    flush_run(conn_id, &mut run, run_first_seq, jobs);
                    conn.complete_local(seq, &Response::Bye);
                    conn.read_closed = true;
                    saw_shutdown = true;
                    break;
                }
                Ok(Request::Get { line }) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    if run.is_empty() {
                        run_first_seq = seq;
                    }
                    run.push(line);
                }
                Ok(req) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    flush_run(conn_id, &mut run, run_first_seq, jobs);
                    jobs.push(Job::One {
                        conn: conn_id,
                        seq,
                        req,
                    });
                }
            }
        }
        flush_run(conn_id, &mut run, run_first_seq, jobs);
        conn.rbuf.drain(..consumed);
        if incomplete && conn.read_closed {
            // The peer half-closed inside a frame: same typed error the
            // blocking read path raises, then no more slots.
            let avail = conn.rbuf.len();
            let what = if avail < 4 {
                format!("length prefix ({avail} of 4 bytes)")
            } else {
                let len = u32::from_le_bytes(conn.rbuf[..4].try_into().unwrap()) as usize;
                format!("frame body ({} of {len} bytes)", avail - 4)
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.complete_local(
                seq,
                &stall_response(format!("truncated frame: peer closed inside {what}")),
            );
            conn.rbuf.clear();
        }
        // Slowloris bookkeeping: a partial frame arms the stall
        // deadline; progress (or an empty buffer) resets it.
        if !conn.overcap {
            conn.deadline = if conn.rbuf.is_empty() || conn.read_closed {
                None
            } else {
                Some(Instant::now() + STALL_PATIENCE)
            };
        }
        conn.flush_ready();
        saw_shutdown
    }

    /// Emit a pending `GET` run: one request stays a single job, two or
    /// more become a batched `get_many` against one snapshot.
    fn flush_run(conn_id: u64, run: &mut Vec<u64>, first_seq: u64, jobs: &mut Vec<Job>) {
        match run.len() {
            0 => {}
            1 => jobs.push(Job::One {
                conn: conn_id,
                seq: first_seq,
                req: Request::Get { line: run[0] },
            }),
            _ => jobs.push(Job::GetRun {
                conn: conn_id,
                first_seq,
                lines: std::mem::take(run),
            }),
        }
        run.clear();
    }

    fn event_loop(
        listener: TcpListener,
        shared: &Shared,
        queue: &JobQueue,
        completions: &Completions,
        pipe_r: &PipeReader,
        inline_cheap: bool,
    ) {
        let rbuf_limit = shared.max_request_frame + 4 + 64 * 1024;
        let depth = shared.pipeline_depth as u64;
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut fd_conns: Vec<u64> = Vec::new();
        let mut rotation: usize = 0;
        let mut drain_deadline: Option<Instant> = None;
        let mut poll_failures = 0u32;
        loop {
            let draining = shared.shutdown.load(Ordering::SeqCst);
            if draining && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
                // No new requests during drain: in-flight work finishes
                // and flushes, unread pipeline tails are abandoned.
                for conn in conns.values_mut() {
                    conn.read_closed = true;
                    conn.rbuf.clear();
                    conn.deadline = None;
                }
            }
            conns.retain(|_, conn| {
                let keep = !conn.finished();
                if !keep && !conn.overcap {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                }
                keep
            });
            if draining {
                let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
                if conns.is_empty() || expired {
                    for (_, conn) in conns.drain() {
                        if !conn.overcap {
                            shared.active.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    return;
                }
            }

            // Build the poll set: listener, wakeup pipe, then every
            // connection with its current interest.
            fds.clear();
            fd_conns.clear();
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: if draining { 0 } else { POLLIN },
                revents: 0,
            });
            fds.push(PollFd {
                fd: pipe_r.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            let mut nearest: Option<Instant> = drain_deadline;
            for (&id, conn) in &conns {
                let mut events = 0i16;
                if conn.wants_read(depth, rbuf_limit) {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                fd_conns.push(id);
                if let Some(d) = conn.deadline {
                    nearest = Some(nearest.map_or(d, |n| n.min(d)));
                }
            }
            let timeout_ms: i32 = match nearest {
                None => -1,
                Some(d) => {
                    d.saturating_duration_since(Instant::now())
                        .as_millis()
                        .min(i32::MAX as u128) as i32
                        + 1
                }
            };
            let rc = unsafe {
                poll_sys::poll(fds.as_mut_ptr(), fds.len() as poll_sys::NFds, timeout_ms)
            };
            if rc < 0 {
                // EINTR and friends: back off briefly; a persistently
                // failing poll (EBADF would be a bug) must not spin.
                poll_failures += 1;
                if poll_failures > 1000 {
                    return;
                }
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            poll_failures = 0;
            let now = Instant::now();
            let mut jobs: Vec<Job> = Vec::new();
            let mut saw_shutdown = false;

            // 1. Completions: drain the pipe and the queue, flush
            //    in-order responses, and re-parse buffers that were
            //    blocked on the depth cap.
            let pipe_ready = fds[1].revents & (POLLIN | POLLERR | POLLHUP) != 0;
            let finished = completions.drain(pipe_ready, pipe_r);
            if !finished.is_empty() {
                saw_shutdown |= apply_finished(&mut conns, finished, shared, &mut jobs);
            }

            // 2. Socket readiness per connection. The scan start
            //    rotates each round: a fixed order would service the
            //    same connections last every time, and under fan-in
            //    that systematic bias is exactly the p99.
            rotation = rotation.wrapping_add(1);
            for k in 0..fd_conns.len() {
                let i = (k + rotation) % fd_conns.len();
                let id = fd_conns[i];
                let revents = fds[i + 2].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                if revents & (POLLERR | POLLNVAL) != 0 {
                    conn.read_closed = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    conn.next_flush = conn.next_seq;
                    continue;
                }
                let mut alive = true;
                if revents & (POLLIN | POLLHUP) != 0 && !conn.read_closed {
                    alive = conn.try_read(rbuf_limit);
                    if alive {
                        saw_shutdown |= parse_frames(id, conn, shared, &mut jobs);
                    }
                }
                if alive && (revents & POLLOUT != 0 || conn.wants_write()) {
                    alive = conn.try_write();
                }
                if !alive {
                    conn.read_closed = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    conn.next_flush = conn.next_seq;
                }
            }

            // 3. Deadlines: stalled mid-frame readers and silent
            //    over-cap connections.
            for (&id, conn) in conns.iter_mut() {
                if conn.deadline.is_none_or(|d| d > now) {
                    continue;
                }
                conn.deadline = None;
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let resp = if conn.overcap {
                    busy_response(shared.max_connections)
                } else {
                    stall_response(format!(
                        "stalled mid-frame: {} buffered bytes, no progress for {:?}",
                        conn.rbuf.len(),
                        STALL_PATIENCE
                    ))
                };
                conn.complete_local(seq, &resp);
                conn.read_closed = true;
                conn.rbuf.clear();
                conn.flush_ready();
                if !conn.try_write() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    conn.next_flush = conn.next_seq;
                }
                let _ = id;
            }

            // 4. New connections.
            if fds[0].revents & POLLIN != 0 && !draining {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let active = shared.active.load(Ordering::SeqCst) as usize;
                            let overcap = active >= shared.max_connections;
                            if overcap
                                && conns.values().filter(|c| c.overcap).count() >= OVERCAP_LIMIT
                            {
                                // Past even the grace budget: best-effort
                                // immediate busy, then close.
                                let mut s = stream;
                                let _ = s.set_nonblocking(true);
                                let _ = s.write(&busy_response(shared.max_connections).encode());
                                continue;
                            }
                            if !overcap {
                                shared.active.fetch_add(1, Ordering::SeqCst);
                            }
                            let id = next_conn_id;
                            next_conn_id += 1;
                            conns.insert(id, Conn::new(stream, overcap));
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            }

            // 5. With a single worker the pool cannot overlap cheap
            //    deck reads with anything — handing them off only buys a
            //    futex round trip and two context switches per request —
            //    so answer them inline on the loop thread and keep the
            //    pool for ops that are slow (`TOP_HITS` sweeps) or do
            //    their own I/O (`FLIP`). Applying the responses can
            //    unblock depth-capped frames already sitting in read
            //    buffers, so loop until no inline-eligible work remains
            //    (both buffers are bounded, so this terminates).
            if inline_cheap {
                loop {
                    let mut pooled: Vec<Job> = Vec::new();
                    let mut done: Vec<Done> = Vec::new();
                    for job in jobs.drain(..) {
                        if job.is_slow() {
                            pooled.push(job);
                        } else {
                            run_job(shared, job, &mut done);
                        }
                    }
                    jobs = pooled;
                    if done.is_empty() {
                        break;
                    }
                    saw_shutdown |= apply_finished(&mut conns, done, shared, &mut jobs);
                }
            }
            if !jobs.is_empty() {
                queue.push(jobs);
            }
            if saw_shutdown {
                shared.begin_shutdown();
            }
        }
    }

    /// Requests cheap enough to answer on the event-loop thread when
    /// the pool is a single worker: bounded deck reads and counter
    /// snapshots. `FLIP` (opens a new deck) and `TOP_HITS` (scores the
    /// whole deck) stay on the pool so the loop never blocks on them.
    fn inline_eligible(req: &Request) -> bool {
        matches!(
            req,
            Request::Get { .. }
                | Request::GetRange { .. }
                | Request::GetMany { .. }
                | Request::Stats
                | Request::Health
        )
    }

    /// Flush a batch of finished response frames: slot each into its
    /// connection's sequence map, move in-order completions to the
    /// write buffers, push them into the sockets, and re-parse read
    /// buffers that the freed in-flight slots may have unblocked
    /// (queueing any newly decoded requests onto `jobs`).
    fn apply_finished(
        conns: &mut HashMap<u64, Conn>,
        finished: Vec<Done>,
        shared: &Shared,
        jobs: &mut Vec<Job>,
    ) -> bool {
        let mut saw_shutdown = false;
        let mut touched: Vec<u64> = Vec::with_capacity(finished.len());
        for done in finished {
            if let Some(conn) = conns.get_mut(&done.conn) {
                conn.done.insert(done.seq, done.frame);
                touched.push(done.conn);
            }
        }
        touched.dedup();
        for id in touched {
            if let Some(conn) = conns.get_mut(&id) {
                conn.flush_ready();
                if !conn.try_write() {
                    conn.read_closed = true;
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    conn.next_flush = conn.next_seq;
                    continue;
                }
                // Freed in-flight slots may unblock frames that are
                // already sitting in the read buffer.
                if !conn.rbuf.is_empty() {
                    saw_shutdown |= parse_frames(id, conn, shared, jobs);
                    if !conn.try_write() {
                        conn.read_closed = true;
                        conn.wbuf.clear();
                        conn.wpos = 0;
                        conn.next_flush = conn.next_seq;
                    }
                }
            }
        }
        saw_shutdown
    }
}
