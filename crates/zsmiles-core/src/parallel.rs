//! Order-preserving parallel compression and decompression on a
//! persistent worker pool.
//!
//! The paper accelerates ZSMILES with CUDA; on the CPU the same
//! embarrassing parallelism is available across lines. The input buffer
//! is split at line boundaries into byte-balanced spans (balanced by
//! bytes, not lines, so a span of long EXSCALATE salts does not
//! straggle); workers drain the span queue, each running the ordinary
//! serial engine with one reused encoder and one reused output buffer,
//! and the parts are concatenated in span order — so the result is
//! byte-identical to the serial engine's.
//!
//! Two costs of the old design are gone: every call used to **spawn one
//! OS thread per span** (micro-batched callers — `unpack_to` decodes a
//! multi-GB archive as thousands of chunk-sized calls — paid the spawn
//! tax per chunk), and every span allocated its own output `Vec`. Spans
//! now go through [`WorkerPool`]: OS threads are created once per
//! process ([`WorkerPool::global`]) and jobs are dispatched over
//! channels; per-call work is channel sends plus one latch wait.
//!
//! The span machinery is written once, over [`AnyDictionary`]
//! ([`compress_parallel_dyn`] / [`decompress_parallel_dyn`], which
//! [`AnyDictionary::compress_parallel`] and
//! [`AnyDictionary::decompress_parallel`] call): each job mints one
//! encoder and matches on the flavour once per span it claims.
//!
//! Worker minting is cheap across *calls* too: an encoder cannot outlive
//! the dictionary borrow it is minted from, so what persists on each pool
//! thread is the encoder's expensive state — the DP scratch buffers
//! (`sp::SpScratch`, shared by both code widths) are recycled through a
//! thread-local stash when a worker's encoder drops. Repeated batch
//! submissions (the [`crate::writer::ArchiveWriter`] steady state) re-mint
//! into warmed capacity at the cost of a thread-local pop.

use crate::compress::CompressStats;
use crate::decompress::DecompressStats;
use crate::engine::AnyDictionary;
use crate::error::ZsmilesError;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// All jobs of one [`WorkerPool::scoped_run`] call: counted up as they
/// are enqueued and down as they finish (or unwind), so the caller can
/// block until its borrows are free, and holding the first panic payload
/// so it can be re-raised verbatim.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            remaining: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    fn count_up(&self) {
        *self.remaining.lock().expect("latch lock poisoned") += 1;
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch lock poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch lock poisoned");
        while *left > 0 {
            left = self.done.wait(left).expect("latch lock poisoned");
        }
    }
}

/// Decrements the latch even if the job unwinds, so a panicking job can
/// never leave `scoped_run` blocked forever.
struct CountDownGuard(Arc<Latch>);

impl Drop for CountDownGuard {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// What the persistent workers drain: one shared injector queue, so a
/// free worker always picks up the oldest pending job regardless of which
/// call enqueued it (no per-worker mailboxes to head-of-line-block on).
struct Injector {
    queue: Mutex<(std::collections::VecDeque<PoolJob>, bool)>,
    ready: Condvar,
}

impl Injector {
    fn push(&self, job: PoolJob) {
        let mut q = self.queue.lock().expect("injector lock poisoned");
        q.0.push_back(job);
        drop(q);
        self.ready.notify_one();
    }

    /// Blocks until a job is available; `None` once the pool is closed
    /// and the queue drained.
    fn pop(&self) -> Option<PoolJob> {
        let mut q = self.queue.lock().expect("injector lock poisoned");
        loop {
            if let Some(job) = q.0.pop_front() {
                return Some(job);
            }
            if q.1 {
                return None;
            }
            q = self.ready.wait(q).expect("injector lock poisoned");
        }
    }

    fn close(&self) {
        self.queue.lock().expect("injector lock poisoned").1 = true;
        self.ready.notify_all();
    }
}

/// A persistent pool of worker threads executing borrowed jobs.
///
/// Threads are created once and live for the pool's lifetime; each call
/// to [`WorkerPool::scoped_run`] pushes its jobs onto one shared injector
/// queue and blocks until every one of them has run — which is what makes
/// it sound for the jobs to borrow from the caller's stack (the pool
/// never outlives a borrow it is still using). Any free worker picks up
/// any pending job, so concurrent callers share the pool fairly instead
/// of queueing behind each other's long jobs. The process-wide
/// [`WorkerPool::global`] pool is what the `*_parallel_dyn` entry points
/// use, so steady-state parallel codec calls spawn no threads at all.
///
/// Jobs must not call back into the same pool (a job waiting on jobs
/// queued behind itself can deadlock); the codec paths never nest.
pub struct WorkerPool {
    injector: Arc<Injector>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool with one worker per available CPU, created on first use and
    /// shared by the whole process.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            WorkerPool::with_threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4),
            )
        })
    }

    /// A dedicated pool with exactly `threads` workers (≥ 1).
    pub fn with_threads(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new((std::collections::VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("zsmiles-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = injector.pop() {
                            job();
                        }
                    })
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkerPool { injector, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `jobs` on the pool and block until all of them have finished.
    ///
    /// Jobs may borrow from the caller's stack: the wait is what bounds
    /// their lifetime. If any job panics, the first payload is re-raised
    /// here after all jobs have drained (matching the join-and-propagate
    /// behaviour of scoped threads).
    pub fn scoped_run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new());
        // Armed before the first push: even if this frame unwinds
        // mid-dispatch (poisoned injector lock, allocation failure), the
        // guard still waits for every job already enqueued before the
        // `'env` borrows die.
        struct WaitGuard<'a>(&'a Latch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let guard = WaitGuard(&latch);
        for job in jobs {
            // SAFETY: only the lifetime is transmuted. The job may borrow
            // data living at least `'env`; this function neither returns
            // nor unwinds until the latch has counted every enqueued job
            // down (the wait guard fires on both paths, and each job
            // counts down even if it panics), so no borrow is used after
            // it expires.
            let job: PoolJob =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, PoolJob>(job) };
            let latch_ref = Arc::clone(&latch);
            let wrapped: PoolJob = Box::new(move || {
                let _guard = CountDownGuard(Arc::clone(&latch_ref));
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                    latch_ref.panicked.store(true, Ordering::Relaxed);
                    let mut slot = latch_ref.payload.lock().expect("payload lock poisoned");
                    slot.get_or_insert(payload);
                }
            });
            latch.count_up();
            self.injector.push(wrapped);
        }
        drop(guard); // blocks until every job has finished
        if latch.panicked.load(Ordering::Relaxed) {
            let payload = latch.payload.lock().expect("payload lock poisoned").take();
            match payload {
                Some(p) => std::panic::resume_unwind(p),
                None => panic!("a worker-pool job panicked"),
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector ends the worker loops once the queue is
        // drained; join so a dropped dedicated pool leaves no threads
        // behind.
        self.injector.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Span machinery
// ---------------------------------------------------------------------------

/// Spans handed to the queue per requested worker: more spans than
/// workers lets a worker that drew short lines steal the tail of the
/// deck instead of idling.
const SPANS_PER_WORKER: usize = 4;

/// Split `input` into at most `n` spans that end on line boundaries and
/// have roughly equal byte counts.
fn byte_balanced_spans(input: &[u8], n: usize) -> Vec<&[u8]> {
    if input.is_empty() || n <= 1 {
        return vec![input];
    }
    let step = input.len().div_ceil(n);
    let mut spans = Vec::with_capacity(n);
    let mut start = 0;
    while start < input.len() {
        let mut end = (start + step).min(input.len());
        // Extend so the span ends just past a newline (or at EOF).
        while end < input.len() && input[end - 1] != b'\n' {
            end += 1;
        }
        spans.push(&input[start..end]);
        start = end;
    }
    spans
}

/// One worker's reusable state for a parallel call: a single output
/// buffer all its spans append to, and the span-order bookkeeping needed
/// to stitch the final output together.
#[derive(Default)]
struct CompressSlot {
    buf: Vec<u8>,
    /// `(span index, range of `buf`, stats)` per processed span.
    parts: Vec<(usize, Range<usize>, CompressStats)>,
}

/// Compress a newline-separated buffer on `threads` workers with either
/// dictionary flavour. Byte-identical to the serial buffer loop.
///
/// This is the one copy of the span machinery: `threads` jobs drain a
/// byte-balanced span queue on the global [`WorkerPool`]; each job mints
/// one encoder and reuses it (and one output buffer) across every span
/// it claims.
pub fn compress_parallel_dyn(
    dict: &AnyDictionary,
    input: &[u8],
    threads: usize,
) -> (Vec<u8>, CompressStats) {
    let threads = threads.max(1);
    let spans = if threads == 1 {
        vec![input]
    } else {
        byte_balanced_spans(input, threads * SPANS_PER_WORKER)
    };
    if spans.len() == 1 {
        let mut out = Vec::with_capacity(input.len() / 2);
        let stats = dict.encoder().compress_buffer(input, &mut out);
        return (out, stats);
    }

    let queue = AtomicUsize::new(0);
    let workers = threads.min(spans.len());
    let mut slots: Vec<CompressSlot> = (0..workers).map(|_| CompressSlot::default()).collect();
    {
        let queue = &queue;
        let spans = &spans[..];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .map(|slot| {
                Box::new(move || {
                    let mut enc = dict.encoder();
                    loop {
                        let k = queue.fetch_add(1, Ordering::Relaxed);
                        if k >= spans.len() {
                            break;
                        }
                        let start = slot.buf.len();
                        slot.buf.reserve(spans[k].len() / 2);
                        let stats = enc.compress_buffer(spans[k], &mut slot.buf);
                        slot.parts.push((k, start..slot.buf.len(), stats));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().scoped_run(jobs);
    }

    // Stitch the parts back together in span order.
    let mut where_is: Vec<Option<(usize, Range<usize>)>> = vec![None; spans.len()];
    let mut stats = CompressStats::default();
    for (w, slot) in slots.iter().enumerate() {
        for (k, range, s) in &slot.parts {
            where_is[*k] = Some((w, range.clone()));
            stats.merge(s);
        }
    }
    let total: usize = slots.iter().map(|s| s.buf.len()).sum();
    let mut out = Vec::with_capacity(total);
    for loc in where_is {
        let (w, range) = loc.expect("every span was processed");
        out.extend_from_slice(&slots[w].buf[range]);
    }
    (out, stats)
}

/// One worker's reusable state for a parallel decompression call.
#[derive(Default)]
struct DecompressSlot {
    buf: Vec<u8>,
    parts: Vec<(usize, Range<usize>, DecompressStats)>,
    /// First decode error this worker hit, with its span index.
    err: Option<(usize, ZsmilesError)>,
}

/// Decompress a newline-separated buffer on `threads` workers with either
/// dictionary flavour.
pub fn decompress_parallel_dyn(
    dict: &AnyDictionary,
    input: &[u8],
    threads: usize,
) -> Result<(Vec<u8>, DecompressStats), ZsmilesError> {
    let threads = threads.max(1);
    let spans = if threads == 1 {
        vec![input]
    } else {
        byte_balanced_spans(input, threads * SPANS_PER_WORKER)
    };
    if spans.len() == 1 {
        let mut out = Vec::with_capacity(input.len() * 3);
        let stats = dict.decompress_buffer(input, &mut out)?;
        return Ok((out, stats));
    }

    let queue = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let workers = threads.min(spans.len());
    let mut slots: Vec<DecompressSlot> = (0..workers).map(|_| DecompressSlot::default()).collect();
    {
        let queue = &queue;
        let abort = &abort;
        let spans = &spans[..];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .map(|slot| {
                Box::new(move || {
                    while !abort.load(Ordering::Relaxed) {
                        let k = queue.fetch_add(1, Ordering::Relaxed);
                        if k >= spans.len() {
                            break;
                        }
                        let start = slot.buf.len();
                        slot.buf.reserve(spans[k].len() * 3);
                        match dict.decompress_buffer(spans[k], &mut slot.buf) {
                            Ok(stats) => slot.parts.push((k, start..slot.buf.len(), stats)),
                            Err(e) => {
                                slot.buf.truncate(start);
                                slot.err = Some((k, e));
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().scoped_run(jobs);
    }

    // Propagate the error of the earliest failing span — the same error a
    // serial pass would hit first. (Spans are claimed in index order, so
    // every span before a failing one was processed by someone.)
    if let Some((_, e)) = slots
        .iter_mut()
        .filter_map(|s| s.err.take())
        .min_by_key(|(k, _)| *k)
    {
        return Err(e);
    }

    let mut where_is: Vec<Option<(usize, Range<usize>)>> = vec![None; spans.len()];
    let mut stats = DecompressStats::default();
    for (w, slot) in slots.iter().enumerate() {
        for (k, range, s) in &slot.parts {
            where_is[*k] = Some((w, range.clone()));
            stats.lines += s.lines;
            stats.in_bytes += s.in_bytes;
            stats.out_bytes += s.out_bytes;
        }
    }
    let total: usize = slots.iter().map(|s| s.buf.len()).sum();
    let mut out = Vec::with_capacity(total);
    for loc in where_is {
        let (w, range) = loc.expect("every span was processed");
        out.extend_from_slice(&slots[w].buf[range]);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::dict::builder::DictBuilder;
    use crate::dict::Dictionary;
    use crate::wide::{WideCompressor, WideDictBuilder};

    fn fixture() -> (Dictionary, Vec<u8>) {
        let lines: Vec<&[u8]> = [
            b"COc1cc(C=O)ccc1O".as_slice(),
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
        ]
        .repeat(64);
        let dict = DictBuilder {
            min_count: 2,
            ..Default::default()
        }
        .train(lines.iter().copied())
        .unwrap();
        let input: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();
        (dict, input)
    }

    #[test]
    fn spans_tile_the_input_on_line_boundaries() {
        let input = b"aaa\nbb\nccccc\nd\neee\n";
        for n in 1..=6 {
            let spans = byte_balanced_spans(input, n);
            let total: usize = spans.iter().map(|s| s.len()).sum();
            assert_eq!(total, input.len(), "n={n}");
            let rejoined: Vec<u8> = spans.concat();
            assert_eq!(rejoined, input, "n={n}");
            for s in &spans {
                assert!(s.ends_with(b"\n"), "span must end on newline: n={n}");
            }
        }
    }

    #[test]
    fn parallel_output_identical_to_serial() {
        let (dict, input) = fixture();
        let mut serial = Vec::new();
        let s_stats = Compressor::new(&dict).compress_buffer(&input, &mut serial);
        let any = AnyDictionary::Base(Box::new(dict));
        for threads in [1, 2, 3, 4, 7] {
            let (par, p_stats) = compress_parallel_dyn(&any, &input, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(p_stats, s_stats, "threads={threads}");
        }
    }

    #[test]
    fn worker_pool_runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::with_threads(3);
        assert_eq!(pool.workers(), 3);
        // Jobs borrow a stack-local slice and each fill their own cell —
        // completion of every job before scoped_run returns is exactly
        // the soundness contract.
        let mut cells = vec![0usize; 17];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = cells
                .iter_mut()
                .enumerate()
                .map(|(i, c)| Box::new(move || *c = i + 1) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.scoped_run(jobs);
        }
        assert_eq!(cells, (1..=17).collect::<Vec<_>>());
        // The pool is reusable call after call (persistent workers).
        for round in 0..5 {
            let counter = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scoped_run(jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 8, "round {round}");
        }
        pool.scoped_run(Vec::new()); // empty job list is a no-op
    }

    #[test]
    fn worker_pool_propagates_job_panics() {
        let pool = WorkerPool::with_threads(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| {}),
                Box::new(|| panic!("boom")),
                Box::new(|| {}),
            ];
            pool.scoped_run(jobs);
        }));
        let payload = r.expect_err("panic is re-raised in the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the original payload survives"
        );
        // The pool survives and keeps serving jobs.
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scoped_run(jobs);
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = WorkerPool::global();
        let p2 = WorkerPool::global();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.workers() >= 1);
    }

    #[test]
    fn interior_blank_lines_parallel_identical_to_serial() {
        let (dict, _) = fixture();
        let input = b"CCO\n\n\nCCN(CC)CC\n\nCCO\nCC(C)Cc1ccc(cc1)C(C)C(=O)O\n\n".to_vec();
        let mut serial = Vec::new();
        let s_stats = Compressor::new(&dict).compress_buffer(&input, &mut serial);
        let any = AnyDictionary::Base(Box::new(dict));
        for threads in [2, 3, 7] {
            let (par, p_stats) = compress_parallel_dyn(&any, &input, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(p_stats, s_stats);
        }
    }

    #[test]
    fn parallel_round_trip() {
        let (dict, input) = fixture();
        let any = AnyDictionary::Base(Box::new(dict));
        let (z, _) = compress_parallel_dyn(&any, &input, 4);
        let (back, stats) = decompress_parallel_dyn(&any, &z, 4).unwrap();
        // Preprocessing is on (dictionary default), so compare against the
        // preprocessed input.
        let mut expect = Vec::new();
        let mut pp = smiles::Preprocessor::new();
        for line in input.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            pp.process_into(line, smiles::RingRenumber::Innermost, 0, &mut expect)
                .unwrap();
            expect.push(b'\n');
        }
        assert_eq!(back, expect);
        assert_eq!(stats.lines, 256);
    }

    #[test]
    fn decompress_error_propagates_from_worker() {
        let (dict, _) = fixture();
        let bad = b"CCO\n\x01\x02\n".to_vec(); // 0x01 is not a valid code
        let r = decompress_parallel_dyn(&AnyDictionary::Base(Box::new(dict)), &bad, 4);
        assert!(r.is_err());
    }

    #[test]
    fn empty_input() {
        let (dict, _) = fixture();
        let (z, stats) = compress_parallel_dyn(&AnyDictionary::Base(Box::new(dict)), b"", 4);
        assert!(z.is_empty());
        assert_eq!(stats.lines, 0);
    }

    #[test]
    fn wide_parallel_identical_to_serial_and_round_trips() {
        let lines: Vec<&[u8]> = [
            b"COc1cc(C=O)ccc1O".as_slice(),
            b"C1=CC=C(C=C1)C(=O)CC(=O)C2=CC=CC=C2",
            b"CC(C)Cc1ccc(cc1)C(C)C(=O)O",
            b"CCN(CC)CC",
        ]
        .repeat(64);
        let dict = WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                ..Default::default()
            },
            wide_size: 32,
        }
        .train(lines.iter().copied())
        .unwrap();
        let input: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.iter().copied().chain(std::iter::once(b'\n')))
            .collect();

        let mut serial = Vec::new();
        let s_stats = WideCompressor::new(&dict).compress_buffer(&input, &mut serial);
        let any = AnyDictionary::Wide(Box::new(dict));
        for threads in [1, 2, 3, 5] {
            let (par, p_stats) = compress_parallel_dyn(&any, &input, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(p_stats, s_stats, "threads={threads}");
        }

        let (back, d_stats) = decompress_parallel_dyn(&any, &serial, 3).unwrap();
        assert_eq!(d_stats.lines, 256);
        // Preprocess is on; decompressed output is the renumbered form.
        let mut expect = Vec::new();
        let mut pp = smiles::Preprocessor::new();
        for line in input.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            pp.process_into(line, smiles::RingRenumber::Innermost, 0, &mut expect)
                .unwrap();
            expect.push(b'\n');
        }
        assert_eq!(back, expect);
    }

    #[test]
    fn wide_parallel_error_propagates() {
        let lines: Vec<&[u8]> = [b"CCO".as_slice()].repeat(8);
        let dict = WideDictBuilder {
            base: DictBuilder {
                min_count: 2,
                ..Default::default()
            },
            wide_size: 8,
        }
        .train(lines.iter().copied())
        .unwrap();
        let bad = b"CCO\n\x01\x02\n".to_vec();
        let any = AnyDictionary::Wide(Box::new(dict));
        assert!(decompress_parallel_dyn(&any, &bad, 4).is_err());
    }
}
