//! The persistent execution runtime: a process-lifetime worker pool
//! replacing the per-query thread churn of the original Fig. 5
//! executor.
//!
//! The paper's prototype re-creates its processing threads for every
//! query; under heavy traffic that costs a `clone`/`join` pair plus a
//! mutex per result slot per query. Here the [`Engine`] owns one
//! [`WorkerPool`] built once in `EngineBuilder::build`; queries submit
//! *jobs* (an indexed task set drained through one atomic cursor) and
//! workers park between jobs. Result slots are written lock-free: the
//! cursor hands every index to exactly one claimant, so each slot has
//! a unique writer and plain pointer writes suffice.
//!
//! **Failure domain.** A panic inside a task is caught per-task
//! ([`catch_unwind`]), recorded, and surfaced to the submitter as a
//! structured [`JobFault::Panicked`] after the job drains — it never
//! unwinds through the pool, never poisons the pool's mutexes, and
//! never takes down sibling tasks or later jobs. A job may also carry
//! a [`CancelToken`]: once the token trips, workers keep *claiming*
//! indices (so the completion barrier still counts to `n` and the
//! submitter can never deadlock) but skip the task bodies, so a
//! cancelled job stops within one in-flight work unit per thread.
//! Should a lock nevertheless be found poisoned (a bug elsewhere, an
//! older binary), every lock site here recovers the guard instead of
//! cascading the historical panic into unrelated queries.
//!
//! [`Engine`]: crate::engine::Engine

use crate::cancel::{CancelToken, Interrupt};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Why a job did not complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFault {
    /// At least one task panicked; the payload is the first captured
    /// panic message. Every other task still ran to completion.
    Panicked(String),
    /// The job's [`CancelToken`] tripped; remaining task bodies were
    /// skipped. A task panic takes precedence when both occurred.
    Interrupted(Interrupt),
}

impl std::fmt::Display for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFault::Panicked(m) => write!(f, "task panicked: {m}"),
            JobFault::Interrupted(i) => write!(f, "job interrupted: {i}"),
        }
    }
}

/// Best-effort text of a panic payload (`&str` / `String` payloads
/// verbatim, a placeholder otherwise).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recovers a lock guard from a poisoned mutex/condvar result: the
/// per-task [`catch_unwind`] means no user code can unwind while a
/// pool lock is held, so the guarded state is always consistent and
/// the poison flag carries no information worth dying for. Shared
/// crate-wide: every execution-layer lock follows the same discipline
/// (panics are confined to task bodies, never raised under a lock),
/// so one historical panic can never cascade into unrelated queries.
pub(crate) fn recover<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

const TRIP_NONE: u8 = 0;
const TRIP_CANCELLED: u8 = 1;
const TRIP_DEADLINE: u8 = 2;

/// Type-erased pointer to the job closure. The pointee is guaranteed
/// by [`WorkerPool::run`] to outlive every access: `run` does not
/// return until all `n` task completions are counted, and workers
/// never dereference after the cursor is exhausted.
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync (bound on construction) and the pointer
// is only dereferenced while the submitting thread keeps the closure
// alive (see `run`'s completion barrier).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One submitted job: `n` indexed tasks drained via an atomic cursor.
struct Job {
    /// Monotonic id so a worker runs each job at most once.
    epoch: u64,
    task: TaskPtr,
    n: usize,
    cursor: AtomicUsize,
    /// Pool-worker seats (the submitting thread always participates on
    /// top of these); bounds per-job concurrency below pool size.
    seats: usize,
    seats_taken: AtomicUsize,
    /// Lock-free completion count; the mutex/condvar pair below is
    /// touched only by the final task and the waiting submitter.
    done_count: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panicked: AtomicBool,
    /// First captured panic message (first writer wins).
    panic_msg: Mutex<Option<String>>,
    /// Cooperative cancellation for this job, when the submitter
    /// passed a token.
    token: Option<CancelToken>,
    /// Cached trip state (`TRIP_*`): once set, claimants skip task
    /// bodies without re-reading the token or the clock.
    tripped: AtomicU8,
}

impl Job {
    /// Whether the job's token has tripped; caches the first observed
    /// trip so subsequent claims cost one relaxed load.
    fn is_tripped(&self) -> bool {
        if self.tripped.load(Ordering::Relaxed) != TRIP_NONE {
            return true;
        }
        let Some(token) = &self.token else {
            return false;
        };
        match token.interrupted() {
            Some(Interrupt::Cancelled) => {
                self.tripped.store(TRIP_CANCELLED, Ordering::Relaxed);
                true
            }
            Some(Interrupt::DeadlineExceeded) => {
                self.tripped.store(TRIP_DEADLINE, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Records a task panic (first message wins).
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = recover(self.panic_msg.lock());
        if slot.is_none() {
            *slot = Some(panic_message(payload.as_ref()));
        }
        drop(slot);
        self.panicked.store(true, Ordering::Release);
    }

    /// The structured outcome once the job has drained.
    fn fault(&self) -> Result<(), JobFault> {
        if self.panicked.load(Ordering::Acquire) {
            let msg = recover(self.panic_msg.lock())
                .clone()
                .unwrap_or_else(|| "unknown panic".to_string());
            return Err(JobFault::Panicked(msg));
        }
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_CANCELLED => Err(JobFault::Interrupted(Interrupt::Cancelled)),
            TRIP_DEADLINE => Err(JobFault::Interrupted(Interrupt::DeadlineExceeded)),
            _ => Ok(()),
        }
    }

    /// Claims and runs tasks until the cursor is exhausted. Once the
    /// job's token trips, remaining indices are still claimed and
    /// counted — the completion barrier must reach `n` — but their
    /// task bodies are skipped.
    fn execute(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if !self.is_tripped() {
                // SAFETY: see TaskPtr — the closure outlives the job.
                let task = unsafe { &*self.task.0 };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                    self.record_panic(payload);
                }
            }
            // AcqRel: completing task publishes its slot write; the
            // final task (and the waiting submitter) acquire all of
            // them.
            if self.done_count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                // Lock before notify so the submitter cannot miss the
                // wakeup between its check and its wait.
                let mut finished = recover(self.done.lock());
                *finished = true;
                self.done_cv.notify_all();
            }
        }
    }
}

struct PoolState {
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A persistent pool of worker threads. Workers park between jobs;
/// submitting a job wakes exactly the workers it can use.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    next_epoch: AtomicUsize,
    /// Serialises job submissions: the pool publishes one job at a
    /// time, so concurrent `run` calls from clones of an engine queue
    /// up instead of silently stealing each other's workers.
    submit: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` persistent threads. Zero workers is
    /// valid: every job then runs inline on the submitting thread.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("atgis-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            next_epoch: AtomicUsize::new(1),
            submit: Mutex::new(()),
        }
    }

    /// The process-wide shared pool used by the free-function executor
    /// API, sized to the machine (`available_parallelism - 1` workers,
    /// the submitting thread being the remaining unit).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(available_parallelism().saturating_sub(1)))
    }

    /// Number of persistent worker threads (the submitting thread adds
    /// one more unit of parallelism on top during a job).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs `f(0..n)` with at most `concurrency` total threads (pool
    /// workers plus the calling thread), blocking until every index
    /// has completed. A task panic is caught per-task and surfaced as
    /// [`JobFault::Panicked`] after the job drains — the pool itself
    /// always survives.
    pub fn run<F: Fn(usize) + Sync>(
        &self,
        n: usize,
        concurrency: usize,
        f: F,
    ) -> Result<(), JobFault> {
        self.run_cancellable(n, concurrency, None, f)
    }

    /// [`WorkerPool::run`] with cooperative cancellation: every
    /// claimant polls `token` before each task body, so once the token
    /// trips the job stops within one in-flight work unit per thread
    /// (remaining indices are claimed-and-skipped to keep the
    /// completion barrier sound) and the call returns
    /// [`JobFault::Interrupted`].
    pub fn run_cancellable<F: Fn(usize) + Sync>(
        &self,
        n: usize,
        concurrency: usize,
        token: Option<&CancelToken>,
        f: F,
    ) -> Result<(), JobFault> {
        if n == 0 {
            return Ok(());
        }
        let conc = concurrency.max(1).min(n);
        if conc == 1 || self.handles.is_empty() {
            let mut first_panic: Option<String> = None;
            for i in 0..n {
                if let Some(t) = token {
                    if let Some(interrupt) = t.interrupted() {
                        // A recorded panic outranks the interrupt,
                        // matching the pooled path's precedence.
                        return match first_panic {
                            Some(msg) => Err(JobFault::Panicked(msg)),
                            None => Err(JobFault::Interrupted(interrupt)),
                        };
                    }
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    first_panic.get_or_insert_with(|| panic_message(payload.as_ref()));
                }
            }
            return match first_panic {
                Some(msg) => Err(JobFault::Panicked(msg)),
                None => Ok(()),
            };
        }
        // SAFETY: erase the closure's lifetime; `run` upholds the
        // TaskPtr contract (no access after the completion barrier).
        let task: *const (dyn Fn(usize) + Sync + 'static) = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(&f as *const F as *const (dyn Fn(usize) + Sync + '_))
        };
        let job = Arc::new(Job {
            epoch: self.next_epoch.fetch_add(1, Ordering::Relaxed) as u64,
            task: TaskPtr(task),
            n,
            cursor: AtomicUsize::new(0),
            seats: (conc - 1).min(self.handles.len()),
            seats_taken: AtomicUsize::new(0),
            done_count: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            token: token.cloned(),
            tripped: AtomicU8::new(TRIP_NONE),
        });
        // One published job at a time. Must not be called from inside
        // a pool task of the same pool (queries never nest jobs).
        let _submit = recover(self.submit.lock());
        {
            let mut st = recover(self.shared.state.lock());
            st.job = Some(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();

        // The submitting thread is always a participant.
        job.execute();

        // Completion barrier: workers may still be finishing claimed
        // tasks after the cursor drained.
        {
            let mut finished = recover(job.done.lock());
            while !*finished && job.done_count.load(Ordering::Acquire) < job.n {
                finished = recover(job.done_cv.wait(finished));
            }
        }
        {
            let mut st = recover(self.shared.state.lock());
            if st
                .job
                .as_ref()
                .map(|j| j.epoch == job.epoch)
                .unwrap_or(false)
            {
                st.job = None;
            }
        }
        drop(_submit);
        job.fault()
    }

    /// Runs `f` over `0..n` and collects the outputs in index order.
    /// Slots are pre-sized and written lock-free (each index has a
    /// unique claimant via the job cursor). Returns the fault instead
    /// of the (necessarily incomplete) outputs when a task panicked.
    pub fn run_collect<T: Send, F: Fn(usize) -> T + Sync>(
        &self,
        n: usize,
        concurrency: usize,
        f: F,
    ) -> Result<Vec<T>, JobFault> {
        self.run_collect_cancellable(n, concurrency, None, f)
    }

    /// [`WorkerPool::run_collect`] with cooperative cancellation (see
    /// [`WorkerPool::run_cancellable`]). On interruption the partial
    /// outputs are discarded and the fault is returned.
    pub fn run_collect_cancellable<T: Send, F: Fn(usize) -> T + Sync>(
        &self,
        n: usize,
        concurrency: usize,
        token: Option<&CancelToken>,
        f: F,
    ) -> Result<Vec<T>, JobFault> {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(n, || None);
        let writer = SlotWriter {
            ptr: slots.as_mut_ptr(),
            len: slots.len(),
        };
        self.run_cancellable(n, concurrency, token, |i| {
            // SAFETY: the pool hands out each index in `0..n` to exactly
            // one task, so `i < n` and this slot has a unique writer;
            // the Vec outlives the job because `run` blocks until all
            // tasks complete.
            unsafe { *writer.slot(i) = Some(f(i)) };
        })?;
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every index completed"))
            .collect())
    }
}

/// Raw pointer into the slot vector of one `run_collect` job, shared
/// by every task of the job.
struct SlotWriter<T> {
    ptr: *mut Option<T>,
    len: usize,
}

// SAFETY: `ptr` points into a `Vec<Option<T>>` that outlives the job,
// and each task writes only the slot of the index it claimed, so a
// `T` is moved into a slot on one thread and later read back on the
// submitting thread: that needs `T: Send`. `len` is a plain count.
unsafe impl<T: Send> Send for SlotWriter<T> {}
// SAFETY: sharing `&SlotWriter` only lets threads call `slot`, whose
// callers write disjoint slots (one claim per index), so no `&T` is
// ever shared between threads and no slot is touched by two of them;
// `T: Send` covers the values moved in, as above.
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// The unique writer pointer for slot `i`.
    ///
    /// # Safety
    /// `i` must be less than the slot count, and the caller must hold
    /// the exclusive claim on index `i`.
    unsafe fn slot(&self, i: usize) -> *mut Option<T> {
        debug_assert!(i < self.len, "slot {i} out of {}", self.len);
        // SAFETY: the caller guarantees `i < len`, so the offset stays
        // inside the slot vector's allocation.
        unsafe { self.ptr.add(i) }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = recover(self.shared.state.lock());
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = recover(shared.state.lock());
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job.as_ref() {
                    if job.epoch != last_epoch {
                        break Arc::clone(job);
                    }
                }
                st = recover(shared.work_ready.wait(st));
            }
        };
        last_epoch = job.epoch;
        if job.seats_taken.fetch_add(1, Ordering::Relaxed) < job.seats {
            job.execute();
        }
    }
}

/// `std::thread::available_parallelism` with a serial fallback.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicU64::new(0);
        pool.run(10, 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn collect_preserves_index_order() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 2, 17, 100] {
            let out = pool.run_collect(n, 4, |i| i * 3).unwrap();
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(2);
        for round in 0..50usize {
            let out = pool.run_collect(8, 3, move |i| i + round).unwrap();
            assert_eq!(out, (0..8).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrency_is_clamped() {
        let pool = WorkerPool::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(32, 2, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak > concurrency");
    }

    #[test]
    fn concurrent_submissions_serialise_without_losing_work() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..20 {
                        pool.run(16, 4, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 16);
    }

    #[test]
    fn task_panic_surfaces_structured_after_drain() {
        let pool = WorkerPool::new(2);
        let ran = AtomicU64::new(0);
        let fault = pool
            .run(10, 3, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 4 {
                    panic!("task boom");
                }
            })
            .unwrap_err();
        assert_eq!(fault, JobFault::Panicked("task boom".to_string()));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            10,
            "sibling tasks still drained"
        );
        // The pool survives a panicked job: no poisoned mutexes, no
        // dead workers.
        let out = pool.run_collect(4, 2, |i| i).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn inline_path_catches_panics_too() {
        let pool = WorkerPool::new(0);
        let ran = AtomicU64::new(0);
        let fault = pool
            .run(6, 1, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    panic!("inline boom");
                }
            })
            .unwrap_err();
        assert_eq!(fault, JobFault::Panicked("inline boom".to_string()));
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn pre_cancelled_job_skips_every_task_body() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicU64::new(0);
        let fault = pool
            .run_cancellable(64, 3, Some(&token), |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(fault, JobFault::Interrupted(Interrupt::Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no task body may run");
        // The barrier still drained and the pool still serves.
        let out = pool.run_collect(3, 2, |i| i).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn mid_job_cancellation_stops_within_inflight_work() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        let cancel_at = 5u64;
        let t = &token;
        let fault = pool
            .run_cancellable(1000, 3, Some(t), |_| {
                if ran.fetch_add(1, Ordering::Relaxed) + 1 == cancel_at {
                    t.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(fault, JobFault::Interrupted(Interrupt::Cancelled));
        // Each of the ≤3 claimants can have at most one task in
        // flight when the token trips (a small slack absorbs relaxed
        // store visibility).
        let total = ran.load(Ordering::Relaxed);
        assert!(
            total < cancel_at + 16,
            "cancellation must stop within in-flight work, ran {total} of 1000"
        );
    }

    #[test]
    fn elapsed_deadline_interrupts_a_job() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let fault = pool
            .run_cancellable(16, 3, Some(&token), |_| {})
            .unwrap_err();
        assert_eq!(fault, JobFault::Interrupted(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn collect_cancellation_discards_partial_output() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let fault = pool
            .run_collect_cancellable(8, 3, Some(&token), |i| i)
            .unwrap_err();
        assert_eq!(fault, JobFault::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn panic_outranks_interrupt_when_both_occur() {
        let pool = WorkerPool::new(0); // inline: deterministic order
        let token = CancelToken::new();
        let t = &token;
        let fault = pool
            .run_cancellable(4, 1, Some(t), |i| {
                if i == 1 {
                    t.cancel();
                    panic!("boom then cancel");
                }
            })
            .unwrap_err();
        assert_eq!(fault, JobFault::Panicked("boom then cancel".to_string()));
    }

    #[test]
    fn panic_messages_render_from_any_payload() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&"owned".to_string()), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
