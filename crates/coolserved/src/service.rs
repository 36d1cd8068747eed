//! The optimization service: a job queue in front of a scoped worker
//! pool, answering from the two-tier [`ResultStore`].
//!
//! [`serve`] owns the whole lifecycle: it builds the shared state,
//! spawns `workers` threads inside a [`std::thread::scope`], hands the
//! client closure a [`ServiceHandle`], and on closure return flips the
//! shutdown flag. Workers **drain the queue before exiting**, so every
//! job submitted before the closure returned has a terminal state by
//! the time `serve` does — the scope join is the completion barrier.
//!
//! A job is keyed by [`CacheKey::of_request`] under its resolved
//! configuration and looked up in the store before any [`Flow`]
//! exists, so a memory or disk hit costs a hash and a read. Flows are
//! expensive to build (netlist synthesis, placement, thermal
//! factorization), so only the worker that solves a missed key fetches
//! one, from a keyed cache holding one primed [`Flow`] per distinct
//! resolved configuration; requests that only differ in goal reuse it.
//!
//! Robustness behaviors layered on the basic loop:
//!
//! - **Single-flight dedup** — concurrent submissions with the same
//!   key share one solve: the first worker to claim the key leads, the
//!   rest wait and re-read the store when it publishes (counted in
//!   [`ServiceStats::dedup_hits`]).
//! - **Deadlines** — a request carrying `deadline_ms` is checked at
//!   tier boundaries (dequeue, store miss, before the cold solve)
//!   against the backend clock, measured from submission; a blown
//!   budget fails the job with a typed [`ServiceError::Timeout`]. A
//!   cache *hit* is returned even past the deadline — the answer is
//!   already in hand.
//! - **Backpressure** — [`ServiceHandle::try_submit`] bounds the queue
//!   ([`ServiceConfig::queue_limit`]) and rejects with a typed,
//!   retryable [`ServiceError::Unavailable`] when it is full.
//! - **Structured failures** — a failed job's [`ErrorClass`] crosses
//!   the job table intact, so [`ServiceHandle::wait`] callers can ask
//!   [`ServiceError::is_retryable`] instead of parsing a message.
//!
//! All disk I/O and time reads route through the
//! [`StoreBackend`](crate::backend::StoreBackend) seam on
//! [`ServiceConfig::backend`], so the fault-injection tests drive every
//! one of these paths deterministically.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use postplace::{
    config_fingerprint, CacheKey, CacheStats, Flow, FlowConfig, JobId, OptimizeRequest,
};

use crate::backend::{OsBackend, RetryPolicy, StoreBackend};
use crate::error::ErrorClass;
use crate::store::{DiskOptions, ResultSource, ResultStore, StoreStats};
use crate::ServiceError;

/// Configuration of one [`serve`] run.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Base flow configuration; each request's workload and mesh are
    /// resolved on top of it.
    pub base: FlowConfig,
    /// Worker threads. Zero is clamped to one.
    pub workers: usize,
    /// Capacity of the in-memory result tier.
    pub cache_capacity: usize,
    /// Root of the on-disk result tier; `None` disables persistence.
    pub disk_root: Option<PathBuf>,
    /// Solver threads per job. Zero means auto: divide the machine's
    /// available parallelism across the worker pool,
    /// `max(1, available_parallelism / workers)`, so workers × solver
    /// threads never oversubscribes the host. The resolved value is
    /// written into the base configuration before serving; a request
    /// carrying its own `solver_threads` still overrides it. Thread
    /// count is a latency knob only — answers are bit-identical at any
    /// setting, so cached results stay valid across it.
    pub solver_threads: usize,
    /// Retry policy for transient disk-tier I/O.
    pub retry: RetryPolicy,
    /// Most documents kept on disk (oldest evicted past the bound);
    /// `None` (the default) keeps everything.
    pub disk_max_documents: Option<usize>,
    /// Oldest a disk document may grow, in milliseconds on the backend
    /// clock, before eviction; `None` (the default) keeps forever.
    pub disk_max_age_ms: Option<u64>,
    /// Most jobs allowed to sit in the queue before
    /// [`ServiceHandle::try_submit`] rejects with
    /// [`ServiceError::Unavailable`]; `None` (the default) is
    /// unbounded. Plain [`ServiceHandle::submit`] ignores the limit.
    pub queue_limit: Option<usize>,
    /// The storage/clock backend the disk tier and deadline checks run
    /// through. Defaults to the real filesystem and clock
    /// ([`OsBackend`]); tests install a
    /// [`FaultPlan`](crate::fault::FaultPlan) here.
    pub backend: Arc<dyn StoreBackend>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("disk_root", &self.disk_root)
            .field("solver_threads", &self.solver_threads)
            .field("retry", &self.retry)
            .field("disk_max_documents", &self.disk_max_documents)
            .field("disk_max_age_ms", &self.disk_max_age_ms)
            .field("queue_limit", &self.queue_limit)
            .finish_non_exhaustive()
    }
}

impl ServiceConfig {
    /// A service over `base` with two workers, a 256-entry memory
    /// tier, no disk tier, auto solver threading, default retry
    /// policy, and no disk or queue bounds.
    pub fn new(base: FlowConfig) -> ServiceConfig {
        ServiceConfig {
            base,
            workers: 2,
            cache_capacity: 256,
            disk_root: None,
            solver_threads: 0,
            retry: RetryPolicy::default(),
            disk_max_documents: None,
            disk_max_age_ms: None,
            queue_limit: None,
            backend: Arc::new(OsBackend),
        }
    }

    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the memory-tier capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Attaches a persistent disk tier rooted at `root`.
    pub fn disk_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.disk_root = Some(root.into());
        self
    }

    /// Sets the per-job solver-thread count; zero restores auto mode.
    pub fn solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads;
        self
    }

    /// Sets the retry policy for transient disk-tier I/O.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Bounds the disk tier to at most `max` documents, oldest-first.
    pub fn disk_max_documents(mut self, max: usize) -> Self {
        self.disk_max_documents = Some(max);
        self
    }

    /// Bounds disk-document age to `max_age_ms` milliseconds.
    pub fn disk_max_age_ms(mut self, max_age_ms: u64) -> Self {
        self.disk_max_age_ms = Some(max_age_ms);
        self
    }

    /// Bounds the job queue for [`ServiceHandle::try_submit`].
    pub fn queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// Installs a storage/clock backend (fault injection, virtual
    /// time).
    pub fn backend(mut self, backend: Arc<dyn StoreBackend>) -> Self {
        self.backend = backend;
        self
    }
}

/// Lifecycle of a submitted job, as reported by
/// [`ServiceHandle::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet picked up by a worker.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; [`ServiceHandle::wait`] returns its [`JobRecord`].
    Done,
    /// Failed; [`ServiceHandle::wait`] returns the error.
    Failed,
}

/// The completed-job envelope: the deterministic response plus the
/// per-execution metadata that deliberately lives outside it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The id [`ServiceHandle::submit`] returned.
    pub id: JobId,
    /// The request this job answered.
    pub request: OptimizeRequest,
    /// The key the result is cached under; equal to the response's own
    /// `key`.
    pub key: postplace::CacheKey,
    /// The answer; bit-identical whether solved or served from cache.
    pub response: Arc<postplace::OptimizeResponse>,
    /// Where the answer came from.
    pub source: ResultSource,
    /// Wall-clock time from dequeue to terminal state.
    pub wall_ms: f64,
}

enum JobState {
    Queued,
    Running,
    Done(JobRecord),
    // The class travels beside the rendered error so wait() can
    // rebuild a typed, retryability-preserving ServiceError::Job.
    Failed(ErrorClass, String),
}

/// Counter snapshot of a running service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Jobs accepted by [`ServiceHandle::submit`] /
    /// [`ServiceHandle::try_submit`].
    pub submitted: u64,
    /// Jobs that reached [`JobStatus::Done`].
    pub completed: u64,
    /// Jobs that reached [`JobStatus::Failed`].
    pub failed: u64,
    /// Jobs answered by actually running the optimization.
    pub cold_solves: u64,
    /// Distinct flows built (one per resolved configuration).
    pub flows_built: u64,
    /// Jobs that shared another job's in-flight solve instead of
    /// running their own (single-flight deduplication).
    pub dedup_hits: u64,
    /// Jobs failed on a blown [`OptimizeRequest`] deadline.
    pub timeouts: u64,
    /// Submissions rejected by the queue bound.
    pub rejected: u64,
    /// Result-store counters (memory hits/misses, disk hits/writes,
    /// retries, quarantines, evictions, health).
    pub store: StoreStats,
    /// Flow-cache counters.
    pub flows: CacheStats,
}

struct Shared {
    base: FlowConfig,
    backend: Arc<dyn StoreBackend>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    queue_limit: Option<usize>,
    jobs: Mutex<HashMap<u64, JobState>>,
    jobs_cv: Condvar,
    // Keys with a solve in flight; the worker that inserts a
    // key leads, everyone else waits on the condvar and re-reads the
    // store when woken.
    inflight: Mutex<HashSet<CacheKey>>,
    inflight_cv: Condvar,
    shutdown: AtomicBool,
    store: ResultStore,
    flows: postplace::KeyedCache<u64, Flow>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cold_solves: AtomicU64,
    flows_built: AtomicU64,
    dedup_hits: AtomicU64,
    timeouts: AtomicU64,
    rejected: AtomicU64,
}

struct QueuedJob {
    id: JobId,
    request: OptimizeRequest,
    /// Backend-clock time the job was accepted; deadlines count from
    /// here, so queue wait burns budget too.
    submitted_at_ms: u64,
}

/// Capacity of the per-service flow cache. Every flow shares its
/// netlist and base placement process-wide, but owns its activity,
/// per-cell power, baseline analysis and factorized thermal models
/// (~1.2 MiB per 128² model), so only a handful of distinct
/// configurations stay resident.
const FLOW_CACHE_CAP: usize = 8;

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Client-side handle to a running service; shared by reference with
/// every thread the client closure spawns.
pub struct ServiceHandle<'a> {
    shared: &'a Shared,
}

impl ServiceHandle<'_> {
    fn enqueue(&self, request: OptimizeRequest, queue: &mut VecDeque<QueuedJob>) -> JobId {
        let id = JobId::new(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        unpoison(self.shared.jobs.lock()).insert(id.value(), JobState::Queued);
        queue.push_back(QueuedJob {
            id,
            request,
            submitted_at_ms: self.shared.backend.now_millis(),
        });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.queue_cv.notify_one();
        id
    }

    /// Enqueues a request and returns its job id immediately. Never
    /// rejects — the queue bound applies to [`ServiceHandle::try_submit`]
    /// only.
    pub fn submit(&self, request: OptimizeRequest) -> JobId {
        let mut queue = unpoison(self.shared.queue.lock());
        self.enqueue(request, &mut queue)
    }

    /// Enqueues a request, honoring [`ServiceConfig::queue_limit`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Unavailable`] (retryable backpressure) when the
    /// queue is at its bound.
    pub fn try_submit(&self, request: OptimizeRequest) -> Result<JobId, ServiceError> {
        // The length check and the push happen under one lock, so two
        // racing submitters cannot both squeeze past the bound.
        let mut queue = unpoison(self.shared.queue.lock());
        if let Some(limit) = self.shared.queue_limit {
            if queue.len() >= limit {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Unavailable {
                    detail: format!("job queue is full ({} queued, limit {limit})", queue.len()),
                });
            }
        }
        Ok(self.enqueue(request, &mut queue))
    }

    /// The job's current lifecycle state.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id this service never
    /// issued.
    pub fn status(&self, id: JobId) -> Result<JobStatus, ServiceError> {
        let jobs = unpoison(self.shared.jobs.lock());
        match jobs.get(&id.value()) {
            Some(JobState::Queued) => Ok(JobStatus::Queued),
            Some(JobState::Running) => Ok(JobStatus::Running),
            Some(JobState::Done(_)) => Ok(JobStatus::Done),
            Some(JobState::Failed(..)) => Ok(JobStatus::Failed),
            None => Err(ServiceError::UnknownJob { id }),
        }
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// record.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an unissued id;
    /// [`ServiceError::Job`] if the job failed, carrying the worker
    /// error's [`ErrorClass`] beside its rendered form — so
    /// [`ServiceError::is_retryable`] answers correctly for a timeout
    /// or transient fault that crossed the job table.
    pub fn wait(&self, id: JobId) -> Result<JobRecord, ServiceError> {
        let mut jobs = unpoison(self.shared.jobs.lock());
        loop {
            match jobs.get(&id.value()) {
                None => return Err(ServiceError::UnknownJob { id }),
                Some(JobState::Done(record)) => return Ok(record.clone()),
                Some(JobState::Failed(class, detail)) => {
                    return Err(ServiceError::Job {
                        class: *class,
                        detail: detail.clone(),
                    })
                }
                Some(JobState::Queued | JobState::Running) => {
                    jobs = unpoison(self.shared.jobs_cv.wait(jobs));
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cold_solves: self.shared.cold_solves.load(Ordering::Relaxed),
            flows_built: self.shared.flows_built.load(Ordering::Relaxed),
            dedup_hits: self.shared.dedup_hits.load(Ordering::Relaxed),
            timeouts: self.shared.timeouts.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            store: self.shared.store.stats(),
            flows: self.shared.flows.stats(),
        }
    }
}

/// Fails with a typed [`ServiceError::Timeout`] if the job's budget
/// (counted from submission on the backend clock) is spent. Requests
/// without a deadline always pass.
fn check_deadline(
    shared: &Shared,
    request: &OptimizeRequest,
    submitted_at_ms: u64,
) -> Result<(), ServiceError> {
    let Some(deadline_ms) = request.deadline_ms else {
        return Ok(());
    };
    let elapsed_ms = shared.backend.now_millis().saturating_sub(submitted_at_ms);
    if elapsed_ms > deadline_ms {
        return Err(ServiceError::Timeout {
            elapsed_ms,
            deadline_ms,
        });
    }
    Ok(())
}

fn execute(shared: &Shared, job: &QueuedJob) -> Result<JobRecord, ServiceError> {
    let started = Instant::now();
    let request = &job.request;
    check_deadline(shared, request, job.submitted_at_ms)?;
    let resolved = request.resolve_config(&shared.base);
    let key = CacheKey::of_request(request, &resolved);
    // Single-flight: a store hit (fresh, or published by the leader we
    // waited on) answers outright — even past the deadline, since the
    // answer is already in hand. A miss makes us the leader if no solve
    // for this key is in flight, otherwise we wait and re-check.
    let (response, source) = loop {
        if let Some(hit) = shared.store.get(key)? {
            break hit;
        }
        check_deadline(shared, request, job.submitted_at_ms)?;
        let mut inflight = unpoison(shared.inflight.lock());
        if inflight.insert(key) {
            drop(inflight);
            let outcome: Result<(Arc<postplace::OptimizeResponse>, ResultSource), ServiceError> =
                (|| {
                    // Double-check under leadership: the previous leader
                    // may have published between our miss and our claim.
                    if let Some(hit) = shared.store.get(key)? {
                        return Ok(hit);
                    }
                    let response = lead_solve(shared, job, &resolved, key)?;
                    Ok((response, ResultSource::ColdSolve))
                })();
            // Leadership must be released on every path — success,
            // timeout, solver error — or waiting followers hang.
            unpoison(shared.inflight.lock()).remove(&key);
            shared.inflight_cv.notify_all();
            break outcome?;
        }
        shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
        let waited = unpoison(shared.inflight_cv.wait(inflight));
        drop(waited);
        // Re-loop: if the leader published, the store answers; if the
        // leader failed, the store misses again and we take the lead.
    };
    Ok(JobRecord {
        id: job.id,
        request: request.clone(),
        key,
        response,
        source,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// The leader's half of single-flight: fetch or build the request's
/// flow, run the solve and publish it.
fn lead_solve(
    shared: &Shared,
    job: &QueuedJob,
    resolved: &FlowConfig,
    key: CacheKey,
) -> Result<Arc<postplace::OptimizeResponse>, ServiceError> {
    // `config_fingerprint` deliberately excludes the thread knob (it
    // cannot change results), but a Flow bakes its thread count into
    // the factorized solver — so flows resolved at different thread
    // counts must not share a cache slot. Mix the normalized count
    // into the flow key; the result-store key is untouched.
    let fingerprint = config_fingerprint(resolved)
        ^ (resolved.thermal.threads.max(1) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let flow = shared.flows.get_or_compute(fingerprint, || {
        let flow = Flow::new(resolved.clone())?;
        flow.prime_baseline()?;
        shared.flows_built.fetch_add(1, Ordering::Relaxed);
        Ok::<_, ServiceError>(flow)
    })?;
    check_deadline(shared, &job.request, job.submitted_at_ms)?;
    let response = Arc::new(flow.optimize(&job.request)?);
    shared.store.put(key, Arc::clone(&response))?;
    shared.cold_solves.fetch_add(1, Ordering::Relaxed);
    Ok(response)
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = unpoison(shared.queue.lock());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = unpoison(shared.queue_cv.wait(queue));
            }
        };
        let Some(job) = job else { return };
        unpoison(shared.jobs.lock()).insert(job.id.value(), JobState::Running);
        let state = match execute(shared, &job) {
            Ok(record) => {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                JobState::Done(record)
            }
            Err(e) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                if e.class() == ErrorClass::Timeout {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                JobState::Failed(e.class(), e.to_string())
            }
        };
        unpoison(shared.jobs.lock()).insert(job.id.value(), state);
        shared.jobs_cv.notify_all();
    }
}

/// Runs a service for the lifetime of `client`: spawn workers, hand
/// the closure a handle, and on return shut down after the queue
/// drains. Every submitted job has a terminal state when this returns.
pub fn serve<R>(config: ServiceConfig, client: impl FnOnce(&ServiceHandle<'_>) -> R) -> R {
    let workers = config.workers.max(1);
    let solver_threads = if config.solver_threads == 0 {
        // Auto: split the machine across the worker pool so workers ×
        // solver threads never exceeds the hardware.
        let hw = std::thread::available_parallelism()
            .map(|hw| hw.get())
            .unwrap_or(1);
        (hw / workers).max(1)
    } else {
        config.solver_threads
    };
    let mut base = config.base;
    base.thermal.threads = solver_threads;
    let store = ResultStore::with_backend(
        config.cache_capacity.max(1),
        config.disk_root,
        Arc::clone(&config.backend),
        DiskOptions {
            retry: config.retry,
            max_documents: config.disk_max_documents,
            max_age_ms: config.disk_max_age_ms,
            degrade_on_failure: true,
        },
    );
    let shared = Shared {
        base,
        backend: config.backend,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        queue_limit: config.queue_limit,
        jobs: Mutex::new(HashMap::new()),
        jobs_cv: Condvar::new(),
        inflight: Mutex::new(HashSet::new()),
        inflight_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        store,
        flows: postplace::KeyedCache::with_capacity(FLOW_CACHE_CAP),
        next_id: AtomicU64::new(1),
        submitted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        cold_solves: AtomicU64::new(0),
        flows_built: AtomicU64::new(0),
        dedup_hits: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared));
        }
        let handle = ServiceHandle { shared: &shared };
        // The shutdown flag must flip even if the client panics —
        // otherwise the workers idle forever and the scope's implicit
        // join deadlocks instead of propagating the panic.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client(&handle)));
        shared.shutdown.store(true, Ordering::Release);
        shared.queue_cv.notify_all();
        match out {
            Ok(out) => out,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}
