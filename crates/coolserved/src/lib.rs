//! `coolserved` — a long-running thermal-optimization service over the
//! [`postplace`] flow.
//!
//! The crate turns the one-shot library API into a job-oriented
//! service suitable for a design team's shared box:
//!
//! * **Typed requests in, typed envelopes out.** Clients build
//!   [`postplace::OptimizeRequest`] values and submit them through a
//!   [`ServiceHandle`]; completed jobs come back as [`JobRecord`]s
//!   carrying the deterministic [`postplace::OptimizeResponse`] plus
//!   per-execution metadata (wall time, [`ResultSource`]) that is
//!   deliberately **not** part of the response, so warm answers stay
//!   bit-identical to cold solves.
//! * **A worker pool behind a queue.** [`serve`] spawns scoped worker
//!   threads that share one primed [`postplace::Flow`] per distinct
//!   resolved configuration and drain the queue on shutdown.
//! * **A two-tier persistent result cache.** [`ResultStore`] layers an
//!   in-memory LRU over an on-disk JSON directory keyed by
//!   [`postplace::CacheKey`] — a stable hash of the engine epoch and
//!   the resolved request, so a second process (or a run next week)
//!   reuses last week's solves, and a hit is found before any flow is
//!   built.
//! * **Fault tolerance by construction.** All disk I/O and time reads
//!   route through the [`backend::StoreBackend`] seam, so the
//!   deterministic [`fault::FaultPlan`] harness can fail the Nth write,
//!   corrupt a read, or stretch the clock in tests. On top of the seam:
//!   retry with capped backoff ([`backend::RetryPolicy`]), corrupt
//!   document quarantine, single-flight request deduplication, per-job
//!   deadlines, graceful degradation to memory-only mode
//!   ([`DiskHealth`]), and compare-and-swap disk writes safe across
//!   processes. Errors carry an [`ErrorClass`] and answer
//!   [`ServiceError::is_retryable`].
//!
//! ```no_run
//! use coolserved::{serve, ServiceConfig};
//! use postplace::{FlowConfig, OptimizeRequest};
//!
//! let config = ServiceConfig::new(FlowConfig::scattered_small())
//!     .workers(4)
//!     .disk_root("/tmp/coolserved-cache");
//! let record = serve(config, |service| {
//!     let request = OptimizeRequest::builder()
//!         .workload(postplace::WorkloadSpec::clustered_hotspot())
//!         .mesh(16, 16)
//!         .budget(0.16)
//!         .build()
//!         .unwrap();
//!     let id = service.submit(request);
//!     service.wait(id).unwrap()
//! });
//! println!("{} via {}", record.key, record.source);
//! ```

pub mod backend;
pub mod fault;
pub mod json;

mod error;
mod service;
mod store;
pub mod wire;

pub use backend::{OsBackend, RetryPolicy, StoreBackend};
pub use error::{ErrorClass, ServiceError};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultRule};
pub use service::{serve, JobRecord, JobStatus, ServiceConfig, ServiceHandle, ServiceStats};
pub use store::{
    decode_document, render_document, DiskHealth, DiskOptions, ResultSource, ResultStore,
    StoreStats, STORE_NAMESPACE,
};
