//! Error type of the optimization service, with a retryability
//! taxonomy.
//!
//! Every error maps to an [`ErrorClass`], and
//! [`ServiceError::is_retryable`] is the policy clients (and the
//! service's own retry loops) key off: `Transient` / `Timeout` /
//! `Unavailable` are worth resubmitting, everything else is permanent
//! until the input or the code changes.

use postplace::FlowError;

/// The coarse class of a [`ServiceError`] — small, `Copy`, and
/// preserved across the job table, so a client that only sees a
/// [`ServiceError::Job`] envelope can still tell a retryable failure
/// from a permanent one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// The optimization flow itself failed (bad request, solver error).
    Flow,
    /// A disk-tier I/O error that was not classified transient.
    Io,
    /// A persisted document failed to parse or decode.
    Codec,
    /// A transient fault (disk I/O that kept failing past the retry
    /// budget, a deduplicated solve that failed under another job) —
    /// resubmitting may succeed.
    Transient,
    /// A per-job deadline expired before the answer was ready.
    Timeout,
    /// The service (or a tier of it) is over capacity or out of
    /// service right now — back off and resubmit.
    Unavailable,
    /// A job id this service never issued, or whose record was taken.
    UnknownJob,
}

impl ErrorClass {
    /// Stable kebab-case name (log lines, wire forms).
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::Flow => "flow",
            ErrorClass::Io => "io",
            ErrorClass::Codec => "codec",
            ErrorClass::Transient => "transient",
            ErrorClass::Timeout => "timeout",
            ErrorClass::Unavailable => "unavailable",
            ErrorClass::UnknownJob => "unknown-job",
        }
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors surfaced by the service front end, its workers, and the
/// persistent result store.
#[derive(Debug)]
pub enum ServiceError {
    /// The underlying flow failed to build or evaluate.
    Flow(FlowError),
    /// A disk-tier read or write failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error.
        detail: String,
    },
    /// A persisted document failed to parse or decode.
    Codec {
        /// What went wrong, naming the offending section/key.
        detail: String,
    },
    /// A transient fault that exhausted its retry budget; resubmitting
    /// may succeed (the disk may recover, the other job's failure may
    /// have been a fluke).
    Transient {
        /// What kept failing.
        detail: String,
    },
    /// A job's wall-clock budget ([`postplace::OptimizeRequest`]'s
    /// `deadline_ms`) expired at a tier boundary before the answer was
    /// ready.
    Timeout {
        /// Milliseconds elapsed when the boundary check fired.
        elapsed_ms: u64,
        /// The job's budget, milliseconds.
        deadline_ms: u64,
    },
    /// The service cannot accept or serve the request right now
    /// (bounded queue full, tier out of service) — retryable
    /// backpressure, not a verdict on the request.
    Unavailable {
        /// What is over capacity.
        detail: String,
    },
    /// A job failed on a worker. The non-`Clone` source error cannot
    /// cross the job table, so its rendered form travels with the
    /// preserved [`ErrorClass`] — clients distinguish retryable from
    /// permanent failures without parsing the message.
    Job {
        /// The class of the error that failed the job.
        class: ErrorClass,
        /// The failed job's rendered error.
        detail: String,
    },
    /// A job id that this service never issued, or whose record an
    /// earlier [`crate::ServiceHandle::wait`] took.
    UnknownJob {
        /// The id that was asked about.
        id: postplace::JobId,
    },
}

impl ServiceError {
    /// The error's class. A [`ServiceError::Job`] envelope reports the
    /// class of the error that failed the job, not a class of its own.
    pub fn class(&self) -> ErrorClass {
        match self {
            ServiceError::Flow(_) => ErrorClass::Flow,
            ServiceError::Io { .. } => ErrorClass::Io,
            ServiceError::Codec { .. } => ErrorClass::Codec,
            ServiceError::Transient { .. } => ErrorClass::Transient,
            ServiceError::Timeout { .. } => ErrorClass::Timeout,
            ServiceError::Unavailable { .. } => ErrorClass::Unavailable,
            ServiceError::Job { class, .. } => *class,
            ServiceError::UnknownJob { .. } => ErrorClass::UnknownJob,
        }
    }

    /// Whether resubmitting the same request could plausibly succeed:
    /// transient faults, blown deadlines, and backpressure are
    /// retryable; flow, codec, plain-I/O and unknown-job errors are
    /// permanent until something else changes.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.class(),
            ErrorClass::Transient | ErrorClass::Timeout | ErrorClass::Unavailable
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Flow(e) => write!(f, "flow: {e}"),
            ServiceError::Io { path, detail } => write!(f, "io at {path}: {detail}"),
            ServiceError::Codec { detail } => write!(f, "codec: {detail}"),
            ServiceError::Transient { detail } => write!(f, "transient: {detail}"),
            ServiceError::Timeout {
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "timeout: {elapsed_ms} ms elapsed against a {deadline_ms} ms deadline"
            ),
            ServiceError::Unavailable { detail } => write!(f, "unavailable: {detail}"),
            ServiceError::Job { class, detail } => write!(f, "job failed ({class}): {detail}"),
            ServiceError::UnknownJob { id } => write!(f, "unknown job {id}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for ServiceError {
    fn from(e: FlowError) -> Self {
        ServiceError::Flow(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_class() {
        let transient = ServiceError::Transient {
            detail: "disk flapping".to_string(),
        };
        let timeout = ServiceError::Timeout {
            elapsed_ms: 250,
            deadline_ms: 100,
        };
        let full = ServiceError::Unavailable {
            detail: "queue full".to_string(),
        };
        let codec = ServiceError::Codec {
            detail: "bad doc".to_string(),
        };
        assert!(transient.is_retryable());
        assert!(timeout.is_retryable());
        assert!(full.is_retryable());
        assert!(!codec.is_retryable());
        assert!(!ServiceError::UnknownJob {
            id: postplace::JobId::new(1)
        }
        .is_retryable());
    }

    #[test]
    fn job_envelopes_preserve_the_inner_class() {
        let failed = ServiceError::Timeout {
            elapsed_ms: 9,
            deadline_ms: 5,
        };
        let envelope = ServiceError::Job {
            class: failed.class(),
            detail: failed.to_string(),
        };
        assert_eq!(envelope.class(), ErrorClass::Timeout);
        assert!(envelope.is_retryable(), "retryability survives the table");
        let permanent = ServiceError::Job {
            class: ErrorClass::Flow,
            detail: "bad request".to_string(),
        };
        assert!(!permanent.is_retryable());
        assert!(permanent.to_string().contains("(flow)"));
    }
}
