//! Two-tier persistent result store: in-memory LRU over an on-disk
//! JSON layer, built to survive a misbehaving disk.
//!
//! Results are keyed by [`CacheKey`] — the stable hash of the engine
//! epoch, the request and its resolved flow configuration — so a key
//! computed in one process finds a result written by another. The
//! memory tier is a [`KeyedCache`]; the optional disk tier stores one
//! document per key at `<root>/optimize/<hex-key>.json`:
//! `{"schema", "epoch", "response"}`, whose response's own `key` must
//! equal the file stem.
//!
//! All disk I/O and time reads route through a [`StoreBackend`]
//! (see [`crate::backend`]), which is the fault-injection seam: every
//! recovery path below is pinned by a scheduled [`crate::fault`] test.
//! The disk tier's failure policy, in order of escalation:
//!
//! 1. **Retry** — transient I/O failures are retried with capped
//!    exponential backoff ([`RetryPolicy`]).
//! 2. **Quarantine** — a document failing parse, schema, epoch or key
//!    integrity is atomically renamed to `<key>.quarantine.<n>` and the
//!    lookup reports a miss, so the caller recomputes and rewrites a
//!    clean document instead of failing forever on the same bytes.
//! 3. **Degrade** — if the disk keeps failing past the retry budget,
//!    the tier drops to memory-only mode ([`DiskHealth::Degraded`])
//!    instead of failing every request; with
//!    [`DiskOptions::degrade_on_failure`] off, the store surfaces
//!    [`ServiceError::Transient`] instead so callers can retry.
//!
//! Writes are multi-process safe by compare-and-swap: peek the
//! incumbent document, write a temp file, re-peek, and only then
//! atomically rename over — two processes sharing `<root>/optimize/`
//! never tear or interleave documents, and the loser of a same-key race
//! discards its temp file (counted, not errored: both wrote the same
//! deterministic bytes).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use postplace::{CacheKey, CacheStats, KeyedCache, OptimizeResponse, ENGINE_EPOCH};

use crate::backend::{OsBackend, RetryPolicy, StoreBackend};
use crate::json::{Json, JsonView, Tape};
use crate::wire::{response_from_json, response_to_json, WIRE_SCHEMA};
use crate::ServiceError;

/// Directory under the disk root that namespaces this store's files;
/// other stores (future stores of different document kinds) get their
/// own namespace beside it.
pub const STORE_NAMESPACE: &str = "optimize";

/// Most quarantine generations kept per key before the store deletes
/// the corrupt document outright instead of archiving another copy.
const MAX_QUARANTINE_GENERATIONS: u64 = 16;

/// Where an answered request's result actually came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultSource {
    /// Nothing cached; a worker ran the optimization.
    ColdSolve,
    /// Served from the in-memory tier.
    MemoryCache,
    /// Served from the on-disk tier (and promoted to memory).
    DiskCache,
}

impl std::fmt::Display for ResultSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResultSource::ColdSolve => "cold-solve",
            ResultSource::MemoryCache => "memory-cache",
            ResultSource::DiskCache => "disk-cache",
        })
    }
}

/// Health of the disk tier, recorded rather than thrown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiskHealth {
    /// No disk tier was configured.
    #[default]
    Disabled,
    /// The disk tier is serving reads and writes.
    Healthy,
    /// The disk kept failing past the retry budget; the store dropped
    /// to memory-only mode and stopped touching it.
    Degraded,
}

impl std::fmt::Display for DiskHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DiskHealth::Disabled => "disabled",
            DiskHealth::Healthy => "healthy",
            DiskHealth::Degraded => "degraded",
        })
    }
}

/// Failure policy and bounds of the disk tier.
#[derive(Debug, Clone, Copy)]
pub struct DiskOptions {
    /// Retry policy for transient disk I/O.
    pub retry: RetryPolicy,
    /// Most documents kept on disk; oldest are evicted past the bound.
    /// `None` (the default) keeps everything.
    pub max_documents: Option<usize>,
    /// Oldest a document may grow (milliseconds on the backend clock)
    /// before eviction. `None` (the default) keeps documents forever.
    pub max_age_ms: Option<u64>,
    /// When `true` (the default), a disk that keeps failing degrades
    /// the tier to memory-only mode; when `false`, store calls surface
    /// [`ServiceError::Transient`] to the caller instead.
    pub degrade_on_failure: bool,
}

impl Default for DiskOptions {
    fn default() -> Self {
        DiskOptions {
            retry: RetryPolicy::default(),
            max_documents: None,
            max_age_ms: None,
            degrade_on_failure: true,
        }
    }
}

/// Counter snapshot of a [`ResultStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Memory-tier counters (hits/misses/evictions/inserts).
    pub memory: CacheStats,
    /// Lookups answered by the disk tier.
    pub disk_hits: u64,
    /// Documents written to the disk tier.
    pub disk_writes: u64,
    /// Disk operations retried after a transient failure.
    pub disk_retries: u64,
    /// Corrupt documents quarantined (or deleted when the quarantine
    /// itself failed).
    pub quarantined: u64,
    /// Documents evicted by the count/age bounds.
    pub evicted: u64,
    /// Same-key write races lost to another writer (the incumbent
    /// document won; ours was discarded).
    pub write_races_lost: u64,
    /// Current health of the disk tier.
    pub disk_health: DiskHealth,
}

/// What a peek at a key's on-disk slot found.
enum Incumbent {
    /// No document (or an unreadable slot we will overwrite anyway).
    Absent,
    /// A document that decodes cleanly — a concurrent writer won.
    Valid,
    /// A document that fails integrity checks.
    Corrupt,
}

/// The disk tier: a directory of documents behind the backend seam.
struct DiskTier {
    dir: PathBuf,
    backend: Arc<dyn StoreBackend>,
    options: DiskOptions,
    degraded: AtomicBool,
    hits: AtomicU64,
    writes: AtomicU64,
    retries: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
    races_lost: AtomicU64,
}

/// The two-tier store. Cloning is cheap and shares both tiers.
#[derive(Clone)]
pub struct ResultStore {
    memory: KeyedCache<CacheKey, OptimizeResponse>,
    disk: Option<Arc<DiskTier>>,
}

impl DiskTier {
    fn path_for(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.to_hex()))
    }

    fn degrade(&self) {
        self.degraded.store(true, Ordering::Relaxed);
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Runs `op` up to the retry budget, sleeping the capped
    /// exponential backoff (through the backend, so fault-injected
    /// tests pay virtual time only) between attempts.
    fn with_retries<T>(
        &self,
        what: &str,
        path: &Path,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> Result<T, ServiceError> {
        let budget = self.options.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= budget {
                        return Err(ServiceError::Transient {
                            detail: format!(
                                "{what} {} still failing after {budget} attempt(s): {e}",
                                path.display()
                            ),
                        });
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backend
                        .sleep_ms(self.options.retry.backoff_ms(attempt - 1));
                }
            }
        }
    }

    /// Decodes a persisted document ([`decode_document`]) and checks
    /// that its response answers the key the file is named by.
    fn decode(&self, text: &str, key: CacheKey, path: &Path) -> Result<OptimizeResponse, String> {
        let response = decode_document(text).map_err(|e| format!("{}: {e}", path.display()))?;
        if response.key != key {
            return Err(format!(
                "{}: response answers key {} but file is named {key}",
                path.display(),
                response.key
            ));
        }
        Ok(response)
    }

    /// Moves a corrupt document out of the lookup path so the key can
    /// recompute cleanly. Best effort, escalating: rename to the next
    /// free `<key>.quarantine.<n>` slot, else delete, else degrade the
    /// tier (strict mode surfaces the failure instead).
    fn quarantine(&self, key: CacheKey, path: &Path) -> Result<(), ServiceError> {
        let hex = key.to_hex();
        for n in 1..=MAX_QUARANTINE_GENERATIONS {
            let slot = self.dir.join(format!("{hex}.quarantine.{n}"));
            if self.backend.exists(&slot) {
                continue;
            }
            if self.backend.rename(path, &slot).is_ok() {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            break;
        }
        // Could not archive it (rename kept failing, or every slot is
        // taken): deleting still unblocks the recompute.
        match self.with_retries("quarantine-delete", path, || self.backend.remove_file(path)) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) if self.options.degrade_on_failure => {
                // The poisoned document is stuck in place; stop serving
                // from this disk rather than re-tripping on it.
                self.degrade();
                let _ = e;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Peeks at what currently occupies `key`'s slot. An unreadable
    /// slot reports [`Incumbent::Absent`]: we cannot verify it, and the
    /// atomic rename about to happen replaces it wholesale anyway.
    fn peek(&self, key: CacheKey, path: &Path) -> Incumbent {
        if !self.backend.exists(path) {
            return Incumbent::Absent;
        }
        match self.backend.read_to_string(path) {
            Err(_) => Incumbent::Absent,
            Ok(text) => match self.decode(&text, key, path) {
                Ok(_) => Incumbent::Valid,
                Err(_) => Incumbent::Corrupt,
            },
        }
    }

    /// Enforces the count/age bounds, oldest first. Best effort: a
    /// failing list or delete is skipped, never escalated — eviction is
    /// hygiene, not correctness.
    fn evict(&self) {
        if self.options.max_documents.is_none() && self.options.max_age_ms.is_none() {
            return;
        }
        let Ok(entries) = self.backend.list_dir(&self.dir) else {
            return;
        };
        let mut documents: Vec<(u64, PathBuf)> = entries
            .into_iter()
            .filter(|p| is_document_name(p))
            .map(|p| (self.backend.modified_millis(&p).unwrap_or(0), p))
            .collect();
        documents.sort();
        let now = self.backend.now_millis();
        let mut survivors = Vec::with_capacity(documents.len());
        if let Some(max_age) = self.options.max_age_ms {
            for (mtime, path) in documents {
                if now.saturating_sub(mtime) > max_age {
                    if self.backend.remove_file(&path).is_ok() {
                        self.evicted.fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    survivors.push((mtime, path));
                }
            }
            documents = survivors;
        }
        if let Some(max_docs) = self.options.max_documents {
            while documents.len() > max_docs {
                let (_, oldest) = documents.remove(0);
                if self.backend.remove_file(&oldest).is_ok() {
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Sweeps temp files a crashed writer left behind. Best effort.
    fn sweep_temps(&self) {
        let Ok(entries) = self.backend.list_dir(&self.dir) else {
            return;
        };
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') && name.contains(".tmp-") {
                let _ = self.backend.remove_file(&path);
            }
        }
    }

    /// Persists `response` under `key` with compare-and-swap
    /// discipline. Returns `Ok(false)` when a concurrent writer's valid
    /// document won the race (ours was discarded).
    fn persist(&self, key: CacheKey, response: &OptimizeResponse) -> Result<bool, ServiceError> {
        self.with_retries("create-dir", &self.dir, || {
            self.backend.create_dir_all(&self.dir)
        })?;
        let path = self.path_for(key);
        match self.peek(key, &path) {
            Incumbent::Valid => {
                // Another process (or an earlier run) already persisted
                // this key. Responses are deterministic, so the bytes
                // on disk equal the bytes we would write: yield.
                self.races_lost.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
            Incumbent::Corrupt => {
                self.quarantine(key, &path)?;
            }
            Incumbent::Absent => {}
        }
        // Unique temp name per process+key: concurrent writers of the
        // same key race only at the rename, which is atomic.
        let tmp = self
            .dir
            .join(format!(".{}.tmp-{}", key.to_hex(), std::process::id()));
        let rendered = render_document(response);
        self.with_retries("write", &tmp, || self.backend.write(&tmp, &rendered))?;
        // Re-peek before publishing: if a valid document landed while
        // we rendered and wrote the temp file, it wins — renaming over
        // it would be harmless (same bytes) but the count should say
        // who actually published.
        if let Incumbent::Valid = self.peek(key, &path) {
            let _ = self.backend.remove_file(&tmp);
            self.races_lost.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        self.with_retries("rename", &path, || self.backend.rename(&tmp, &path))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.evict();
        Ok(true)
    }
}

/// The text of the document the disk tier stores for `response`:
/// `{"schema", "epoch", "response"}`.
pub fn render_document(response: &OptimizeResponse) -> String {
    Json::obj([
        ("schema", Json::Num(WIRE_SCHEMA)),
        ("epoch", Json::Num(ENGINE_EPOCH as f64)),
        ("response", response_to_json(response)),
    ])
    .render()
}

/// Decodes the text of a stored document ([`render_document`]) as a
/// disk hit does: read into a [`Tape`], its schema and engine epoch
/// checked, its response decoded from the tape with no [`Json`] tree
/// built.
///
/// # Errors
///
/// Names what is malformed, missing or from another schema or epoch.
pub fn decode_document(text: &str) -> Result<OptimizeResponse, String> {
    let tape = Tape::parse(text)?;
    let doc = tape.root();
    let schema = doc.get("schema").and_then(JsonView::as_f64);
    if schema != Some(WIRE_SCHEMA) {
        return Err(format!(
            "schema {schema:?} does not match wire schema {WIRE_SCHEMA}"
        ));
    }
    let epoch = doc.get("epoch").and_then(JsonView::as_f64);
    if epoch != Some(ENGINE_EPOCH as f64) {
        return Err(format!(
            "epoch {epoch:?} does not match engine epoch {ENGINE_EPOCH}"
        ));
    }
    let response = doc
        .get("response")
        .ok_or_else(|| "missing key `response`".to_string())?;
    response_from_json(response).map_err(|e| e.to_string())
}

/// Whether a directory entry looks like a live result document:
/// `<32-hex>.json`. Quarantine slots and temp files do not match.
fn is_document_name(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some(stem) = name.strip_suffix(".json") else {
        return false;
    };
    stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit())
}

impl ResultStore {
    /// A store whose memory tier holds at most `capacity` responses,
    /// optionally backed by `<disk_root>/optimize/` on the real
    /// filesystem with the default failure policy.
    pub fn new(capacity: usize, disk_root: Option<PathBuf>) -> ResultStore {
        ResultStore::with_backend(
            capacity,
            disk_root,
            Arc::new(OsBackend),
            DiskOptions::default(),
        )
    }

    /// A store with an explicit storage backend and failure policy —
    /// the constructor fault-injection tests use, and the one
    /// [`crate::serve`] builds from its config.
    ///
    /// If the disk directory cannot be created even with retries, the
    /// tier starts [`DiskHealth::Degraded`] (memory-only) rather than
    /// failing construction.
    pub fn with_backend(
        capacity: usize,
        disk_root: Option<PathBuf>,
        backend: Arc<dyn StoreBackend>,
        options: DiskOptions,
    ) -> ResultStore {
        let disk = disk_root.map(|root| {
            let tier = DiskTier {
                dir: root.join(STORE_NAMESPACE),
                backend,
                options,
                degraded: AtomicBool::new(false),
                hits: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                races_lost: AtomicU64::new(0),
            };
            match tier.with_retries("create-dir", &tier.dir, || {
                tier.backend.create_dir_all(&tier.dir)
            }) {
                Ok(()) => tier.sweep_temps(),
                Err(_) => tier.degrade(),
            }
            Arc::new(tier)
        });
        ResultStore {
            memory: KeyedCache::with_capacity(capacity),
            disk,
        }
    }

    /// The on-disk path a key persists to, if a disk tier is attached.
    pub fn path_for(&self, key: CacheKey) -> Option<PathBuf> {
        self.disk.as_deref().map(|tier| tier.path_for(key))
    }

    /// Current health of the disk tier.
    pub fn disk_health(&self) -> DiskHealth {
        match self.disk.as_deref() {
            None => DiskHealth::Disabled,
            Some(tier) if tier.is_degraded() => DiskHealth::Degraded,
            Some(_) => DiskHealth::Healthy,
        }
    }

    /// Looks `key` up, memory tier first, then disk. A disk hit is
    /// decoded, promoted into memory, and counted.
    ///
    /// A corrupt document is quarantined and reported as a miss so the
    /// caller recomputes; a disk that keeps failing degrades the tier
    /// to memory-only (also a miss).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transient`] when the disk keeps failing past the
    /// retry budget and [`DiskOptions::degrade_on_failure`] is off.
    pub fn get(
        &self,
        key: CacheKey,
    ) -> Result<Option<(Arc<OptimizeResponse>, ResultSource)>, ServiceError> {
        if let Some(hit) = self.memory.get(&key) {
            return Ok(Some((hit, ResultSource::MemoryCache)));
        }
        let Some(tier) = self.disk.as_deref() else {
            return Ok(None);
        };
        if tier.is_degraded() {
            return Ok(None);
        }
        let path = tier.path_for(key);
        if !tier.backend.exists(&path) {
            return Ok(None);
        }
        let text = match tier.with_retries("read", &path, || tier.backend.read_to_string(&path)) {
            Ok(text) => text,
            Err(e) => {
                if tier.options.degrade_on_failure {
                    tier.degrade();
                    return Ok(None);
                }
                return Err(e);
            }
        };
        match tier.decode(&text, key, &path) {
            Ok(response) => {
                let response = Arc::new(response);
                self.memory.insert(key, Arc::clone(&response));
                tier.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some((response, ResultSource::DiskCache)))
            }
            Err(_) => {
                // Corrupt document: move it aside and report a miss so
                // the caller recomputes and rewrites a clean one.
                tier.quarantine(key, &path)?;
                Ok(None)
            }
        }
    }

    /// Stores `response` under `key` in both tiers: disk first (through
    /// the compare-and-swap path), then memory.
    ///
    /// A disk that keeps failing degrades the tier to memory-only; the
    /// memory insert still happens, so the caller's answer is cached
    /// either way.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Transient`] when the disk keeps failing past the
    /// retry budget and [`DiskOptions::degrade_on_failure`] is off.
    pub fn put(&self, key: CacheKey, response: Arc<OptimizeResponse>) -> Result<(), ServiceError> {
        if let Some(tier) = self.disk.as_deref() {
            if !tier.is_degraded() {
                match tier.persist(key, &response) {
                    Ok(_) => {}
                    Err(e) => {
                        if !tier.options.degrade_on_failure {
                            return Err(e);
                        }
                        tier.degrade();
                    }
                }
            }
        }
        self.memory.insert(key, response);
        Ok(())
    }

    /// Counter snapshot across both tiers.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            memory: self.memory.stats(),
            disk_health: self.disk_health(),
            ..StoreStats::default()
        };
        if let Some(tier) = self.disk.as_deref() {
            stats.disk_hits = tier.hits.load(Ordering::Relaxed);
            stats.disk_writes = tier.writes.load(Ordering::Relaxed);
            stats.disk_retries = tier.retries.load(Ordering::Relaxed);
            stats.quarantined = tier.quarantined.load(Ordering::Relaxed);
            stats.evicted = tier.evicted.load(Ordering::Relaxed);
            stats.write_races_lost = tier.races_lost.load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_names_are_strict() {
        assert!(is_document_name(Path::new(
            "/x/0123456789abcdef0123456789abcdef.json"
        )));
        assert!(!is_document_name(Path::new(
            "/x/0123456789abcdef0123456789abcdef.quarantine.1"
        )));
        assert!(!is_document_name(Path::new(
            "/x/.0123456789abcdef0123456789abcdef.tmp-42"
        )));
        assert!(!is_document_name(Path::new("/x/short.json")));
        assert!(!is_document_name(Path::new(
            "/x/zzzz56789abcdef0123456789abcdef0.json"
        )));
    }
}
