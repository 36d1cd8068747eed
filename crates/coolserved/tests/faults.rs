//! Fault-matrix acceptance tests: every scheduled fault in the
//! injection grid must leave the service returning either a
//! bit-identical response to the no-fault run or a typed
//! retryable/timeout error — never a panic, a torn document served, or
//! a duplicate solve for a deduplicated key.
//!
//! The grid runs on [`FaultPlan`], the deterministic fault-injecting
//! [`coolserved::StoreBackend`]: failures fire by schedule, retry
//! backoff costs virtual time only, and deadline hits come from
//! virtual-clock jumps — so every outcome below is a pure function of
//! the schedule, not of machine load.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use coolserved::json::Json;
use coolserved::wire::response_to_json;
use coolserved::{
    serve, DiskHealth, DiskOptions, ErrorClass, FaultOp, FaultPlan, JobRecord, ResultStore,
    RetryPolicy, ServiceConfig, ServiceError, ServiceStats,
};
use postplace::{
    CacheKey, FlowConfig, OptimizeRequest, OptimizeResponse, Strategy, WorkloadSpec, ENGINE_EPOCH,
};

fn base() -> FlowConfig {
    FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast()
}

fn request() -> OptimizeRequest {
    OptimizeRequest::builder()
        .workload(WorkloadSpec::clustered_hotspot())
        .mesh(12, 12)
        .strategy(Strategy::UniformSlack {
            area_overhead: 0.12,
        })
        .build()
        .unwrap()
}

/// A scratch directory unique to this test process and label.
fn scratch_dir(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("coolserved-faults-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The no-fault answer, solved once and shared by every case: the
/// response and its canonical byte rendering.
fn baseline() -> &'static (Arc<OptimizeResponse>, String) {
    static BASELINE: OnceLock<(Arc<OptimizeResponse>, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let config = ServiceConfig::new(base()).workers(1);
        let record = serve(config, |service| {
            let id = service.submit(request());
            service.wait(id).unwrap()
        });
        let bytes = response_to_json(&record.response).render();
        (record.response, bytes)
    })
}

fn assert_baseline_bytes(record: &JobRecord) {
    assert_eq!(
        response_to_json(&record.response).render(),
        baseline().1,
        "response must be bit-identical to the no-fault run"
    );
}

/// Runs a one-worker service against `root` through `plan` and returns
/// the job's outcome plus the service counters.
fn run_service(
    root: &Path,
    plan: Arc<FaultPlan>,
    req: OptimizeRequest,
) -> (Result<JobRecord, ServiceError>, ServiceStats) {
    let config = ServiceConfig::new(base())
        .workers(1)
        .disk_root(root)
        .backend(plan);
    serve(config, |service| {
        let id = service.submit(req);
        (service.wait(id), service.stats())
    })
}

/// Seeds `root` with a cleanly persisted document for [`request`] and
/// returns its record (for the key and on-disk path).
fn seed_root(root: &Path) -> JobRecord {
    let config = ServiceConfig::new(base()).workers(1).disk_root(root);
    let record = serve(config, |service| {
        let id = service.submit(request());
        service.wait(id).unwrap()
    });
    assert_baseline_bytes(&record);
    record
}

fn document_path(root: &Path, key: CacheKey) -> PathBuf {
    root.join(coolserved::STORE_NAMESPACE)
        .join(format!("{}.json", key.to_hex()))
}

fn quarantine_path(root: &Path, key: CacheKey, n: u64) -> PathBuf {
    root.join(coolserved::STORE_NAMESPACE)
        .join(format!("{}.quarantine.{n}", key.to_hex()))
}

/// Entries under `<root>/optimize/` whose names contain `fragment`.
fn files_matching(root: &Path, fragment: &str) -> Vec<PathBuf> {
    let dir = root.join(coolserved::STORE_NAMESPACE);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(fragment))
        })
        .collect()
}

#[test]
fn fault_matrix_write_and_rename_faults_keep_answers_bit_identical() {
    struct Case {
        label: &'static str,
        plan: fn() -> FaultPlan,
        expect_health: DiskHealth,
        expect_disk_writes: u64,
    }
    let cases = [
        Case {
            label: "write-fails-once-then-retries",
            plan: || FaultPlan::new().with_fail(FaultOp::Write, 1),
            expect_health: DiskHealth::Healthy,
            expect_disk_writes: 1,
        },
        Case {
            label: "write-burst-exhausts-retries-and-degrades",
            plan: || FaultPlan::new().with_burst(FaultOp::Write, 1, 3),
            expect_health: DiskHealth::Degraded,
            expect_disk_writes: 0,
        },
        Case {
            label: "rename-fails-once-then-retries",
            plan: || FaultPlan::new().with_fail(FaultOp::Rename, 1),
            expect_health: DiskHealth::Healthy,
            expect_disk_writes: 1,
        },
        Case {
            label: "disk-unavailable-at-startup-degrades-to-memory",
            plan: || FaultPlan::new().with_burst(FaultOp::CreateDir, 1, 3),
            expect_health: DiskHealth::Degraded,
            expect_disk_writes: 0,
        },
    ];
    for case in &cases {
        let root = scratch_dir(case.label);
        let plan = Arc::new((case.plan)());
        let (outcome, stats) = run_service(&root, Arc::clone(&plan), request());
        let record = outcome.unwrap_or_else(|e| panic!("{}: job failed: {e}", case.label));
        assert_baseline_bytes(&record);
        assert!(
            !plan.fired().is_empty(),
            "{}: the schedule never fired",
            case.label
        );
        assert_eq!(
            stats.store.disk_health, case.expect_health,
            "{}: wrong disk health",
            case.label
        );
        assert_eq!(
            stats.store.disk_writes, case.expect_disk_writes,
            "{}: wrong write count",
            case.label
        );
        if case.expect_disk_writes > 0 {
            let doc = document_path(&root, record.key);
            assert!(doc.exists(), "{}: no document at {:?}", case.label, doc);
            assert!(
                stats.store.disk_retries >= 1,
                "{}: the retry path never ran",
                case.label
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn corrupt_documents_are_quarantined_and_recomputed() {
    let root = scratch_dir("quarantine");
    let seeded = seed_root(&root);

    // Second service: the (valid) document comes back garbled from the
    // disk. The store must quarantine it and recompute cleanly.
    let plan = Arc::new(FaultPlan::new().with_corrupt_read(1));
    let (outcome, stats) = run_service(&root, Arc::clone(&plan), request());
    let record = outcome.expect("a corrupt document must recompute, not fail");
    assert_baseline_bytes(&record);
    assert_eq!(stats.store.quarantined, 1);
    assert_eq!(stats.cold_solves, 1, "the key must recompute");
    assert_eq!(stats.store.disk_writes, 1, "and rewrite a clean document");
    assert_eq!(stats.store.disk_health, DiskHealth::Healthy);
    let archived = quarantine_path(&root, seeded.key, 1);
    assert!(
        archived.exists(),
        "quarantined bytes must be archived at {archived:?}"
    );
    // The rewritten document is readable again by a clean third run.
    let (outcome, stats) = run_service(&root, Arc::new(FaultPlan::new()), request());
    assert_baseline_bytes(&outcome.unwrap());
    assert_eq!(stats.cold_solves, 0);
    assert_eq!(stats.store.disk_hits, 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// Replaces the value of `field` in a parsed document (a top-level
/// member, or one inside `response`).
fn set_field(doc: &mut Json, path: &[&str], value: Json) {
    let Json::Obj(fields) = doc else {
        panic!("documents are objects");
    };
    let (name, rest) = path.split_first().unwrap();
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("document has no `{name}`"));
    if rest.is_empty() {
        *slot = value;
    } else {
        set_field(slot, rest, value);
    }
}

#[test]
fn stale_and_misfiled_documents_are_quarantined_and_recomputed() {
    struct Case {
        label: &'static str,
        path: &'static [&'static str],
        value: fn() -> Json,
    }
    let cases = [
        Case {
            label: "foreign-epoch",
            path: &["epoch"],
            value: || Json::Num((ENGINE_EPOCH + 1) as f64),
        },
        Case {
            label: "response-key-differs-from-file-name",
            path: &["response", "key"],
            value: || Json::Str(fabricated_key(9).to_hex()),
        },
    ];
    for case in &cases {
        let root = scratch_dir(case.label);
        let seeded = seed_root(&root);
        let doc_path = document_path(&root, seeded.key);
        let mut doc = Json::parse(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
        set_field(&mut doc, case.path, (case.value)());
        std::fs::write(&doc_path, doc.render()).unwrap();

        let (outcome, stats) = run_service(&root, Arc::new(FaultPlan::new()), request());
        let record =
            outcome.unwrap_or_else(|e| panic!("{}: must recompute, not fail: {e}", case.label));
        assert_baseline_bytes(&record);
        assert_eq!(stats.store.quarantined, 1, "{}", case.label);
        assert_eq!(
            stats.cold_solves, 1,
            "{}: the key must recompute",
            case.label
        );
        assert_eq!(stats.store.disk_writes, 1, "{}: and rewrite it", case.label);
        assert!(
            quarantine_path(&root, seeded.key, 1).exists(),
            "{}: the rejected document must be archived",
            case.label
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn a_hostile_nesting_document_is_quarantined_and_recomputed() {
    // 64 KiB of `[` under a live key's file name: read on a worker's
    // stack, it must be a decode error, not a stack overflow that aborts
    // the process.
    let root = scratch_dir("hostile-nesting");
    let seeded = seed_root(&root);
    std::fs::write(document_path(&root, seeded.key), "[".repeat(64 * 1024)).unwrap();

    let (outcome, stats) = run_service(&root, Arc::new(FaultPlan::new()), request());
    let record = outcome.expect("a hostile document must recompute, not fail");
    assert_baseline_bytes(&record);
    assert_eq!(stats.store.quarantined, 1);
    assert_eq!(stats.cold_solves, 1, "the key must recompute");
    assert_eq!(stats.store.disk_writes, 1, "and rewrite a clean document");
    assert!(quarantine_path(&root, seeded.key, 1).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn eio_bursts_within_the_retry_budget_still_answer_warm() {
    let root = scratch_dir("read-burst-warm");
    seed_root(&root);
    // Two read failures, then success: inside the 3-attempt budget.
    let plan = Arc::new(FaultPlan::new().with_burst(FaultOp::Read, 1, 2));
    let (outcome, stats) = run_service(&root, plan, request());
    assert_baseline_bytes(&outcome.unwrap());
    assert_eq!(stats.cold_solves, 0, "the answer must come from disk");
    assert_eq!(stats.store.disk_hits, 1);
    assert!(stats.store.disk_retries >= 2);
    assert_eq!(stats.store.disk_health, DiskHealth::Healthy);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn eio_bursts_past_the_retry_budget_degrade_and_recompute() {
    let root = scratch_dir("read-burst-degrade");
    seed_root(&root);
    let plan = Arc::new(FaultPlan::new().with_burst(FaultOp::Read, 1, 3));
    let (outcome, stats) = run_service(&root, plan, request());
    assert_baseline_bytes(&outcome.unwrap());
    assert_eq!(stats.cold_solves, 1, "degraded tier means a recompute");
    assert_eq!(stats.store.disk_health, DiskHealth::Degraded);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_crash_between_temp_write_and_rename_never_serves_torn_state() {
    let root = scratch_dir("crash-restart");
    // "Crash" during publish: every rename attempt fails, so the temp
    // file is stranded exactly as a killed process would leave it.
    let plan = Arc::new(FaultPlan::new().with_burst(FaultOp::Rename, 1, 3));
    let (outcome, stats) = run_service(&root, plan, request());
    let record = outcome.expect("a stranded publish must not fail the job");
    assert_baseline_bytes(&record);
    assert_eq!(stats.store.disk_writes, 0);
    assert_eq!(stats.store.disk_health, DiskHealth::Degraded);
    assert!(
        !files_matching(&root, ".tmp-").is_empty(),
        "the crash must leave a temp file behind"
    );
    assert!(!document_path(&root, record.key).exists());

    // Restart against the same root: the sweep clears the debris and
    // the interrupted key recomputes cleanly.
    let (outcome, stats) = run_service(&root, Arc::new(FaultPlan::new()), request());
    let record = outcome.expect("restart must recover");
    assert_baseline_bytes(&record);
    assert_eq!(stats.cold_solves, 1);
    assert_eq!(stats.store.disk_writes, 1);
    assert!(
        files_matching(&root, ".tmp-").is_empty(),
        "restart must sweep stranded temp files"
    );
    assert!(document_path(&root, record.key).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_torn_write_is_never_served_after_restart() {
    let root = scratch_dir("torn-restart");
    // The write reports success but only 60 bytes land: a torn document
    // gets published. The writing run itself answers from memory.
    let plan = Arc::new(FaultPlan::new().with_torn_write(1, 60));
    let (outcome, _) = run_service(&root, plan, request());
    let record = outcome.expect("the writing run answers from memory");
    assert_baseline_bytes(&record);

    // Restart: the torn bytes must never decode into an answer — they
    // are quarantined and the key recomputes to the same bits.
    let (outcome, stats) = run_service(&root, Arc::new(FaultPlan::new()), request());
    let restarted = outcome.expect("a torn document must recompute, not fail");
    assert_baseline_bytes(&restarted);
    assert_eq!(stats.store.quarantined, 1);
    assert_eq!(stats.cold_solves, 1);
    assert!(quarantine_path(&root, record.key, 1).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn blown_deadlines_fail_with_a_typed_retryable_timeout() {
    let root = scratch_dir("deadline-timeout");
    let seeded = seed_root(&root);
    // Tear the document by hand so the lookup falls through to a
    // recompute...
    std::fs::write(document_path(&root, seeded.key), "{\"schema\":").unwrap();
    // ...and make the disk read slow enough (on the virtual clock) to
    // blow a 100 ms budget before the recompute may start.
    let plan = Arc::new(FaultPlan::new().with_slow(FaultOp::Read, 1, 500));
    let mut req = request();
    req.deadline_ms = Some(100);
    let (outcome, stats) = run_service(&root, plan, req);
    let err = outcome.expect_err("the deadline must fire");
    assert_eq!(err.class(), ErrorClass::Timeout);
    assert!(err.is_retryable(), "a timeout is worth retrying");
    assert!(
        matches!(err, ServiceError::Job { .. }),
        "the class must cross the job table, got {err}"
    );
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.cold_solves, 0, "no solve may start past the deadline");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_cache_hit_is_returned_even_past_the_deadline() {
    let root = scratch_dir("deadline-hit");
    seed_root(&root);
    // The same slow disk, but the document is valid: the answer is in
    // hand, so the job succeeds despite the blown budget.
    let plan = Arc::new(FaultPlan::new().with_slow(FaultOp::Read, 1, 500));
    let mut req = request();
    req.deadline_ms = Some(100);
    let (outcome, stats) = run_service(&root, plan, req);
    assert_baseline_bytes(&outcome.expect("a hit in hand beats a deadline"));
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.store.disk_hits, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_deadline_that_passes_while_another_job_builds_the_flow_times_out() {
    let root = scratch_dir("flow-wait");
    let plan = Arc::new(FaultPlan::new());
    // The paper-scale design: its flow takes a debug build far longer to
    // make than the handshake below takes to run.
    let config = ServiceConfig::new(FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()))
        .workers(2)
        .disk_root(&root)
        .backend(plan.clone() as Arc<dyn coolserved::StoreBackend>);
    // The same flow as `request()`, another answer, 100 ms to get it.
    let mut late = OptimizeRequest::builder()
        .workload(WorkloadSpec::clustered_hotspot())
        .mesh(12, 12)
        .strategy(Strategy::UniformSlack { area_overhead: 0.2 })
        .build()
        .unwrap();
    late.deadline_ms = Some(100);
    // The handshake runs on the service's own counters: the leader's
    // flow is in flight from its miss until it lands, and the late job
    // counts its wait before blocking. The deadline then passes on the
    // virtual clock, which nothing else moves.
    let (lead, late, stats) = serve(config, |service| {
        let lead = service.submit(request());
        while service.stats().flows.misses == 0 {
            std::thread::yield_now();
        }
        let late = service.submit(late);
        while service.stats().flows.waits == 0 {
            assert_eq!(
                service.stats().flows_built,
                0,
                "the flow landed before the late job found it in flight"
            );
            std::thread::yield_now();
        }
        plan.advance_clock_ms(1_000);
        (service.wait(lead), service.wait(late), service.stats())
    });
    assert_eq!(
        lead.expect("the leader answers").source,
        coolserved::ResultSource::ColdSolve
    );
    let err = late.expect_err("the late job's deadline must end its wait");
    assert_eq!(err.class(), ErrorClass::Timeout);
    assert!(err.is_retryable(), "a timeout is worth retrying");
    assert_eq!(stats.flows_built, 1, "the leader's flow still lands, once");
    assert_eq!(
        (stats.flows.waits, stats.flows.hits),
        (1, 0),
        "the late job gave up waiting instead of taking the flow"
    );
    assert_eq!(stats.cold_solves, 1, "only the leader solves");
    assert_eq!((stats.timeouts, stats.completed), (1, 1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_same_key_submissions_share_one_solve() {
    let root = scratch_dir("dedup");
    // Stall the (real) publish long enough that the other worker
    // demonstrably overlaps: it must miss the store, find the key in
    // flight, and wait instead of solving again.
    let plan = Arc::new(FaultPlan::new().with_stall(FaultOp::Write, 1, 500));
    let config = ServiceConfig::new(base())
        .workers(2)
        .disk_root(&root)
        .backend(plan.clone() as Arc<dyn coolserved::StoreBackend>);
    let (records, stats) = serve(config, |service| {
        let ids: Vec<_> = (0..3).map(|_| service.submit(request())).collect();
        let records: Vec<_> = ids
            .into_iter()
            .map(|id| service.wait(id).unwrap())
            .collect();
        (records, service.stats())
    });
    assert_eq!(records.len(), 3);
    for record in &records {
        assert_baseline_bytes(record);
    }
    assert_eq!(
        stats.cold_solves, 1,
        "a deduplicated key must be solved exactly once"
    );
    assert!(
        stats.dedup_hits >= 1,
        "at least one job must have shared the in-flight solve"
    );
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.failed, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_full_queue_rejects_with_typed_retryable_backpressure() {
    let config = ServiceConfig::new(base()).workers(1).queue_limit(0);
    serve(config, |service| {
        let err = service
            .try_submit(request())
            .expect_err("a zero-length queue rejects everything");
        assert_eq!(err.class(), ErrorClass::Unavailable);
        assert!(err.is_retryable(), "backpressure is worth retrying");
        assert_eq!(service.stats().rejected, 1);
        assert_eq!(service.stats().submitted, 0);
    });
}

// ---- store-level: bounds, CAS, strict mode -------------------------

fn fabricated_key(n: u8) -> CacheKey {
    let mut hex = String::with_capacity(32);
    for _ in 0..30 {
        hex.push('0');
    }
    hex.push_str(&format!("{n:02x}"));
    CacheKey::from_hex(&hex).unwrap()
}

/// The baseline answer re-keyed to `key`: the store only accepts a
/// document whose response answers the key it is filed under.
fn response_for(key: CacheKey) -> Arc<OptimizeResponse> {
    let mut response = (*baseline().0).clone();
    response.key = key;
    Arc::new(response)
}

#[test]
fn the_disk_tier_evicts_oldest_first_past_the_document_bound() {
    let root = scratch_dir("evict-count");
    let plan = Arc::new(FaultPlan::new());
    let store = ResultStore::with_backend(
        8,
        Some(root.clone()),
        plan.clone() as Arc<dyn coolserved::StoreBackend>,
        DiskOptions {
            max_documents: Some(2),
            ..DiskOptions::default()
        },
    );
    let keys = [fabricated_key(1), fabricated_key(2), fabricated_key(3)];
    for &key in &keys {
        store.put(key, response_for(key)).unwrap();
    }
    let stats = store.stats();
    assert_eq!(stats.disk_writes, 3);
    assert_eq!(stats.evicted, 1, "one document past the bound");
    assert!(
        !document_path(&root, keys[0]).exists(),
        "the oldest document must go first"
    );
    assert!(document_path(&root, keys[1]).exists());
    assert!(document_path(&root, keys[2]).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_disk_tier_expires_documents_past_their_ttl() {
    let root = scratch_dir("evict-ttl");
    let plan = Arc::new(FaultPlan::new());
    let store = ResultStore::with_backend(
        8,
        Some(root.clone()),
        plan.clone() as Arc<dyn coolserved::StoreBackend>,
        DiskOptions {
            max_age_ms: Some(5_000),
            ..DiskOptions::default()
        },
    );
    let (old_key, new_key) = (fabricated_key(4), fabricated_key(5));
    store.put(old_key, response_for(old_key)).unwrap();
    plan.advance_clock_ms(10_000);
    store.put(new_key, response_for(new_key)).unwrap();
    let stats = store.stats();
    assert_eq!(stats.evicted, 1);
    assert!(
        !document_path(&root, old_key).exists(),
        "the aged-out document must be gone"
    );
    assert!(document_path(&root, new_key).exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn same_key_writers_in_two_stores_race_safely() {
    let root = scratch_dir("cas");
    let key = fabricated_key(6);
    let response = response_for(key);
    let store_a = ResultStore::with_backend(
        8,
        Some(root.clone()),
        Arc::new(FaultPlan::new()),
        DiskOptions::default(),
    );
    // A second store over the same root — a second process, as far as
    // the disk protocol is concerned.
    let store_b = ResultStore::with_backend(
        8,
        Some(root.clone()),
        Arc::new(FaultPlan::new()),
        DiskOptions::default(),
    );
    store_a.put(key, Arc::clone(&response)).unwrap();
    store_b.put(key, Arc::clone(&response)).unwrap();
    assert_eq!(store_a.stats().disk_writes, 1);
    assert_eq!(
        store_b.stats().disk_writes,
        0,
        "the incumbent document wins the race"
    );
    assert_eq!(store_b.stats().write_races_lost, 1);
    // The loser still reads the winner's bytes back.
    let (read_back, _) = store_b.get(key).unwrap().unwrap();
    assert_eq!(
        response_to_json(&read_back).render(),
        response_to_json(&response).render()
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn strict_mode_surfaces_transient_errors_instead_of_degrading() {
    let root = scratch_dir("strict");
    let seed_plan = Arc::new(FaultPlan::new());
    let seeder =
        ResultStore::with_backend(8, Some(root.clone()), seed_plan, DiskOptions::default());
    let key = fabricated_key(7);
    let response = response_for(key);
    seeder.put(key, Arc::clone(&response)).unwrap();

    let plan = Arc::new(FaultPlan::new().with_fail(FaultOp::Read, 1));
    let strict = ResultStore::with_backend(
        8,
        Some(root.clone()),
        plan,
        DiskOptions {
            retry: RetryPolicy::none(),
            degrade_on_failure: false,
            ..DiskOptions::default()
        },
    );
    let err = strict
        .get(key)
        .expect_err("strict mode must surface the fault");
    assert_eq!(err.class(), ErrorClass::Transient);
    assert!(err.is_retryable());
    assert_eq!(
        strict.disk_health(),
        DiskHealth::Healthy,
        "strict mode must not silently degrade"
    );
    // The disk recovered: the very next call succeeds.
    let (read_back, _) = strict.get(key).unwrap().unwrap();
    assert_eq!(
        response_to_json(&read_back).render(),
        response_to_json(&response).render()
    );
    let _ = std::fs::remove_dir_all(&root);
}
