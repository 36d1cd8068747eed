//! Acceptance tests for the optimization service: key stability and
//! collision-freedom across a scenario grid, warm-equals-cold
//! bit-identity under concurrent clients, and disk persistence across
//! service restarts.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use coolserved::json::Json;
use coolserved::wire::{request_from_json, request_to_json, response_to_json};
use coolserved::{serve, JobStatus, ResultSource, ServiceConfig};
use postplace::{
    CacheKey, Flow, FlowConfig, OptimizeOutcome, OptimizeRequest, OptimizeResponse, Strategy,
    WorkloadSpec,
};

fn base() -> FlowConfig {
    FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast()
}

/// A 64-request grid: 4 workloads × 2 meshes × 8 goals.
fn scenario_grid() -> Vec<OptimizeRequest> {
    let workloads = [
        WorkloadSpec::clustered_hotspot(),
        WorkloadSpec::checkerboard(),
        WorkloadSpec {
            active: WorkloadSpec::clustered_hotspot().active,
            toggle_probability: 0.75,
        },
        WorkloadSpec {
            active: WorkloadSpec::checkerboard().active,
            toggle_probability: 0.125,
        },
    ];
    let meshes = [(12, 12), (16, 16)];
    let goals: [&dyn Fn(postplace::OptimizeRequestBuilder) -> postplace::OptimizeRequestBuilder;
        8] = [
        &|b| b.strategy(Strategy::None),
        &|b| {
            b.strategy(Strategy::UniformSlack {
                area_overhead: 0.08,
            })
        },
        &|b| {
            b.strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
        },
        &|b| b.strategy(Strategy::EmptyRowInsertion { rows: 4 }),
        &|b| {
            b.strategy(Strategy::HotspotWrapper {
                area_overhead: 0.16,
            })
        },
        &|b| b.transform("eri:4"),
        &|b| b.budget(0.16),
        &|b| b.rows_for_target(5.0, 8),
    ];
    let mut requests = Vec::new();
    for workload in &workloads {
        for &(nx, ny) in &meshes {
            for goal in &goals {
                let builder = OptimizeRequest::builder()
                    .workload(workload.clone())
                    .mesh(nx, ny);
                requests.push(goal(builder).build().unwrap());
            }
        }
    }
    requests
}

/// A scratch directory unique to this test process, cleaned up by the
/// caller.
fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coolserved-test-{label}-{}", std::process::id()))
}

#[test]
fn cache_keys_are_stable_and_collision_free_across_the_grid() {
    let base = base();
    let requests = scenario_grid();
    assert_eq!(requests.len(), 64);

    // One flow per resolved config, exactly as the service builds them.
    let mut flows: HashMap<u64, Flow> = HashMap::new();
    let mut keys: HashMap<CacheKey, usize> = HashMap::new();
    for (i, request) in requests.iter().enumerate() {
        let resolved = request.resolve_config(&base);
        let fp = postplace::config_fingerprint(&resolved);
        let flow = flows
            .entry(fp)
            .or_insert_with(|| Flow::new(resolved).unwrap());

        let key = flow.content_key(request).unwrap();
        // Deterministic: recomputing yields the same key, and the key
        // survives a trip through the wire codec (the request a second
        // process would decode hashes identically).
        assert_eq!(flow.content_key(request).unwrap(), key);
        let rendered = request_to_json(request).render();
        let decoded = request_from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(&decoded, request, "request must survive the wire");
        assert_eq!(
            flow.content_key(&decoded).unwrap(),
            key,
            "a wire round-trip must not move the cache key"
        );
        // Collision-free: 64 distinct scenarios, 64 distinct keys.
        if let Some(prev) = keys.insert(key, i) {
            panic!("requests {prev} and {i} collide on {key}");
        }
    }
    assert_eq!(keys.len(), 64);
}

fn assert_same_response(a: &OptimizeResponse, b: &OptimizeResponse) {
    assert_eq!(a.key, b.key);
    // Bit-identity of the full payload, checked through the canonical
    // rendering (which is itself bit-exact for every finite f64).
    assert_eq!(
        response_to_json(a).render(),
        response_to_json(b).render(),
        "cache must return the cold solve bit-for-bit"
    );
}

#[test]
fn concurrent_clients_get_bit_identical_warm_answers() {
    let overheads = [0.08, 0.12, 0.16, 0.20];
    let requests: Vec<OptimizeRequest> = overheads
        .iter()
        .map(|&area_overhead| {
            OptimizeRequest::builder()
                .workload(WorkloadSpec::clustered_hotspot())
                .mesh(16, 16)
                .strategy(Strategy::UniformSlack { area_overhead })
                .build()
                .unwrap()
        })
        .collect();

    let config = ServiceConfig::new(base()).workers(3).cache_capacity(64);
    let (records, stats) = serve(config, |service| {
        // Four client threads submit the same four requests each, so
        // every request is solved at most a few times cold and the
        // rest must come from cache.
        let records: Vec<_> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let ids: Vec<_> =
                            requests.iter().map(|r| service.submit(r.clone())).collect();
                        ids.into_iter()
                            .map(|id| service.wait(id).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        (records, service.stats())
    });

    assert_eq!(records.len(), 16);
    // Group by key: every record of a key must carry the identical
    // response, whatever its source.
    let mut by_key: HashMap<CacheKey, Vec<&Arc<OptimizeResponse>>> = HashMap::new();
    for record in &records {
        by_key.entry(record.key).or_default().push(&record.response);
    }
    assert_eq!(by_key.len(), 4, "four distinct requests, four keys");
    for responses in by_key.values() {
        for other in &responses[1..] {
            assert_same_response(responses[0], other);
        }
    }
    // The cache must actually have fired: 16 jobs, exactly one cold
    // solve per distinct key — single-flight dedup makes concurrent
    // same-key races share one solve instead of double-computing.
    assert_eq!(stats.submitted, 16);
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.cold_solves, 4,
        "single-flight must hold cold solves to one per key"
    );
    assert!(stats.store.memory.hits > 0, "memory tier never hit");
    let sources: HashSet<ResultSource> = records.iter().map(|r| r.source).collect();
    assert!(sources.contains(&ResultSource::MemoryCache));
}

#[test]
fn solver_thread_overrides_reuse_the_result_cache() {
    let request = |area_overhead, threads| {
        let mut request = OptimizeRequest::builder()
            .workload(WorkloadSpec::clustered_hotspot())
            .mesh(16, 16)
            .strategy(Strategy::UniformSlack { area_overhead })
            .build()
            .unwrap();
        request.solver_threads = threads;
        request
    };
    let plain = request(0.12, None);
    let threaded = request(0.12, Some(2));

    let config = ServiceConfig::new(base()).workers(1).solver_threads(1);
    let (a, b, warm_stats) = serve(config.clone(), |service| {
        let first = service.submit(plain.clone());
        let a = service.wait(first).unwrap();
        let second = service.submit(threaded.clone());
        let b = service.wait(second).unwrap();
        (a, b, service.stats())
    });
    // Thread count is a latency knob: the key and the answer are the
    // same, so the override is served warm from the result store,
    // which a hit answers without building a flow.
    assert_eq!(a.key, b.key, "thread count must not move the cache key");
    assert_same_response(&a.response, &b.response);
    assert_eq!(warm_stats.cold_solves, 1);
    assert_eq!(b.source, ResultSource::MemoryCache);
    assert_eq!(warm_stats.flows_built, 1, "a store hit builds no flow");

    // A flow bakes its thread count into the factorization, so two
    // requests that both miss must not share one across thread counts.
    let (_, cold_stats) = serve(config, |service| {
        for request in [request(0.08, None), request(0.16, Some(2))] {
            let id = service.submit(request);
            service.wait(id).unwrap();
        }
        ((), service.stats())
    });
    assert_eq!(cold_stats.cold_solves, 2);
    assert_eq!(
        cold_stats.flows_built, 2,
        "distinct thread counts need distinct flows"
    );
}

#[test]
fn a_restarted_service_answers_without_building_a_flow() {
    let root = scratch_dir("restart-no-flow");
    let _ = std::fs::remove_dir_all(&root);
    let request = OptimizeRequest::builder()
        .workload(WorkloadSpec::clustered_hotspot())
        .mesh(16, 16)
        .strategy(Strategy::HotspotWrapper {
            area_overhead: 0.16,
        })
        .build()
        .unwrap();
    let config = ServiceConfig::new(base()).workers(1).disk_root(&root);
    let submit = |config: ServiceConfig| {
        serve(config, |service| {
            let id = service.submit(request.clone());
            (service.wait(id).unwrap(), service.stats())
        })
    };
    let (cold, _) = submit(config.clone());
    assert_eq!(cold.source, ResultSource::ColdSolve);

    let (warm, stats) = submit(config);
    assert_eq!(warm.source, ResultSource::DiskCache);
    assert_same_response(&cold.response, &warm.response);
    assert_eq!(stats.flows_built, 0, "a disk hit must not build a flow");
    assert_eq!(stats.cold_solves, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn results_persist_across_service_restarts() {
    let root = scratch_dir("persist");
    let _ = std::fs::remove_dir_all(&root);

    let request = OptimizeRequest::builder()
        .workload(WorkloadSpec::clustered_hotspot())
        .mesh(16, 16)
        .strategy(Strategy::EmptyRowInsertion { rows: 4 })
        .tag("persisted")
        .build()
        .unwrap();

    // First service: cold solve, written to disk.
    let config = ServiceConfig::new(base()).workers(1).disk_root(&root);
    let (first, first_stats) = serve(config.clone(), |service| {
        let id = service.submit(request.clone());
        assert!(matches!(
            service.status(id).unwrap(),
            JobStatus::Queued | JobStatus::Running | JobStatus::Done
        ));
        (service.wait(id).unwrap(), service.stats())
    });
    assert_eq!(first.source, ResultSource::ColdSolve);
    assert_eq!(first_stats.store.disk_writes, 1);
    let on_disk = root
        .join(coolserved::STORE_NAMESPACE)
        .join(format!("{}.json", first.key.to_hex()));
    assert!(on_disk.exists(), "no document at {}", on_disk.display());

    // Second service, fresh memory: answered from disk, zero solves.
    let (second, second_stats) = serve(config, |service| {
        let id = service.submit(request.clone());
        (service.wait(id).unwrap(), service.stats())
    });
    assert_eq!(second.source, ResultSource::DiskCache);
    assert_eq!(second_stats.cold_solves, 0);
    assert_eq!(second_stats.store.disk_hits, 1);
    assert_same_response(&first.response, &second.response);

    // A warm answer is also shaped right: ERI strategy yields a report.
    match &second.response.outcome {
        OptimizeOutcome::Report(report) => {
            assert_eq!(report.strategy, Strategy::EmptyRowInsertion { rows: 4 });
        }
        other => panic!("eri strategy must yield a report, got {other:?}"),
    }

    std::fs::remove_dir_all(&root).unwrap();
}

/// The `pareto --fast` example's budget grid.
const PARETO_BUDGETS: [f64; 8] = [0.04, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35];

/// Golden optimizer outcomes: the rendered response bytes of a 40×40
/// budget search, a row-count search and the `pareto --fast` frontier,
/// pinned by their `StableHasher` digest. Screening estimates
/// (`estimated_reduction_pct`), evaluation and screening counts and the
/// exact-verified reports all land in these bytes, so any change to how
/// candidates are priced or verified shows up here.
#[test]
fn optimizer_outcomes_match_their_golden_digests() {
    let fast = base();
    let (nx, ny) = (fast.thermal.grid.nx, fast.thermal.grid.ny);
    let request = || OptimizeRequest::builder().workload(WorkloadSpec::clustered_hotspot());
    let cases = [
        (
            "budget-40x40",
            request().mesh(40, 40).budget(0.16).build().unwrap(),
            "82b2808599c2081078b6267839520970",
        ),
        (
            "rows-for-target",
            request()
                .mesh(nx, ny)
                .rows_for_target(5.0, 8)
                .build()
                .unwrap(),
            "b22c9cf035e1c12b7434536e9d4603fa",
        ),
        (
            "pareto-fast",
            request()
                .mesh(nx, ny)
                .frontier(PARETO_BUDGETS)
                .build()
                .unwrap(),
            "fad1f4b848b96b6d57fa550162340c3f",
        ),
    ];

    let config = ServiceConfig::new(fast).workers(1);
    let digests: Vec<String> = serve(config, |service| {
        cases
            .iter()
            .map(|(label, request, _)| {
                let id = service.submit(request.clone());
                let record = service.wait(id).unwrap_or_else(|e| panic!("{label}: {e}"));
                let rendered = response_to_json(&record.response).render();
                let mut h = postplace::StableHasher::new();
                h.write_str(&rendered);
                format!("{:032x}", h.finish())
            })
            .collect()
    });
    let expected: Vec<&str> = cases.iter().map(|(_, _, digest)| *digest).collect();
    assert_eq!(
        digests,
        expected,
        "optimizer outcomes moved (budget-40x40, rows-for-target, pareto-fast; epoch {}): \
         bump ENGINE_EPOCH if this moved on purpose",
        postplace::ENGINE_EPOCH
    );
}

#[test]
fn unknown_jobs_and_failures_surface_typed_errors() {
    let config = ServiceConfig::new(base()).workers(1);
    serve(config, |service| {
        let bogus = postplace::JobId::new(9_999);
        assert!(matches!(
            service.status(bogus),
            Err(coolserved::ServiceError::UnknownJob { id }) if id == bogus
        ));

        // The builder rejects unparseable transform ids up front...
        let err = OptimizeRequest::builder()
            .workload(WorkloadSpec::clustered_hotspot())
            .mesh(16, 16)
            .transform("warp-drive:9")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("warp-drive"), "{err}");

        // ...so a bad id smuggled past it (a hand-built request, e.g.
        // deserialized from a foreign client) fails the job, not the
        // service.
        let bad = OptimizeRequest {
            workload: WorkloadSpec::clustered_hotspot(),
            mesh: (16, 16),
            goal: postplace::OptimizeGoal::Transform {
                id: "warp-drive:9".to_string(),
            },
            tag: None,
            solver_threads: None,
            deadline_ms: None,
            solver: None,
        };
        let id = service.submit(bad);
        let err = service.wait(id).unwrap_err();
        assert!(
            matches!(&err, coolserved::ServiceError::Job { .. }),
            "expected a job error, got {err}"
        );
        // The structured kind crosses the job table: a flow failure is
        // permanent, not retryable.
        assert_eq!(err.class(), coolserved::ErrorClass::Flow);
        assert!(!err.is_retryable());
        assert_eq!(service.status(id).unwrap(), JobStatus::Failed);

        // The service keeps serving afterwards.
        let good = OptimizeRequest::builder()
            .workload(WorkloadSpec::clustered_hotspot())
            .mesh(16, 16)
            .strategy(Strategy::None)
            .build()
            .unwrap();
        let id = service.submit(good);
        service.wait(id).unwrap();
    });
}
