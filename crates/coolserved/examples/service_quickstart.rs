//! Quickstart for the optimization service: spin up a worker pool with
//! a persistent result cache, submit a mixed batch of typed requests,
//! and show warm answers coming back from cache bit-identical to their
//! cold solves — then restart the service on the same disk root and
//! show it answer the batch from disk without building a flow.
//!
//! ```sh
//! cargo run --release --example service_quickstart
//! ```

use std::process::ExitCode;

use coolserved::{serve, JobRecord, ResultSource, ServiceConfig, ServiceHandle};
use postplace::{FlowConfig, OptimizeRequest, Strategy, WorkloadSpec};

fn requests() -> Vec<OptimizeRequest> {
    let workload = WorkloadSpec::clustered_hotspot();
    vec![
        OptimizeRequest::builder()
            .workload(workload.clone())
            .mesh(16, 16)
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
            .tag("default +16%")
            .build()
            .expect("complete request"),
        OptimizeRequest::builder()
            .workload(workload.clone())
            .mesh(16, 16)
            .strategy(Strategy::EmptyRowInsertion { rows: 6 })
            .tag("eri 6 rows")
            .build()
            .expect("complete request"),
        OptimizeRequest::builder()
            .workload(workload)
            .mesh(16, 16)
            .budget(0.16)
            .tag("best within +16%")
            .build()
            .expect("complete request"),
    ]
}

fn print_record(record: &JobRecord) {
    let reduction = record
        .response
        .report()
        .map(|r| format!("{:.2}% peak-rise reduction", r.reduction_pct()))
        .unwrap_or_else(|| "frontier".to_string());
    println!(
        "  job {} [{}] {} -> {} in {:.0} ms ({})",
        record.id,
        record.request.label(),
        record.key,
        reduction,
        record.wall_ms,
        record.source
    );
}

/// Submits `requests` as one batch, waits for every answer and checks
/// each with `check` (given its position in the batch).
fn pass(
    service: &ServiceHandle<'_>,
    title: &str,
    requests: &[OptimizeRequest],
    check: impl Fn(usize, &JobRecord) -> Result<(), String>,
) -> Result<Vec<JobRecord>, String> {
    // The ids come back immediately while the workers chew through the
    // queue.
    let ids: Vec<_> = requests.iter().map(|r| service.submit(r.clone())).collect();
    println!("\n{title} ({} jobs):", ids.len());
    let mut records = Vec::new();
    for (i, id) in ids.into_iter().enumerate() {
        let record = service
            .wait(id)
            .map_err(|e| format!("job {id} failed: {e}"))?;
        print_record(&record);
        check(i, &record)?;
        records.push(record);
    }
    let stats = service.stats();
    println!(
        "service: {} jobs, {} cold solves, {} memory hits, {} disk hits, {} flows built",
        stats.submitted,
        stats.cold_solves,
        stats.store.memory.hits,
        stats.store.disk_hits,
        stats.flows_built
    );
    Ok(records)
}

/// Every answer must come from one of `tiers` and match its cold solve
/// bit for bit.
fn warm<'a>(
    cold: &'a [JobRecord],
    tiers: &'a [ResultSource],
) -> impl Fn(usize, &JobRecord) -> Result<(), String> + 'a {
    move |i, record| {
        if !tiers.contains(&record.source) {
            return Err(format!("expected a {tiers:?} hit, got {}", record.source));
        }
        let render = |r: &JobRecord| coolserved::wire::response_to_json(&r.response).render();
        if render(record) != render(&cold[i]) {
            return Err("warm answer drifted from the cold solve".to_string());
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    // One service over the scaled-down benchmark; the disk tier lives
    // under the temp directory, starts empty and is removed at the end.
    let cache_root = std::env::temp_dir().join("coolserved-quickstart");
    let _ = std::fs::remove_dir_all(&cache_root);
    let config =
        ServiceConfig::new(FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast())
            .workers(2)
            .cache_capacity(64)
            .disk_root(&cache_root);
    println!("result cache: {}", cache_root.display());

    let requests = requests();
    let run = || {
        let cold = serve(config.clone(), |service| {
            let cold = pass(service, "first pass", &requests, |_, _| Ok(()))?;
            // Resubmit: every answer must now come from a cache tier.
            let tiers = [ResultSource::MemoryCache, ResultSource::DiskCache];
            pass(service, "second pass", &requests, warm(&cold, &tiers))?;
            Ok::<_, String>(cold)
        })?;
        // Restart on the same disk root: the fresh service's memory
        // tier is empty, so every answer must come from disk, and a
        // store hit must not build a flow.
        serve(config, |service| {
            let tiers = [ResultSource::DiskCache];
            pass(service, "restarted service", &requests, warm(&cold, &tiers))?;
            match service.stats().flows_built {
                0 => Ok(()),
                n => Err(format!("a restart answered from disk built {n} flow(s)")),
            }
        })
    };
    let outcome = run();

    // Leave no state behind: the example doubles as a CI check and must
    // be cold again on the next run.
    let _ = std::fs::remove_dir_all(&cache_root);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("  {e}");
            ExitCode::FAILURE
        }
    }
}
