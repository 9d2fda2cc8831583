//! Load driver: concurrent scheduler-query generator for the prediction
//! service, measuring cold-store vs warm-store tail latency.
//!
//! The paper positions PREDIcT as a service a scheduler consults for SLA
//! feasibility and capacity planning. This binary drives that deployment
//! shape under load: a pinned scenario (four small dataset analogs × three
//! workloads × a spread of predictor seeds) is fired at a [`PredictService`]
//! by many concurrent client threads, twice —
//!
//! 1. **cold phase**: a fresh service against an *empty* store directory, so
//!    every unique query computes its artifacts (and writes them through);
//! 2. **warm phase**: a brand-new service (empty in-memory caches, fresh
//!    engine) against the *same* directory — a simulated process restart —
//!    so every unique query is answered from disk without a single engine
//!    execution. The restart is repeated [`WARM_RESTARTS`] times, each on a
//!    fresh service, and the phase's percentiles pool every repeat's
//!    latencies: one warm pass is short enough that its p99 would rest on
//!    a handful of scheduler ticks.
//!
//! Each phase reports request count, wall-clock throughput, p50/p99/p999
//! latency, and the store's read/hit/write counters for the phase (hit-rate
//! is honest: it counts disk hits, not in-memory cache hits — see
//! `SessionStats::store_hits`). The report is printed as a table and saved
//! machine-readable to `target/experiments/load_driver.json`, which CI
//! uploads next to `BENCH_PR4.json`.
//!
//! The cold phase must do only unique work, however many clients race on
//! the same queries. The driver exits 1 unless, after the cold phase, the
//! engine ran exactly the runs of the artifacts the sessions cached (each
//! cached sample run and actual run weighted by the engine runs one
//! execution of its workload costs: top-k's PageRank pre-pass makes two),
//! and the store took exactly one write per `.art` file it holds.
//!
//! Usage:
//!
//! ```text
//! load_driver                        # closed loop, 2000 requests, 8 clients
//! load_driver --requests 5000       # more load
//! load_driver --clients 16          # wider closed loop
//! load_driver --open --rate 500     # open loop at 500 requests/second
//! load_driver --store DIR           # explicit store dir (default: temp)
//! load_driver --keep-store          # skip the cold wipe (measure twice warm)
//! load_driver --check-speedup 2.0   # exit 1 unless warm p99 ≥ 2x better
//! ```
//!
//! Closed loop (default): each client fires its next request the moment the
//! previous one returns — measures the service at saturation. Open loop
//! (`--open`): requests are released on a fixed schedule at `--rate` per
//! second and latency includes queueing delay behind slow responses — the
//! coordinated-omission-free view a real scheduler would see.

use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, TopKWorkload, Workload};
use predict_core::{PredictRequest, PredictService, PredictServiceConfig, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;
use predict_sampling::BiasedRandomJump;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed spread per (dataset, workload) pair: each distinct seed is a
/// distinct artifact chain in the store, so the pinned scenario exercises
/// `datasets × workloads × SEEDS_PER_PAIR` unique store entries.
const SEEDS_PER_PAIR: u64 = 4;

/// Simulated restarts in the warm phase, each a fresh service on the same
/// store; the warm percentiles are taken over all of their latencies.
const WARM_RESTARTS: usize = 5;

/// The pinned query mix: every request the driver can fire, in a fixed
/// order. Clients walk this list round-robin, so any request count covers
/// the unique set as evenly as possible.
fn build_requests() -> Vec<PredictRequest> {
    let datasets = [
        Dataset::LiveJournal,
        Dataset::Wikipedia,
        Dataset::Twitter,
        Dataset::Uk2002,
    ];
    let mut requests = Vec::new();
    for dataset in datasets {
        let graph = Arc::new(DatasetConfig::new(dataset, DatasetScale::Small).generate());
        let workloads: [Arc<dyn Workload>; 3] = [
            Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
            Arc::new(TopKWorkload::default()),
            Arc::new(ConnectedComponentsWorkload),
        ];
        for workload in workloads {
            for seed in 0..SEEDS_PER_PAIR {
                requests.push(
                    PredictRequest::new(
                        dataset.prefix(),
                        Arc::clone(&graph),
                        Arc::clone(&workload),
                    )
                    .with_config(
                        PredictorConfig::single_ratio(0.1)
                            .with_seed(predict_bench::EXPERIMENT_SEED + seed),
                    ),
                );
            }
        }
    }
    requests
}

/// Latency percentile over a sorted sample set (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-phase report, serialized into `load_driver.json`.
#[derive(Debug, Clone, Serialize)]
struct PhaseReport {
    phase: String,
    mode: String,
    requests: usize,
    errors: usize,
    clients: usize,
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    /// Engine runs this phase executed (0 on a fully warm phase).
    bsp_runs: u64,
    store_reads: u64,
    store_hits: u64,
    store_writes: u64,
    /// Disk hits / disk reads for this phase; `None` when nothing was read.
    store_hit_rate: Option<f64>,
    /// Cold phase only: engine runs the sessions' cached sample runs and
    /// actual runs account for — what `bsp_runs` must equal.
    unique_runs: Option<u64>,
    /// Cold phase only: `.art` files published — what `store_writes` must
    /// equal.
    art_files: Option<u64>,
}

/// Process-global counter values the phase accounting diffs.
#[derive(Clone, Copy)]
struct Counters {
    bsp_runs: u64,
    store_reads: u64,
    store_hits: u64,
    store_writes: u64,
}

fn counters_now() -> Counters {
    let snapshot = predict_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    Counters {
        bsp_runs: counter("bsp.runs"),
        store_reads: counter("store.reads"),
        store_hits: counter("store.hits"),
        store_writes: counter("store.writes"),
    }
}

struct DriverOptions {
    requests: usize,
    clients: usize,
    open_loop: bool,
    rate_per_sec: f64,
}

/// What firing one request stream at one service produced.
#[derive(Default)]
struct Fired {
    latencies: Vec<u64>,
    errors: usize,
    wall_ms: f64,
}

/// Fires `opts.requests` queries at `service` and appends their latencies
/// to `fired`. Closed loop: `opts.clients` threads race down a shared
/// request counter. Open loop: request *i* is released at `i / rate`
/// seconds after the stream starts and its latency includes any queueing
/// delay.
fn fire(
    service: &PredictService,
    pool: &[PredictRequest],
    opts: &DriverOptions,
    fired: &mut Fired,
) {
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= opts.requests {
                            break;
                        }
                        let request = &pool[i % pool.len()];
                        // Open loop: wait for this request's scheduled
                        // release; latency is measured from the *schedule*,
                        // charging queueing delay to slow responses.
                        let scheduled = if opts.open_loop {
                            let at = Duration::from_secs_f64(i as f64 / opts.rate_per_sec);
                            let now = start.elapsed();
                            if at > now {
                                std::thread::sleep(at - now);
                            }
                            at
                        } else {
                            start.elapsed()
                        };
                        if service.submit(request).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        let done = start.elapsed();
                        local.push(done.saturating_sub(scheduled).as_micros() as u64);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    fired.wall_ms += start.elapsed().as_secs_f64() * 1000.0;
    fired.latencies.extend(latencies);
    fired.errors += errors.load(Ordering::Relaxed);
}

/// Runs one phase — `run` [`fire`]s request streams into the phase's
/// [`Fired`] — and reports over every latency it collected.
fn drive_phase(name: &str, opts: &DriverOptions, run: impl FnOnce(&mut Fired)) -> PhaseReport {
    let before = counters_now();
    let mut fired = Fired::default();
    run(&mut fired);
    let after = counters_now();
    let Fired {
        mut latencies,
        errors,
        wall_ms,
    } = fired;
    latencies.sort_unstable();
    let reads = after.store_reads - before.store_reads;
    let hits = after.store_hits - before.store_hits;
    PhaseReport {
        phase: name.to_string(),
        mode: if opts.open_loop {
            format!("open@{}rps", opts.rate_per_sec)
        } else {
            "closed".to_string()
        },
        requests: latencies.len(),
        errors,
        clients: opts.clients,
        wall_ms,
        throughput_rps: latencies.len() as f64 / (wall_ms / 1000.0).max(1e-9),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        p999_us: percentile_us(&latencies, 99.9),
        max_us: latencies.last().copied().unwrap_or(0),
        bsp_runs: after.bsp_runs - before.bsp_runs,
        store_reads: reads,
        store_hits: hits,
        store_writes: after.store_writes - before.store_writes,
        store_hit_rate: (reads > 0).then(|| hits as f64 / reads as f64),
        unique_runs: None,
        art_files: None,
    }
}

/// Engine runs one execution of `workload` costs, measured on a tiny
/// `graph` (top-k runs a PageRank pre-pass before its ranking phase).
fn engine_runs_per_execution(workload: &dyn Workload, graph: &CsrGraph) -> u64 {
    let engine = predict_bsp::BspEngine::default();
    workload.run(&engine, graph);
    engine.runs_executed()
}

/// The engine runs the cold phase's cached artifacts account for, given the
/// queries the phase fired and each one's [`engine_runs_per_execution`].
/// Every unique query of the pinned mix owns exactly one sample run
/// (single-ratio configs, distinct seeds) and the driver never evaluates, so
/// the sessions' cached sample runs + actual runs must equal the number of
/// queries fired; `None` when they do not.
fn unique_engine_runs(
    service: &PredictService,
    fired: &[PredictRequest],
    weights: &[u64],
) -> Option<u64> {
    let sessions: std::collections::BTreeMap<&str, &PredictRequest> =
        fired.iter().map(|r| (r.dataset.as_str(), r)).collect();
    let cached: usize = sessions
        .values()
        .map(|r| {
            let stats = service.session_for(&r.dataset, &r.graph).stats();
            stats.sample_runs + stats.actual_runs
        })
        .sum();
    (cached == fired.len()).then(|| weights[..fired.len()].iter().sum())
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let _obs = predict_bench::observability_guard();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = DriverOptions {
        requests: flag_value(&args, "--requests").unwrap_or(2000),
        clients: flag_value::<usize>(&args, "--clients").unwrap_or(8).max(1),
        open_loop: args.iter().any(|a| a == "--open"),
        rate_per_sec: flag_value::<f64>(&args, "--rate")
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or(500.0),
    };
    let check_speedup: Option<f64> = flag_value(&args, "--check-speedup");
    let store_dir: PathBuf = flag_value(&args, "--store").unwrap_or_else(|| {
        std::env::temp_dir().join(format!("predict_load_store_{}", std::process::id()))
    });
    let keep_store = args.iter().any(|a| a == "--keep-store");
    if !keep_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    eprintln!("[load] building pinned request mix (small-scale datasets)...");
    let pool = build_requests();
    eprintln!(
        "[load] {} unique queries, {} requests, {} clients, store at {}",
        pool.len(),
        opts.requests,
        opts.clients,
        store_dir.display()
    );

    // One service per phase: the warm phase is a *restart* — empty session
    // cache, fresh engine — warmed only through the store directory.
    let service = |_phase: &str| {
        PredictService::with_config(
            predict_bench::experiment_engine(),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig::default().store(&store_dir),
        )
    };

    // Probed before the cold phase: the probe's own runs must not count.
    let tiny = generate_rmat(&RmatConfig::new(6, 4).with_seed(1));
    let weights: Vec<u64> = pool
        .iter()
        .map(|r| engine_runs_per_execution(r.workload.as_ref(), &tiny))
        .collect();
    let cold_service = service("cold");
    let mut cold = drive_phase("cold", &opts, |fired| {
        fire(&cold_service, &pool, &opts, fired)
    });
    // A kept store answers the cold phase from disk: its work is not
    // "unique work on an empty store", so there is nothing to check.
    if !keep_store {
        let fired = &pool[..opts.requests.min(pool.len())];
        cold.unique_runs = unique_engine_runs(&cold_service, fired, &weights);
        cold.art_files = cold_service.artifact_store().map(|store| {
            predict_core::ArtifactKind::ALL
                .iter()
                .map(|&kind| store.artifact_count(kind) as u64)
                .sum()
        });
    }
    drop(cold_service);
    let warm = drive_phase("warm", &opts, |fired| {
        for _ in 0..WARM_RESTARTS {
            fire(&service("warm"), &pool, &opts, fired);
        }
    });

    let mut table = predict_bench::ResultTable::new(
        "Load driver: cold vs warm persistent store",
        &[
            "phase",
            "mode",
            "reqs",
            "errors",
            "rps",
            "p50 us",
            "p99 us",
            "p999 us",
            "bsp runs",
            "unique runs",
            "writes",
            ".art files",
            "hit rate",
        ],
    );
    for r in [&cold, &warm] {
        table.push_row(vec![
            r.phase.clone(),
            r.mode.clone(),
            r.requests.to_string(),
            r.errors.to_string(),
            format!("{:.0}", r.throughput_rps),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.p999_us.to_string(),
            r.bsp_runs.to_string(),
            r.unique_runs.map_or("-".to_string(), |n| n.to_string()),
            r.store_writes.to_string(),
            r.art_files.map_or("-".to_string(), |n| n.to_string()),
            r.store_hit_rate
                .map_or("-".to_string(), |h| format!("{:.1}%", h * 100.0)),
        ]);
    }

    let p99_speedup = cold.p99_us as f64 / (warm.p99_us.max(1)) as f64;
    #[derive(Serialize)]
    struct Report<'a> {
        phases: [&'a PhaseReport; 2],
        p99_speedup: f64,
        graph: &'static str,
    }
    table.emit(
        "load_driver",
        &Report {
            phases: [&cold, &warm],
            p99_speedup,
            graph: "datasets_small_x4",
        },
    );
    eprintln!("[load] warm p99 speedup over cold: {p99_speedup:.2}x");

    let mut failed = false;
    if warm.bsp_runs > 0 {
        eprintln!(
            "[load] FAIL: warm phase executed {} engine run(s); a restarted \
             service must answer from the store alone",
            warm.bsp_runs
        );
        failed = true;
    }
    if !keep_store && cold.unique_runs != Some(cold.bsp_runs) {
        eprintln!(
            "[load] FAIL: cold phase executed {} engine run(s) where its cached \
             artifacts account for {}; concurrent clients duplicated work",
            cold.bsp_runs,
            cold.unique_runs
                .map_or("a different artifact set".to_string(), |n| n.to_string())
        );
        failed = true;
    }
    if !keep_store && cold.art_files != Some(cold.store_writes) {
        eprintln!(
            "[load] FAIL: cold phase made {} store write(s) for {:?} published \
             .art file(s); each artifact must be written once",
            cold.store_writes, cold.art_files
        );
        failed = true;
    }
    if cold.errors + warm.errors > 0 {
        eprintln!(
            "[load] FAIL: {} request(s) errored",
            cold.errors + warm.errors
        );
        failed = true;
    }
    if let Some(min) = check_speedup {
        if p99_speedup < min {
            eprintln!("[load] FAIL: warm p99 speedup {p99_speedup:.2}x < required {min:.2}x");
            failed = true;
        }
    }
    if !keep_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    if failed {
        std::process::exit(1);
    }
}
