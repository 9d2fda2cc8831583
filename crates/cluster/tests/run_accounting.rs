//! Transported runs count in the process-wide `bsp.runs` registry counter
//! exactly as in-memory runs do.
//!
//! The registry is process-global, so this file holds a single test: no
//! other test of the binary can run an engine between the two snapshots.

use predict_algorithms::TopKWorkload;
use predict_bsp::{BspConfig, BspEngine, TransportMode};
use predict_cluster::run_workload;
use predict_graph::generators::{generate_rmat, RmatConfig};

fn registry_runs() -> u64 {
    predict_obs::registry().counter("bsp.runs").get()
}

#[test]
fn inproc_runs_bump_the_registry_counter_like_the_engine_counter() {
    let graph = generate_rmat(&RmatConfig::new(8, 6).with_seed(11));
    let engine = BspEngine::new(BspConfig {
        num_workers: 4,
        transport: TransportMode::InProc,
        ..BspConfig::default()
    });
    let registry_before = registry_runs();
    let engine_before = engine.runs_executed();

    // Top-k drives two runs: the PageRank pre-pass and the ranking phase.
    run_workload(&engine, &TopKWorkload::default(), &graph, None).expect("cluster run succeeds");

    let engine_delta = engine.runs_executed() - engine_before;
    assert_eq!(engine_delta, 2);
    assert_eq!(registry_runs() - registry_before, engine_delta);
}
