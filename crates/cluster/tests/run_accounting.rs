//! Transported runs count in the process-wide `bsp.runs` and
//! `bsp.supersteps` registry counters exactly as in-memory runs do.
//!
//! The registry is process-global, so this file holds a single test: no
//! other test of the binary can run an engine between the snapshots.

use predict_algorithms::{TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine, TransportMode};
use predict_cluster::run_workload;
use predict_graph::generators::{generate_rmat, RmatConfig};

fn registry_counter(name: &str) -> u64 {
    predict_obs::registry().counter(name).get()
}

#[test]
fn inproc_runs_bump_the_registry_counter_like_the_engine_counter() {
    let graph = generate_rmat(&RmatConfig::new(8, 6).with_seed(11));
    let config = BspConfig {
        num_workers: 4,
        ..BspConfig::default()
    };
    let engine = BspEngine::new(BspConfig {
        transport: TransportMode::InProc,
        ..config.clone()
    });
    let registry_before = registry_counter("bsp.runs");
    let supersteps_before = registry_counter("bsp.supersteps");
    let engine_before = engine.runs_executed();

    // Top-k drives two runs: the PageRank pre-pass and the ranking phase.
    run_workload(&engine, &TopKWorkload::default(), &graph, None).expect("cluster run succeeds");

    let engine_delta = engine.runs_executed() - engine_before;
    assert_eq!(engine_delta, 2);
    assert_eq!(registry_counter("bsp.runs") - registry_before, engine_delta);

    // The same workload in memory executes the same supersteps, and both
    // executors report them to the registry.
    let transported_supersteps = registry_counter("bsp.supersteps") - supersteps_before;
    let in_memory_before = registry_counter("bsp.supersteps");
    TopKWorkload::default().run(&BspEngine::new(config), &graph);
    let in_memory_supersteps = registry_counter("bsp.supersteps") - in_memory_before;
    assert!(in_memory_supersteps > 0);
    assert_eq!(transported_supersteps, in_memory_supersteps);
}
