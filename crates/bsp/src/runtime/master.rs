//! The BSP master: the one superstep loop every run goes through.
//!
//! Like Giraph's master, [`run_master`] drives its workers superstep by
//! superstep and turns their reports into the Table 1 counter vectors,
//! merged aggregates and halt decision PREDIcT fits and extrapolates. The
//! workers are a [`WorkerSet`]: the in-memory shards of
//! [`execute`](crate::runtime::execute), or a group behind a transport
//! (`predict_cluster`). Everything order-sensitive happens here, once, for
//! both — see the determinism contract in [`crate::runtime`].

use crate::aggregator::Aggregates;
use crate::config::BspConfig;
use crate::cost::ClusterClock;
use crate::counters::WorkerCounters;
use crate::engine::{BspRunResult, HaltReason};
use crate::profile::{RunProfile, SuperstepProfile};
use crate::program::VertexProgram;
use crate::remote::{MeasuredRun, MeasuredSuperstep};
use crate::runtime::layout::ShardLayout;
use predict_graph::VertexId;
use std::time::Instant;

/// What one worker reports to the master at the end of a superstep.
#[derive(Debug, Clone, Copy)]
pub struct WorkerReport<'a> {
    /// The worker's Table 1 counters for the superstep.
    pub counters: WorkerCounters,
    /// The worker's partial aggregates for the superstep.
    pub partial_aggregates: &'a Aggregates,
    /// Every vertex the worker owns has voted to halt.
    pub all_halted: bool,
    /// Compute-phase time measured inside the worker (0 for in-memory
    /// shards, whose time the master's superstep wall already covers).
    pub compute_ns: u64,
    /// Bytes the superstep put on the wire for this worker, both directions
    /// (0 for in-memory shards).
    pub wire_bytes: u64,
}

/// The workers of one run, as the master sees them.
pub trait WorkerSet {
    /// Per-vertex value type of the program the workers run.
    type Value;
    /// Why a superstep or the final value collection failed.
    type Error;

    /// For workers behind a transport: the transport's name and the instant
    /// the run started (before worker setup), from which the master measures
    /// [`MeasuredRun::total_wall_ns`]. `None` for in-memory shards.
    fn transport(&self) -> Option<(&'static str, Instant)>;

    /// Runs superstep `superstep` on every worker — compute, then delivery
    /// of the messages it produced — and returns one report per worker in
    /// ascending worker order.
    fn superstep(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
    ) -> Result<impl Iterator<Item = WorkerReport<'_>>, Self::Error>;

    /// Ends the run and returns each shard's values in slot order, one
    /// vector per worker in ascending worker order.
    fn finish(self) -> Result<Vec<Vec<Self::Value>>, Self::Error>;
}

/// Drives `workers` through `program`'s supersteps until a halt condition
/// or the superstep cap, and assembles the run's values and profile.
///
/// `layout` is the vertex-to-shard layout the workers were built from;
/// `num_edges` is the edge count of the graph they run on (charged by the
/// simulated read phase and recorded in the profile).
pub fn run_master<P, S>(
    program: &P,
    mut workers: S,
    layout: &ShardLayout,
    config: &BspConfig,
    num_edges: usize,
) -> Result<BspRunResult<P::VertexValue>, S::Error>
where
    P: VertexProgram,
    S: WorkerSet<Value = P::VertexValue>,
{
    let num_workers = layout.num_workers();
    let transport = workers.transport();
    let _run_span = predict_obs::trace::span("bsp.run")
        .arg("algorithm", program.name())
        .arg("workers", num_workers)
        .arg("transport", transport.map_or("inmem", |(name, _)| name));
    let superstep_ns = predict_obs::registry().histogram("bsp.superstep_ns");
    let mut clock = ClusterClock::new(config.cost.clone());
    let setup_ms = clock.setup_time_ms();
    let read_ms = clock.read_time_ms(num_edges, num_workers);

    let mut previous_aggregates = Aggregates::new();
    let mut supersteps: Vec<SuperstepProfile> = Vec::new();
    let mut measured: Vec<MeasuredSuperstep> = Vec::new();
    let mut halt_reason = HaltReason::MaxSupersteps;

    for superstep in 0..config.max_supersteps {
        let mut superstep_span =
            predict_obs::trace::span("bsp.superstep").arg("superstep", superstep as u64);
        let superstep_start = Instant::now();

        // Merge the reports in ascending worker order, which pins counter
        // vectors and float aggregate sums bit for bit.
        let mut worker_counters = Vec::with_capacity(num_workers);
        let mut aggregates = Aggregates::new();
        let mut messages_sent = 0u64;
        let mut all_halted = true;
        // Measured columns stay empty (unallocated) for in-memory shards.
        let measured_len = if transport.is_some() { num_workers } else { 0 };
        let mut worker_compute_ns = Vec::with_capacity(measured_len);
        let mut wire_bytes = Vec::with_capacity(measured_len);
        for report in workers.superstep(superstep, &previous_aggregates)? {
            worker_counters.push(report.counters);
            aggregates.merge(report.partial_aggregates);
            messages_sent += report.counters.total_messages();
            all_halted &= report.all_halted;
            if transport.is_some() {
                worker_compute_ns.push(report.compute_ns);
                wire_bytes.push(report.wire_bytes);
            }
        }

        // The simulated clock charges the critical path (slowest worker)
        // plus fixed overhead and barrier.
        let (wall_time_ms, worker_times_ms) = clock.superstep_time_ms(&worker_counters);
        supersteps.push(SuperstepProfile {
            superstep,
            workers: worker_counters,
            worker_times_ms,
            wall_time_ms,
            aggregates: aggregates.clone(),
        });
        let wall_ns = superstep_start.elapsed().as_nanos() as u64;
        superstep_ns.record(wall_ns);
        if transport.is_some() {
            superstep_span.set_arg("worker_compute_ns", format!("{worker_compute_ns:?}"));
            measured.push(MeasuredSuperstep {
                wall_ns,
                worker_compute_ns,
                wire_bytes,
            });
        }

        // Termination checks, in Giraph's priority order. Messages still in
        // flight after a halt are never read by a compute phase, so values
        // and profile do not depend on whether a worker set delivered them.
        if program.master_halt(superstep, &aggregates) {
            halt_reason = HaltReason::MasterConverged;
            break;
        }
        if messages_sent == 0 && all_halted {
            halt_reason = HaltReason::AllVerticesHalted;
            break;
        }
        previous_aggregates = aggregates;
    }
    predict_obs::registry()
        .counter("bsp.supersteps")
        .add(supersteps.len() as u64);

    let n = layout.num_vertices();
    let write_ms = clock.write_time_ms(n, num_workers);

    // Scatter shard values back into a dense vertex-indexed vector. Shard
    // slots ascend with vertex id, so one cursor per shard moves every value
    // without cloning it.
    let mut cursors: Vec<_> = workers.finish()?.into_iter().map(Vec::into_iter).collect();
    let mut values: Vec<P::VertexValue> = Vec::with_capacity(n);
    for v in 0..n {
        values.push(
            cursors[layout.owner_of(v as VertexId)]
                .next()
                .expect("every vertex has a shard value"),
        );
    }

    let profile = RunProfile {
        algorithm: program.name().to_string(),
        num_vertices: n,
        num_edges,
        num_workers,
        setup_ms,
        read_ms,
        write_ms,
        supersteps,
        measured: transport.map(|(name, started)| MeasuredRun {
            transport: name.to_string(),
            supersteps: measured,
            total_wall_ns: started.elapsed().as_nanos() as u64,
        }),
    };
    Ok(BspRunResult {
        values,
        profile,
        halt_reason,
    })
}
