//! In-memory execution: the shards of a run as a [`WorkerSet`], and
//! [`execute`], which hands them to the master.
//!
//! Each superstep of [`LocalShards`] is two phases:
//!
//! 1. **compute** — every shard runs [`WorkerShard::run_superstep`]; shards
//!    are disjoint, so the phase fans out over the persistent
//!    [`WorkerPool`];
//! 2. **delivery** — the routed outboxes are transposed into per-destination
//!    inbound rows (an `O(workers²)` pointer swap, no message is copied),
//!    then every shard runs [`WorkerShard::deliver`], again in parallel.
//!
//! Everything order-sensitive — the merge, the clock, the halt checks —
//! happens in [`run_master`] between supersteps, on the calling thread. See
//! [`crate::runtime`] for the resulting determinism contract.

use crate::aggregator::Aggregates;
use crate::config::BspConfig;
use crate::engine::BspRunResult;
use crate::program::VertexProgram;
use crate::runtime::layout::ShardLayout;
use crate::runtime::master::{run_master, WorkerReport, WorkerSet};
use crate::runtime::pool::WorkerPool;
use crate::runtime::shard::WorkerShard;
use crate::storage::StorageRef;
use predict_graph::VertexId;
use std::convert::Infallible;
use std::time::Instant;

/// One row of the inbound transpose matrix: the message buffers destined for
/// (or produced by) one worker, one buffer per peer worker.
type MessageRow<M> = Vec<Vec<(VertexId, M)>>;

/// Splits `items` into at most `threads` contiguous chunks and runs `f` on
/// every item, scheduling the chunks as one scope on `pool` (zero spawns once
/// the pool is warm). `threads == 1` degenerates to a plain in-place loop
/// that never touches the pool.
///
/// `f` must be safe to run concurrently on distinct items; chunk boundaries
/// never affect results, only wall-clock time.
fn for_each_chunked<T: Send, F: Fn(&mut T) + Sync>(
    items: &mut [T],
    threads: usize,
    pool: &WorkerPool,
    f: F,
) {
    if threads <= 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk_size = items.len().div_ceil(threads);
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .chunks_mut(chunk_size)
        .map(|chunk| {
            Box::new(move || {
                for item in chunk {
                    f(item);
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run_scoped(threads, tasks);
}

/// The in-memory worker set: one [`WorkerShard`] per worker, phases spread
/// over `threads` pool threads.
struct LocalShards<'a, P: VertexProgram> {
    program: &'a P,
    storage: StorageRef<'a>,
    layout: &'a ShardLayout,
    threads: usize,
    pool: &'a WorkerPool,
    shards: Vec<WorkerShard<P>>,
    /// `inbound[dst][src]` buffers circulate between the shards' routed
    /// outboxes and the delivery phase, so message buffers are pooled across
    /// supersteps rather than reallocated.
    inbound: Vec<MessageRow<P::Message>>,
}

impl<'a, P: VertexProgram> LocalShards<'a, P> {
    fn new(
        program: &'a P,
        storage: StorageRef<'a>,
        layout: &'a ShardLayout,
        threads: usize,
        pool: &'a WorkerPool,
    ) -> Self {
        let num_workers = layout.num_workers();
        let mut shards: Vec<WorkerShard<P>> = (0..num_workers)
            .map(|w| WorkerShard::init_empty(w, layout))
            .collect();
        // Value initialization fans out like a phase.
        for_each_chunked(&mut shards, threads, pool, |shard| {
            shard.init_values(program, storage.worker_graph(shard.worker), layout);
        });
        let inbound = (0..num_workers)
            .map(|_| (0..num_workers).map(|_| Vec::new()).collect())
            .collect();
        Self {
            program,
            storage,
            layout,
            threads,
            pool,
            shards,
            inbound,
        }
    }
}

impl<P: VertexProgram> WorkerSet for LocalShards<'_, P> {
    type Value = P::VertexValue;
    type Error = Infallible;

    fn transport(&self) -> Option<(&'static str, Instant)> {
        None
    }

    fn superstep(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
    ) -> Result<impl Iterator<Item = WorkerReport<'_>>, Infallible> {
        let Self {
            program,
            storage,
            layout,
            threads,
            pool,
            shards,
            inbound,
        } = self;
        let (program, storage, layout) = (*program, *storage, *layout);

        // Compute phase: every shard processes its vertices against its own
        // view of the graph. Shards are disjoint; the fan-out cannot reorder
        // anything observable.
        {
            let _compute_span = predict_obs::trace::span("bsp.compute");
            for_each_chunked(shards, *threads, pool, |shard| {
                shard.run_superstep(
                    program,
                    storage.worker_graph(shard.worker),
                    layout,
                    superstep,
                    previous_aggregates,
                );
            });
        }

        // Transpose routed outboxes into inbound rows by swapping buffers.
        for (w, shard) in shards.iter_mut().enumerate() {
            for (d, buf) in shard.routed.iter_mut().enumerate() {
                std::mem::swap(buf, &mut inbound[d][w]);
            }
        }

        // Delivery phase: every destination shard pulls its inbound row
        // (ascending source worker, production order within a source).
        {
            let _deliver_span = predict_obs::trace::span("bsp.deliver");
            let combiner = program.combiner();
            let mut pairs: Vec<(&mut WorkerShard<P>, &mut MessageRow<P::Message>)> =
                shards.iter_mut().zip(inbound.iter_mut()).collect();
            for_each_chunked(&mut pairs, *threads, pool, |(shard, row)| {
                shard.deliver(layout, row, combiner);
            });
        }

        Ok(self.shards.iter().map(|shard| WorkerReport {
            counters: shard.counters,
            partial_aggregates: &shard.partial_aggregates,
            all_halted: shard.all_halted,
            compute_ns: 0,
            wire_bytes: 0,
        }))
    }

    fn finish(self) -> Result<Vec<Vec<P::VertexValue>>, Infallible> {
        Ok(self.shards.into_iter().map(|shard| shard.values).collect())
    }
}

/// Executes `program` against `storage` — the unified CSR or one
/// [`ShardedCsr`](predict_graph::ShardedCsr) per worker — over the sharded
/// state described by `layout`, spreading per-shard phases over `threads`
/// threads of `pool`.
///
/// [`crate::BspEngine::run`] and [`crate::BspEngine::run_storage`] are thin
/// facades over this. The output is byte-identical for every `threads` value
/// *and* for both storage layouts: under sharded storage each worker's phases
/// read only its own shard's adjacency, which holds exactly the bytes the
/// unified CSR holds for the worker's owned vertices.
pub fn execute<P: VertexProgram>(
    program: &P,
    storage: StorageRef<'_>,
    layout: &ShardLayout,
    config: &BspConfig,
    threads: usize,
    pool: &WorkerPool,
) -> BspRunResult<P::VertexValue> {
    let shards = LocalShards::new(program, storage, layout, threads, pool);
    let Ok(result) = run_master(program, shards, layout, config, storage.num_edges());
    result
}
