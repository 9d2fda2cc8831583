//! Per-worker sharded state of one BSP run.
//!
//! A [`WorkerShard`] owns every piece of mutable per-vertex state of the
//! vertices assigned to one worker — values, halt flags, inboxes — plus the
//! worker's outbox buffers, counters and partial aggregates. Shards are
//! disjoint by construction, which is what lets the executor run compute and
//! delivery phases of different workers on different OS threads without
//! synchronization. All buffers are allocated once per run and reused across
//! supersteps (cleared, never dropped), replacing the per-superstep
//! allocations of the old sequential loop.
//!
//! The phase logic itself — compute and delivery — lives in
//! [`crate::worker`], which operates on shards.

use crate::aggregator::Aggregates;
use crate::counters::WorkerCounters;
use crate::program::{InitContext, VertexProgram};
use crate::runtime::layout::ShardLayout;
use crate::storage::WorkerGraph;
use predict_graph::VertexId;

/// All mutable state of one worker during a run, indexed by shard slot
/// (see [`ShardLayout::slot_of`]).
pub struct WorkerShard<P: VertexProgram> {
    /// Index of the worker this shard belongs to.
    pub worker: usize,
    /// Per-vertex values of the owned vertices.
    pub values: Vec<P::VertexValue>,
    /// Per-vertex halt flags of the owned vertices.
    pub halted: Vec<bool>,
    /// Per-vertex inboxes: messages delivered at the end of the previous
    /// superstep, consumed (and cleared in place, keeping capacity) by the
    /// compute phase.
    pub inboxes: Vec<Vec<P::Message>>,
    /// Compute-phase scratch: messages in production order before routing.
    /// Cleared (capacity kept) every superstep.
    pub outbox: Vec<(VertexId, P::Message)>,
    /// Routed outboxes, one per destination worker, in production order.
    /// Swapped with the executor's inbound matrix between phases; capacity
    /// circulates across supersteps instead of being reallocated.
    pub routed: Vec<Vec<(VertexId, P::Message)>>,
    /// Table 1 counters of the current superstep (reset in place).
    pub counters: WorkerCounters,
    /// Partial aggregates of the current superstep (cleared in place).
    pub partial_aggregates: Aggregates,
    /// Every owned vertex had voted to halt at the end of the last compute
    /// phase (tracked by [`WorkerShard::run_superstep`], so the master's
    /// halt check never rescans the flags).
    pub all_halted: bool,
}

impl<P: VertexProgram> WorkerShard<P> {
    /// Creates the shard of worker `worker` with every buffer allocated but
    /// no vertex values yet; [`WorkerShard::init_values`] fills them (the
    /// executor fans value initialization out like any other phase).
    pub fn init_empty(worker: usize, layout: &ShardLayout) -> Self {
        let vertices = layout.shard_vertices(worker);
        Self {
            worker,
            values: Vec::with_capacity(vertices.len()),
            halted: vec![false; vertices.len()],
            inboxes: (0..vertices.len()).map(|_| Vec::new()).collect(),
            outbox: Vec::new(),
            routed: (0..layout.num_workers()).map(|_| Vec::new()).collect(),
            counters: WorkerCounters::new(vertices.len() as u64),
            partial_aggregates: Aggregates::new(),
            all_halted: false,
        }
    }

    /// Initializes every owned vertex's value via
    /// [`VertexProgram::init_vertex`], in increasing vertex-id order. The
    /// `graph` view resolves adjacency from the unified CSR or from this
    /// worker's own [`ShardedCsr`](predict_graph::ShardedCsr) slice.
    pub fn init_values(&mut self, program: &P, graph: WorkerGraph<'_>, layout: &ShardLayout) {
        self.values.clear();
        self.values
            .extend(
                layout
                    .shard_vertices(self.worker)
                    .iter()
                    .enumerate()
                    .map(|(slot, &v)| {
                        let ctx = InitContext {
                            num_vertices: graph.num_vertices(),
                            num_edges: graph.num_edges(),
                            out_neighbors: graph.out_neighbors(slot, v),
                            out_weights: graph.out_weights(slot, v),
                        };
                        program.init_vertex(v, &ctx)
                    }),
            );
    }

    /// Creates the fully-initialized shard of worker `worker`.
    pub fn init(program: &P, graph: WorkerGraph<'_>, layout: &ShardLayout, worker: usize) -> Self {
        let mut shard = Self::init_empty(worker, layout);
        shard.init_values(program, graph, layout);
        shard
    }
}
