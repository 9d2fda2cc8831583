//! The cluster driver: worker-group setup around the BSP master.
//!
//! [`drive`] runs one vertex program to completion against a group of
//! workers. It sends each worker its shard (`Init`), then hands the group to
//! [`run_master`] — the same superstep loop the in-memory executor runs — as
//! a [`WorkerSet`] whose superstep is one `Step`/`StepDone` round trip per
//! worker and whose finish collects the `Values` frames. The master owns the
//! clock order, the ascending-worker merge, the halt priority and the
//! profile, which is what makes the result byte-identical to an in-memory
//! run (determinism contract point 8).
//!
//! On top of the simulated [`ClusterClock`](predict_bsp::ClusterClock)
//! timings, the master records what the paper's simulated clock cannot see
//! for a transported run: *measured* per-superstep wall time, per-worker
//! compute time and bytes-on-the-wire, attached to the returned
//! [`RunProfile`](predict_bsp::RunProfile) as a
//! [`MeasuredRun`](predict_bsp::MeasuredRun).

use crate::error::ClusterError;
use crate::fault::FaultSchedule;
use crate::protocol::{self, tag, FaultSpec, InitHeader, ProgramSpec, StepBody, StepDoneBody};
use crate::transport::{self, Connection, TransportKind, WorkerGroup};
use crate::wire::{decode_exact, encode_to_vec, Wire, WireBatch};
use predict_bsp::runtime::{run_master, ShardLayout, WorkerReport, WorkerSet};
use predict_bsp::{Aggregates, BspConfig, BspRunResult, GraphStorage, VertexProgram};
use predict_graph::{CsrGraph, ShardedCsr};
use predict_obs::metrics::Counter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a cluster drive runs: backend, read deadline, injected fault.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Transport backend to run the workers on.
    pub kind: TransportKind,
    /// Driver-side read deadline per expected frame. A worker that sends
    /// nothing for this long fails the drive with [`ClusterError::Timeout`]
    /// instead of hanging it.
    pub timeout: Duration,
    /// Fault injected into one worker `(worker, fault)` — robustness tests
    /// only. Faulted drives always use a fresh worker group and never
    /// return it to the pool.
    pub fault: Option<(usize, FaultSpec)>,
    /// Deterministic transport-level fault schedule wrapped around one
    /// worker's endpoint `(worker, schedule)` — the fault-injection test
    /// battery. In-process transport only (the wrapper sits between the
    /// serve loop and its channels); like [`DriveOptions::fault`], such
    /// drives always use a fresh group and never repool it.
    pub endpoint_fault: Option<(usize, FaultSchedule)>,
}

impl DriveOptions {
    /// Options for a normal (fault-free) drive on `kind`.
    pub fn new(kind: TransportKind) -> Self {
        Self {
            kind,
            timeout: Duration::from_secs(120),
            fault: None,
            endpoint_fault: None,
        }
    }

    /// True when this drive injects any fault — such drives must run on a
    /// fresh worker group and may never return it to the pool.
    fn faulted(&self) -> bool {
        self.fault.is_some() || self.endpoint_fault.is_some()
    }
}

/// Runs `program` over `graph` on a worker group, returning the same
/// [`BspRunResult`] the in-memory engine returns — byte-identical values,
/// profile and halt reason — plus measured timings in
/// [`RunProfile::measured`](predict_bsp::RunProfile::measured).
///
/// `spec` must describe the same program as `program` (the driver keeps its
/// own instance for the master-side halt check; the workers build theirs
/// from the spec). `ranks` is the TOP-K input ranking and empty for every
/// other program.
pub fn drive<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    // Faulted groups die by design; never take one from (or return one to)
    // the shared pool.
    let mut group = if let Some((fw, schedule)) = &opts.endpoint_fault {
        if opts.kind != TransportKind::InProc {
            return Err(ClusterError::Spawn {
                worker: *fw,
                detail: "endpoint fault schedules require the in-process transport".into(),
            });
        }
        let (fw, schedule) = (*fw, schedule.clone());
        WorkerGroup::spawn_with(opts.kind, config.num_workers, |w| {
            Ok(if w == fw {
                Connection::spawn_inproc_faulty(w, schedule.clone())
            } else {
                Connection::spawn_inproc(w)
            })
        })?
    } else if opts.fault.is_some() {
        WorkerGroup::spawn(opts.kind, config.num_workers)?
    } else {
        transport::checkout(opts.kind, config.num_workers)?
    };
    let result = drive_on_group(program, spec, ranks, graph, config, opts, &mut group);
    if result.is_ok() && !opts.faulted() {
        transport::checkin(group);
    }
    // On error (or after a faulted drive) the group drops here, killing its
    // workers; its protocol state is unknown and must not be reused.
    result
}

/// Runs one drive on a caller-provided worker group — for tests and tools
/// that build groups through custom spawns (e.g. the loopback-TCP socket
/// variant). The group is consumed: healthy or not, it is never pooled.
pub fn drive_on<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
    mut group: WorkerGroup,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    drive_on_group(program, spec, ranks, graph, config, opts, &mut group)
}

/// Receives one frame from `conn`, requiring tag `want`; `Error` frames
/// become [`ClusterError::Remote`], anything else [`ClusterError::Protocol`].
fn expect_frame(
    conn: &mut Connection,
    want: u8,
    timeout: Duration,
) -> Result<Vec<u8>, ClusterError> {
    let (got, body) = conn.recv(timeout)?;
    if got == tag::ERROR {
        let message: String =
            decode_exact(&body).unwrap_or_else(|_| "<undecodable error frame>".into());
        return Err(ClusterError::Remote {
            worker: conn.worker(),
            message,
        });
    }
    if got != want {
        return Err(ClusterError::Protocol {
            worker: conn.worker(),
            detail: format!("expected frame tag {want:#04x}, got {got:#04x}"),
        });
    }
    Ok(body)
}

/// Sets up `group` for one run (INIT/INIT_OK), hands it to the BSP master
/// as a [`RemoteGroup`], and returns the master's result.
fn drive_on_group<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
    group: &mut WorkerGroup,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    let num_workers = config.num_workers;
    let layout = ShardLayout::build(graph.num_vertices(), num_workers, config.partition_strategy);
    let started = Instant::now();
    let _run_span = predict_obs::trace::span("cluster.run")
        .arg("transport", opts.kind.name())
        .arg("workers", num_workers);

    let GraphStorage::Sharded(shards) =
        GraphStorage::shard_graph(graph, num_workers, config.partition_strategy)
    else {
        unreachable!("shard_graph always builds sharded storage")
    };

    // Init every worker, then collect InitOk in ascending worker order.
    for (w, shard) in shards.iter().enumerate() {
        let header = InitHeader {
            protocol_version: protocol::PROTOCOL_VERSION,
            worker: w,
            num_workers,
            strategy: config.partition_strategy,
            program: spec.clone(),
            fault: match &opts.fault {
                Some((fw, fault)) if *fw == w => Some(*fault),
                _ => None,
            },
        };
        let body = protocol::encode_init(&header, shard, ranks);
        group.connections[w].send(tag::INIT, &body)?;
    }
    drop(shards);
    for conn in &mut group.connections {
        expect_frame(conn, tag::INIT_OK, opts.timeout)?;
    }

    let workers = RemoteGroup::<P> {
        group,
        layout: &layout,
        timeout: opts.timeout,
        transport: opts.kind.name(),
        started,
        pending: (0..num_workers).map(|_| Vec::new()).collect(),
        done: Vec::with_capacity(num_workers),
        wire_bytes: Vec::with_capacity(num_workers),
        wire_bytes_counter: predict_obs::registry().counter("cluster.wire_bytes"),
    };
    run_master(program, workers, &layout, config, graph.num_edges())
}

/// An initialized worker group as the BSP master's [`WorkerSet`]: each
/// superstep is one `Step`/`StepDone` round trip per worker, final values
/// come back as `Values` frames.
struct RemoteGroup<'g, P: VertexProgram> {
    group: &'g mut WorkerGroup,
    layout: &'g ShardLayout,
    timeout: Duration,
    transport: &'static str,
    started: Instant,
    /// Undelivered batches per destination worker. Filled from `StepDone`
    /// replies in ascending source order, drained into the next `Step`.
    pending: Vec<Vec<WireBatch<P::Message>>>,
    /// This superstep's `StepDone` replies (batches routed out), ascending
    /// worker order.
    done: Vec<StepDoneBody<P::Message>>,
    /// This superstep's step plus step-done frame bytes, per worker.
    wire_bytes: Vec<u64>,
    wire_bytes_counter: Arc<Counter>,
}

impl<P> WorkerSet for RemoteGroup<'_, P>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    type Value = P::VertexValue;
    type Error = ClusterError;

    fn transport(&self) -> Option<(&'static str, Instant)> {
        Some((self.transport, self.started))
    }

    fn superstep(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
    ) -> Result<impl Iterator<Item = WorkerReport<'_>>, ClusterError> {
        let num_workers = self.group.connections.len();
        self.wire_bytes.clear();

        // Fan the step out to every worker before reading any reply, so
        // workers compute concurrently.
        for (w, pending) in self.pending.iter_mut().enumerate() {
            let step = StepBody {
                superstep: superstep as u64,
                previous_aggregates: previous_aggregates.clone(),
                batches: std::mem::take(pending),
            };
            let body = encode_to_vec(&step);
            self.wire_bytes.push(body.len() as u64);
            self.group.connections[w]
                .send(tag::STEP, &body)
                .map_err(|e| e.at_superstep(superstep))?;
        }

        // Barrier: collect StepDone in ascending worker order.
        self.done.clear();
        for w in 0..num_workers {
            let body = expect_frame(&mut self.group.connections[w], tag::STEP_DONE, self.timeout)
                .map_err(|e| e.at_superstep(superstep))?;
            self.wire_bytes[w] += body.len() as u64;
            let mut done: StepDoneBody<P::Message> =
                decode_exact(&body).map_err(|e| ClusterError::from_wire(w, e))?;
            if done.superstep != superstep as u64 {
                return Err(ClusterError::Protocol {
                    worker: w,
                    detail: format!(
                        "step-done for superstep {} while collecting superstep {superstep} \
                         (duplicated or reordered barrier frame)",
                        done.superstep
                    ),
                });
            }
            // Route the worker's outbound batches; sources arrive ascending
            // and each source's batches are ascending by destination, so
            // every pending list stays sorted by source worker.
            for batch in std::mem::take(&mut done.batches) {
                let dst = batch.dst as usize;
                if dst >= num_workers || dst == w {
                    return Err(ClusterError::Protocol {
                        worker: w,
                        detail: format!("batch addressed to invalid worker {dst}"),
                    });
                }
                self.pending[dst].push(batch);
            }
            self.done.push(done);
        }
        self.wire_bytes_counter.add(self.wire_bytes.iter().sum());

        Ok(self
            .done
            .iter()
            .zip(&self.wire_bytes)
            .map(|(done, &wire_bytes)| WorkerReport {
                counters: done.counters,
                partial_aggregates: &done.partial_aggregates,
                all_halted: done.all_halted,
                compute_ns: done.compute_ns,
                wire_bytes,
            }))
    }

    /// Collects final values: one slot-ordered vector per worker, checked
    /// against the shard size the layout assigns it.
    fn finish(self) -> Result<Vec<Vec<P::VertexValue>>, ClusterError> {
        for conn in &mut self.group.connections {
            conn.send(tag::FINISH, &[])?;
        }
        let mut shards = Vec::with_capacity(self.group.connections.len());
        for (w, conn) in self.group.connections.iter_mut().enumerate() {
            let body = expect_frame(conn, tag::VALUES, self.timeout)?;
            let values: Vec<P::VertexValue> =
                decode_exact(&body).map_err(|e| ClusterError::from_wire(w, e))?;
            let expected = self.layout.shard_vertices(w).len();
            if values.len() != expected {
                return Err(ClusterError::Protocol {
                    worker: w,
                    detail: format!("expected {expected} values, got {}", values.len()),
                });
            }
            shards.push(values);
        }
        Ok(shards)
    }
}

/// Builds the shard this driver would send to `worker` — exposed for tests
/// and benches that exercise the wire format against real shards.
pub fn shard_for(graph: &CsrGraph, config: &BspConfig, worker: usize) -> ShardedCsr {
    let GraphStorage::Sharded(mut shards) =
        GraphStorage::shard_graph(graph, config.num_workers, config.partition_strategy)
    else {
        unreachable!("shard_graph always builds sharded storage")
    };
    shards.swap_remove(worker)
}
