//! The traced request path: one request split into the public calls of
//! each layer, with a benchmark span around every call.

use crate::bench::{Op, Output};
use crate::layers;
use predict_bsp::RunProfile;
use predict_core::{
    ArtifactKind, ArtifactStore, PredictError, PredictRequest, PredictService, PredictionSession,
    PredictorConfig, TransformFunction,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("benchmark bookkeeping lock poisoned")
}

/// Sums over the distinct engine runs a traced pass saw, read from the
/// `RunProfile` each run returned.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunSums {
    pub runs: u64,
    pub supersteps: u64,
    pub messages: u64,
    /// Runs that carry `RunProfile::measured` (transported runs).
    pub measured_runs: u64,
    pub step_wall_ns: u64,
    /// Per superstep, the slowest worker's compute time.
    pub step_compute_ns: u64,
    pub total_wall_ns: u64,
    pub wire_bytes: u64,
}

impl RunSums {
    fn add(&mut self, profile: &RunProfile) {
        self.runs += 1;
        self.supersteps += profile.supersteps.len() as u64;
        self.messages += profile
            .per_superstep_totals()
            .iter()
            .map(|t| t.local_messages + t.remote_messages)
            .sum::<u64>();
        if let Some(m) = &profile.measured {
            self.measured_runs += 1;
            self.step_wall_ns += m.supersteps.iter().map(|s| s.wall_ns).sum::<u64>();
            self.step_compute_ns += m
                .supersteps
                .iter()
                .map(|s| s.worker_compute_ns.iter().copied().max().unwrap_or(0))
                .sum::<u64>();
            self.total_wall_ns += m.total_wall_ns;
            self.wire_bytes += m.total_wire_bytes();
        }
    }
}

/// State shared by every traced round of a run.
pub struct TraceState {
    /// Benchmark-owned store the traced path writes returned artifacts to.
    store: ArtifactStore,
    /// Artifacts already written there: rounds repeat their mixes, and
    /// each artifact is written and read back once per run.
    persisted: Mutex<HashSet<String>>,
    pub runs: Mutex<RunSums>,
}

impl TraceState {
    pub fn new(store: ArtifactStore) -> Self {
        TraceState {
            store,
            persisted: Mutex::default(),
            runs: Mutex::default(),
        }
    }
}

/// Per-round bookkeeping of the traced path.
pub struct TracedRound<'a> {
    state: &'a TraceState,
    /// Call the training-ratio stages before `trained_model`, as a model
    /// miss does inside it. A warm restart reads the model from the store
    /// and never touches them.
    pre_train: bool,
    bound: Mutex<HashSet<String>>,
    /// Runs already counted, by artifact address: artifacts stay in the
    /// session caches, so alive, for the whole round.
    seen_runs: Mutex<HashSet<usize>>,
}

impl<'a> TracedRound<'a> {
    pub fn new(state: &'a TraceState, pre_train: bool) -> Self {
        TracedRound {
            state,
            pre_train,
            bound: Mutex::default(),
            seen_runs: Mutex::default(),
        }
    }

    fn note_run<T>(&self, artifact: &Arc<T>, profile: &RunProfile) {
        if lock(&self.seen_runs).insert(Arc::as_ptr(artifact) as *const u8 as usize) {
            lock(&self.state.runs).add(profile);
        }
    }

    /// Writes a returned artifact to the benchmark-owned store and reads it
    /// back, once per artifact and run, timing `put` and `get_typed`.
    fn persist<T: Serialize + Deserialize>(
        &self,
        kind: ArtifactKind,
        key: String,
        artifact: &T,
    ) -> Result<(), String> {
        if !lock(&self.state.persisted).insert(format!("{}|{key}", kind.name())) {
            return Ok(());
        }
        let (put, get) = match kind {
            ArtifactKind::Sample => ("store.put.sample", "store.get.sample"),
            ArtifactKind::SampleRun => ("store.put.sample_run", "store.get.sample_run"),
            ArtifactKind::Model => ("store.put.model", "store.get.model"),
            ArtifactKind::ActualRun => ("store.put.actual_run", "store.get.actual_run"),
        };
        {
            let _span = layers::span(put);
            self.state.store.put(kind, &key, 0, artifact)
        }
        .map_err(|e| format!("benchmark store put {key}: {e}"))?;
        let back = {
            let _span = layers::span(get);
            self.state.store.get_typed::<T>(kind, &key, 0)
        };
        back.map(|_| ())
            .ok_or_else(|| format!("benchmark store lost {key}"))
    }

    /// Answers one request through the session's public stage calls, in
    /// pipeline order: samples and sample runs, `trained_model`, then
    /// `predict_with` (or `actual_run` and `evaluate_with`), which finds
    /// every earlier stage cached and adds extrapolation.
    pub fn ask(
        &self,
        service: &PredictService,
        q: &PredictRequest,
        op: Op,
    ) -> Result<Output, String> {
        let err = |e: PredictError| e.to_string();
        let config = q.config.clone().unwrap_or_default();
        let workload = q.workload.as_ref();
        let token = workload.cache_token();
        let first = lock(&self.bound).insert(q.dataset.clone());
        let session: Arc<PredictionSession> = {
            let _span = layers::span(if first {
                "service.session_bind"
            } else {
                "service.session_for"
            });
            service.session_for(&q.dataset, &q.graph)
        };
        let transform = config
            .transform
            .unwrap_or_else(|| TransformFunction::default_for(workload.convergence()));
        for (i, (ratio, seed)) in stage_inputs(&config, self.pre_train)
            .into_iter()
            .enumerate()
        {
            let sample = {
                let _span = layers::span("session.sample");
                session.sample_artifact(ratio, seed)
            };
            let sample = match sample {
                Ok(s) => s,
                // Training ratios too small for the dataset are skipped.
                Err(e) if i > 0 && e.is_empty_sample() => continue,
                Err(e) => return Err(err(e)),
            };
            let prefix = format!("{}|{ratio}|{seed}", q.dataset);
            self.persist(ArtifactKind::Sample, prefix.clone(), sample.as_ref())?;
            let run = {
                let _span = layers::span("session.sample_run");
                session.sample_run(workload, ratio, seed, transform)
            }
            .map_err(err)?;
            self.note_run(&run, &run.profile);
            self.persist(
                ArtifactKind::SampleRun,
                format!("{prefix}|{token}"),
                run.as_ref(),
            )?;
        }
        let model = {
            let _span = layers::span("session.train");
            session.trained_model(workload, &config)
        }
        .map_err(err)?;
        let key = format!("{}|{token}|{}", q.dataset, config.fingerprint());
        self.persist(ArtifactKind::Model, key, model.as_ref())?;
        match op {
            Op::Predict => {
                let _span = layers::span("session.extrapolate");
                session
                    .predict_with(workload, &config)
                    .map(|p| Output::prediction(&p))
            }
            Op::Evaluate => {
                let actual = {
                    let _span = layers::span("session.actual");
                    session.actual_run(workload)
                };
                self.note_run(&actual, &actual.profile);
                self.persist(
                    ArtifactKind::ActualRun,
                    format!("{}|{token}", q.dataset),
                    actual.as_ref(),
                )?;
                let _span = layers::span("session.extrapolate");
                session
                    .evaluate_with(workload, &config)
                    .map(Output::evaluation)
            }
        }
        .map_err(err)
    }
}

/// `(ratio, seed)` of the sample and sample-run calls of one prediction:
/// the sampling ratio with the configured seed, then (with `training`)
/// each other training ratio `i` with seed `seed + 1 + i`, as the session's
/// training stage derives them.
fn stage_inputs(config: &PredictorConfig, training: bool) -> Vec<(f64, u64)> {
    let mut out = vec![(config.sampling_ratio, config.seed)];
    if training {
        for (i, &ratio) in config.training_ratios.iter().enumerate() {
            if (ratio - config.sampling_ratio).abs() >= 1e-12 {
                out.push((ratio, config.seed.wrapping_add(1 + i as u64)));
            }
        }
    }
    out
}
