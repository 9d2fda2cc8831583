//! The three scheduler workloads and their measurement.
//!
//! Every workload drives `PredictService` in a closed loop: a client sends
//! its next question only after the previous answer arrived. A run repeats
//! whole rounds — one round is one service lifetime over the workload's
//! query mix — for about `--seconds`, and every answer is checked against a
//! reference computed before the first round.

use crate::layers::{self, TimedSampler};
use crate::mix::{self, Datasets, MixSeed};
use crate::traced::{TraceState, TracedRound};
use predict_bsp::TransportMode;
use predict_core::{
    ArtifactStore, Evaluation, PredictError, PredictRequest, PredictService, PredictServiceConfig,
    Prediction, SessionStats,
};
use predict_graph::datasets::DatasetScale;
use predict_sampling::{BiasedRandomJump, Sampler};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Client threads of the two-client workloads: the container's core count.
const CLIENTS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdPredict,
    WarmRestart,
    SocketEvaluate,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Predict,
    Evaluate,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_predict" => Some(Self::ColdPredict),
            "warm_restart" => Some(Self::WarmRestart),
            "socket_evaluate" => Some(Self::SocketEvaluate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdPredict => "cold_predict",
            Self::WarmRestart => "warm_restart",
            Self::SocketEvaluate => "socket_evaluate",
        }
    }

    fn clients(self) -> usize {
        match self {
            Self::ColdPredict | Self::WarmRestart => CLIENTS,
            Self::SocketEvaluate => 1,
        }
    }

    /// `true`: every client sends the whole mix in the same order, so each
    /// query is asked once per client. `false`: the clients share one pass.
    fn every_client_sends_all(self) -> bool {
        self != Self::WarmRestart
    }

    /// Distinct round mixes. Rounds cycle through them, so a run sees
    /// several predictor seeds, and each mix runs about four times in a
    /// 20 s run (a round takes 1.6 s on `cold_predict`, 5 s on
    /// `socket_evaluate`), so the calm half of each mix's rounds has rounds
    /// to choose from.
    fn mixes(self) -> usize {
        match self {
            Self::ColdPredict => 3,
            Self::WarmRestart => 6,
            Self::SocketEvaluate => 1,
        }
    }

    fn op(self) -> Op {
        match self {
            Self::SocketEvaluate => Op::Evaluate,
            _ => Op::Predict,
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub scale: DatasetScale,
    pub seed: MixSeed,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupts one reference answer, so the correctness check must fail.
    pub tamper: bool,
    pub work_dir: PathBuf,
}

/// A metric as printed: name, value and unit.
pub type Metric = (String, f64, &'static str);

/// What one run prints: the result object plus the traced run's table.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub table: Vec<String>,
}

/// The comparable form of one answer.
pub struct Output {
    /// The store codec's encoding of the prediction or evaluation, with
    /// measured wall-clock timings removed.
    bytes: Vec<u8>,
    /// `MeasuredRun::transport` of an evaluation's actual run.
    transport: Option<String>,
}

fn canonical<T: Serialize>(value: &T) -> Vec<u8> {
    predict_store::encode_value(&value.serialize_value())
}

impl Output {
    pub fn prediction(p: &Prediction) -> Self {
        let mut p = p.clone();
        p.sample_profile.measured = None;
        Output {
            bytes: canonical(&p),
            transport: None,
        }
    }

    pub fn evaluation(mut e: Evaluation) -> Self {
        let transport = e.actual_profile.measured.take().map(|m| m.transport);
        e.prediction.sample_profile.measured = None;
        Output {
            bytes: canonical(&e),
            transport,
        }
    }
}

/// One answered (or failed) request.
struct Answer {
    query: usize,
    latency_ms: f64,
    result: Result<Output, String>,
}

/// Reference answers plus what producing them cost.
struct Reference {
    /// Canonical answer bytes, per mix and query.
    answers: Vec<Vec<Vec<u8>>>,
    /// Engine runs each mix needs with one client and one copy per query.
    runs_needed: Vec<u64>,
    /// Evaluations of the mix, the source of the quality metrics.
    evaluations: Vec<Evaluation>,
}

fn service(
    sampler: Arc<dyn Sampler>,
    transport: TransportMode,
    store: Option<&Path>,
) -> PredictService {
    let config = PredictServiceConfig {
        transport: Some(transport),
        store: store.map(Path::to_path_buf),
        ..PredictServiceConfig::default()
    };
    PredictService::with_config(predict_bench::experiment_engine(), sampler, config)
}

fn brj() -> Arc<dyn Sampler> {
    Arc::new(BiasedRandomJump::default())
}

fn ask(service: &PredictService, q: &PredictRequest, op: Op) -> Result<Output, PredictError> {
    match op {
        Op::Predict => service.submit(q).map(|p| Output::prediction(&p)),
        Op::Evaluate => service.evaluate(q).map(Output::evaluation),
    }
}

/// Sends the mix from the workload's client threads in a closed loop.
/// Panics are caught per request and reported as failures.
fn closed_loop(
    workload: Workload,
    n: usize,
    ask: &(dyn Fn(usize) -> Result<Output, String> + Sync),
) -> (Vec<Answer>, f64) {
    static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);
    let shared = AtomicUsize::new(0);
    let start = Instant::now();
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workload.clients())
            .map(|_| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let query = if workload.every_client_sends_all() {
                            out.len()
                        } else {
                            shared.fetch_add(1, Ordering::Relaxed)
                        };
                        if query >= n {
                            return out;
                        }
                        layers::set_request(NEXT_REQUEST.fetch_add(1, Ordering::Relaxed));
                        let sent = Instant::now();
                        let result = {
                            let _span = layers::span("request");
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ask(query)))
                                .unwrap_or_else(|payload| {
                                    Err(PredictError::from_panic(payload).to_string())
                                })
                        };
                        out.push(Answer {
                            query,
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            result,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads catch request panics"))
            .collect()
    });
    (answers, start.elapsed().as_secs_f64())
}

/// Reference answers, computed with one client and a fresh service per
/// mix, as the measured rounds use: the prediction workloads on a service
/// configured like the measured one (writing through to `store`), the
/// evaluate workload on an in-memory one.
///
/// The evaluations behind the quality metrics are the answers of the
/// evaluate workload; the prediction workloads compute them only with
/// `quality`, for the first mix, by evaluating its queries on the same
/// service, which reuses the cached predictions and adds the actual runs.
fn reference(
    workload: Workload,
    mixes: &[Vec<PredictRequest>],
    store: Option<&Path>,
    quality: bool,
) -> Result<Reference, String> {
    let mut out = Reference {
        answers: Vec::new(),
        runs_needed: Vec::new(),
        evaluations: Vec::new(),
    };
    for (m, queries) in mixes.iter().enumerate() {
        let reference = service(brj(), TransportMode::InMemory, store);
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let failed = |e: PredictError| format!("reference {}: {e}", mix::label(q));
            answers.push(match workload.op() {
                Op::Predict => Output::prediction(&reference.submit(q).map_err(failed)?).bytes,
                Op::Evaluate => {
                    let evaluation = reference.evaluate(q).map_err(failed)?;
                    out.evaluations.push(evaluation.clone());
                    Output::evaluation(evaluation).bytes
                }
            });
        }
        out.answers.push(answers);
        out.runs_needed.push(reference.engine().runs_executed());
        if quality && m == 0 && workload.op() == Op::Predict {
            for q in queries {
                let evaluation = reference
                    .evaluate(q)
                    .map_err(|e| format!("reference evaluation {}: {e}", mix::label(q)))?;
                out.evaluations.push(evaluation);
            }
        }
    }
    Ok(out)
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name:
/// `[0]` is the state, `[1]` the parent pid, `[11..15]` utime, stime,
/// cutime and cstime in clock ticks of 1/100 s.
fn proc_stat(path: &Path) -> Vec<u64> {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    stat.rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

/// CPU time, in seconds, of this process, its reaped children and its live
/// children: the socket transport's worker processes stay alive in a
/// process-wide pool, so their time is read from their own `stat` files.
fn cpu_seconds() -> f64 {
    let ticks = |fields: &[u64], range: std::ops::Range<usize>| -> u64 {
        range.filter_map(|i| fields.get(i)).sum()
    };
    let me = std::process::id() as u64;
    let mut total = ticks(&proc_stat(Path::new("/proc/self/stat")), 11..15);
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        if entry
            .file_name()
            .to_string_lossy()
            .bytes()
            .all(|b| b.is_ascii_digit())
        {
            let fields = proc_stat(&entry.path().join("stat"));
            if fields.get(1) == Some(&me) {
                total += ticks(&fields, 11..13);
            }
        }
    }
    total as f64 / 100.0
}

/// Resets the peak resident set `peak_rss_mb` reads to the current one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat`.
fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// What one measured round did and how long it took.
struct Round {
    mix: usize,
    requests: u64,
    wall_s: f64,
    cpu_s: f64,
    peak_mb: f64,
    /// Share of the machine's CPU time the hypervisor withheld during the
    /// round (`steal` in `/proc/stat`).
    steal: f64,
    /// `(query class, latency)` of every request; a class is a dataset and
    /// workload.
    latencies_ms: Vec<(String, f64)>,
}

/// The rounds the timing figures use: for each mix, the calmer half of its
/// rounds (at least one), by the CPU time the hypervisor withheld. On a
/// shared VM steal comes in bursts of seconds and slows every round it
/// hits, and selecting on steal, a measurement outside the program, keeps
/// every mix equally represented without favouring lucky rounds.
fn calm_rounds(rounds: &[Round]) -> Vec<&Round> {
    let mut by_mix: BTreeMap<usize, Vec<&Round>> = BTreeMap::new();
    for r in rounds {
        by_mix.entry(r.mix).or_default().push(r);
    }
    by_mix
        .into_values()
        .flat_map(|mut rs| {
            rs.sort_by(|a, b| a.steal.total_cmp(&b.steal));
            rs.truncate(rs.len().div_ceil(2));
            rs
        })
        .collect()
}

/// Totals over the rounds of one measured phase.
#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
    /// Engine runs the phase's rounds need with one client.
    runs_needed: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    engine_runs: u64,
    pool_threads: u64,
    quarantined: u64,
    cache_hits: u64,
    cache_misses: u64,
    session_store_hits: u64,
    /// Deltas of the `COUNTERS` registry counters.
    counters: [u64; 5],
}

impl Phase {
    fn rounds(&self) -> f64 {
        self.rounds.len() as f64
    }

    fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }

    fn qps(&self) -> f64 {
        self.attempted as f64 / self.wall_s()
    }

    fn add_session(&mut self, s: SessionStats) {
        self.cache_hits += s.hits;
        self.cache_misses += s.misses;
        self.session_store_hits += s.store_hits;
    }
}

/// The registry counters a phase reads, in `Phase::counters` order.
const COUNTERS: [&str; 5] = [
    "store.reads",
    "store.hits",
    "store.writes",
    "store.bytes",
    "bsp.runs",
];

fn registry_counters() -> [u64; 5] {
    let snapshot = predict_obs::registry().snapshot();
    COUNTERS.map(|n| snapshot.counter(n).unwrap_or(0))
}

struct Run<'a> {
    opts: &'a Options,
    datasets: Datasets,
    mixes: Vec<Vec<PredictRequest>>,
    reference: Reference,
    /// The filled store `warm_restart` restarts on.
    warm_store: PathBuf,
}

impl Run<'_> {
    /// A fresh service for one round, and the directory to remove after it.
    fn round_service(&self, sampler: Arc<dyn Sampler>) -> (PredictService, Option<PathBuf>) {
        match self.opts.workload {
            Workload::ColdPredict => {
                let dir = self.opts.work_dir.join("cold-store");
                let _ = std::fs::remove_dir_all(&dir);
                (
                    service(sampler, TransportMode::InMemory, Some(&dir)),
                    Some(dir),
                )
            }
            Workload::WarmRestart => (
                service(sampler, TransportMode::InMemory, Some(&self.warm_store)),
                None,
            ),
            Workload::SocketEvaluate => (service(sampler, TransportMode::Socket, None), None),
        }
    }

    /// Runs whole rounds until about `seconds` have passed: another round
    /// starts only while at least half a round's time is left.
    fn measure(&self, seconds: f64, traced: Option<&TraceState>) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        while phase.rounds.is_empty()
            || start.elapsed().as_secs_f64() + 0.5 * phase.wall_s() / phase.rounds() < seconds
        {
            let sampler: Arc<dyn Sampler> = match traced {
                Some(_) => Arc::new(TimedSampler(BiasedRandomJump::default())),
                None => brj(),
            };
            let (service, scratch_dir) = self.round_service(sampler);
            let op = self.opts.workload.op();
            let mix = phase.rounds.len() % self.mixes.len();
            let queries = &self.mixes[mix];
            let before = registry_counters();
            let cpu = cpu_seconds();
            let (steal, total) = machine_ticks();
            reset_peak_rss();
            let (answers, wall_s) = match traced {
                None => closed_loop(self.opts.workload, queries.len(), &|i| {
                    ask(&service, &queries[i], op).map_err(|e| e.to_string())
                }),
                Some(state) => {
                    let round =
                        TracedRound::new(state, self.opts.workload != Workload::WarmRestart);
                    closed_loop(self.opts.workload, queries.len(), &|i| {
                        round.ask(&service, &queries[i], op)
                    })
                }
            };
            let (steal_after, total_after) = machine_ticks();
            let round = Round {
                mix,
                requests: answers.len() as u64,
                wall_s,
                cpu_s: cpu_seconds() - cpu,
                peak_mb: peak_rss_mb(),
                steal: ratio((steal_after - steal) as f64, (total_after - total) as f64),
                latencies_ms: answers
                    .iter()
                    .map(|a| {
                        let q = &queries[a.query];
                        (format!("{}/{}", q.dataset, q.workload.name()), a.latency_ms)
                    })
                    .collect(),
            };
            let after = registry_counters();
            for i in 0..COUNTERS.len() {
                phase.counters[i] += after[i] - before[i];
            }
            self.check(mix, &answers, &mut phase);
            phase.runs_needed += self.reference.runs_needed[mix];
            let engine = service.engine();
            phase.engine_runs += engine.runs_executed();
            phase.pool_threads += engine.pool_threads_spawned();
            if let Some(store) = service.artifact_store() {
                phase.quarantined += store.quarantined_files() as u64;
            }
            for (dataset, graph) in &self.datasets.0 {
                phase.add_session(service.session_for(dataset.prefix(), graph).stats());
            }
            eprintln!(
                "[perfbench] round {} (mix {mix}): {} requests in {wall_s:.3} s, {} engine runs, \
                 peak {:.1} MiB, steal {:.1}%",
                phase.rounds.len(),
                answers.len(),
                engine.runs_executed(),
                round.peak_mb,
                round.steal * 100.0
            );
            phase.rounds.push(round);
            drop(service);
            if let Some(dir) = scratch_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        phase
    }

    fn check(&self, mix: usize, answers: &[Answer], phase: &mut Phase) {
        for answer in answers {
            phase.attempted += 1;
            let label = || mix::label(&self.mixes[mix][answer.query]);
            match &answer.result {
                Err(e) => {
                    phase.failed += 1;
                    eprintln!("[perfbench] request {} failed: {e}", label());
                }
                Ok(out) => {
                    let transport_ok = self.opts.workload != Workload::SocketEvaluate
                        || out.transport.as_deref() == Some("socket");
                    if out.bytes != self.reference.answers[mix][answer.query] || !transport_ok {
                        phase.mismatches += 1;
                        eprintln!(
                            "[perfbench] answer to {} differs from the reference (transport {:?})",
                            label(),
                            out.transport
                        );
                    }
                }
            }
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean over query classes of each class's median latency, over
/// `rounds`. Every class weighs the same however far apart their latencies
/// lie, so the figure moves smoothly where a median over all requests
/// would jump from one class to the next.
fn class_latency_ms(rounds: &[&Round]) -> f64 {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (class, ms) in rounds.iter().flat_map(|r| &r.latencies_ms) {
        by_class.entry(class).or_default().push(*ms);
    }
    let logs: Vec<f64> = by_class
        .values()
        .map(|v| median(v).max(1e-6).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set-up: generate the datasets and build the query mixes, `SETUP_REPS`
/// times. Returns the last build, each repetition's seconds and the mean
/// time in `DatasetConfig::generate` per repetition.
fn set_up(opts: &Options) -> (Datasets, Vec<Vec<PredictRequest>>, Vec<f64>, f64) {
    layers::set_enabled(opts.trace);
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let datasets = Datasets::generate(opts.scale);
        let mixes = mix::mixes(&datasets, opts.seed, opts.workload.mixes());
        seconds.push(start.elapsed().as_secs_f64());
        built = Some((datasets, mixes));
    }
    layers::set_enabled(false);
    let generate = layers::totals(&layers::drain())
        .get("graph.generate")
        .map_or(0.0, |t| t.self_ms() / SETUP_REPS as f64);
    let (datasets, mixes) = built.expect("SETUP_REPS is positive");
    (datasets, mixes, seconds, generate)
}

/// Runs one workload and assembles its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let (datasets, mixes, setup_s, generate_ms) = set_up(opts);

    let prep = Instant::now();
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("creating {}: {e}", opts.work_dir.display()))?;
    let warm_store = opts.work_dir.join("warm-store");
    let reference_store = match opts.workload {
        Workload::ColdPredict => Some(opts.work_dir.join("reference-store")),
        Workload::WarmRestart => Some(warm_store.clone()),
        Workload::SocketEvaluate => None,
    };
    let mut reference = reference(
        opts.workload,
        &mixes,
        reference_store.as_deref(),
        opts.trace,
    )?;
    if opts.workload == Workload::ColdPredict {
        let _ = std::fs::remove_dir_all(opts.work_dir.join("reference-store"));
    }
    if opts.tamper {
        reference.answers[0][0][0] ^= 0xFF;
    }
    eprintln!(
        "[perfbench] {}: {} mixes of {} queries, reference answers in {:.2} s ({} engine runs)",
        opts.workload.name(),
        mixes.len(),
        mixes[0].len(),
        prep.elapsed().as_secs_f64(),
        reference.runs_needed.iter().sum::<u64>()
    );
    let run = Run {
        opts,
        datasets,
        mixes,
        reference,
        warm_store,
    };

    let (plain, traced) = if opts.trace {
        // Half the time untraced (counters, overhead base), half traced.
        let plain = run.measure(opts.seconds / 2.0, None);
        let store_dir = opts.work_dir.join("trace-store");
        let store = ArtifactStore::open(&store_dir)
            .map_err(|e| format!("opening {}: {e}", store_dir.display()))?;
        let state = TraceState::new(store);
        layers::set_enabled(true);
        let traced = run.measure(opts.seconds / 2.0, Some(&state));
        layers::set_enabled(false);
        (plain, Some((traced, state)))
    } else {
        (run.measure(opts.seconds, None), None)
    };

    let phases = std::iter::once(&plain).chain(traced.as_ref().map(|(t, _)| t));
    let (mut attempted, mut failed, mut mismatches, mut engine_runs, mut quarantined) =
        (0, 0, 0, 0, 0);
    for p in phases {
        attempted += p.attempted;
        failed += p.failed;
        mismatches += p.mismatches;
        engine_runs += p.engine_runs;
        quarantined += p.quarantined;
    }
    let mut problems = Vec::new();
    if mismatches > 0 {
        problems.push(format!("{mismatches} answer(s) differ from the reference"));
    }
    if opts.workload == Workload::WarmRestart && engine_runs > 0 {
        problems.push(format!(
            "a restarted service executed {engine_runs} engine run(s)"
        ));
    }
    if quarantined > 0 {
        problems.push(format!("{quarantined} store file(s) quarantined"));
    }
    for p in &problems {
        eprintln!("[perfbench] check failed: {p}");
    }

    let (metrics, table) = match &traced {
        None => (end_to_end(&plain, &setup_s), Vec::new()),
        Some((traced, state)) => per_layer(&run, &plain, traced, state, generate_ms),
    };
    Ok(Report {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        table,
    })
}

/// Throughput, CPU time per request and class latency over the calm
/// rounds of a phase.
struct CalmFigures {
    qps: f64,
    cpu_ms_per_request: f64,
    latency_ms: f64,
}

fn calm_figures(phase: &Phase) -> CalmFigures {
    let calm = calm_rounds(&phase.rounds);
    let sum = |f: fn(&Round) -> f64| calm.iter().map(|r| f(r)).sum::<f64>();
    let requests = sum(|r| r.requests as f64);
    eprintln!(
        "[perfbench] timings from {} of {} rounds, steal {:.1}% in those against {:.1}% in all",
        calm.len(),
        phase.rounds.len(),
        sum(|r| r.steal) / calm.len() as f64 * 100.0,
        phase.rounds.iter().map(|r| r.steal).sum::<f64>() / phase.rounds() * 100.0
    );
    CalmFigures {
        qps: requests / sum(|r| r.wall_s),
        cpu_ms_per_request: sum(|r| r.cpu_s) * 1e3 / requests,
        latency_ms: class_latency_ms(&calm),
    }
}

fn end_to_end(plain: &Phase, setup_s: &[f64]) -> Vec<Metric> {
    let peaks: Vec<f64> = plain.rounds.iter().map(|r| r.peak_mb).collect();
    vec![
        (
            "cpu_ms_per_request".into(),
            calm_figures(plain).cpu_ms_per_request,
            "ms",
        ),
        ("setup_s".into(), median(setup_s), "s"),
        ("peak_rss_mb".into(), median(&peaks), "MiB"),
    ]
}

/// Per-layer metrics of a traced run, and its table. Span times come from
/// the traced phase, per request; counters from the untraced phase, per
/// round, since the traced path adds its own store traffic.
fn per_layer(
    run: &Run,
    plain: &Phase,
    traced: &Phase,
    state: &TraceState,
    generate_ms: f64,
) -> (Vec<Metric>, Vec<String>) {
    let spans = layers::totals(&layers::drain());
    let runs = *state.runs.lock().expect("run sums lock poisoned");
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let per_request = |name: &str| span(name).self_ms() / traced.attempted.max(1) as f64;
    let per_call = |name: &str| ratio(span(name).self_ms(), span(name).count as f64);
    let per_round = |v: u64| v as f64 / plain.rounds();
    let calm = calm_figures(plain);
    let measured = |v: u64| ratio(v as f64, runs.measured_runs as f64);
    let overhead_pct = (plain.qps() / traced.qps() - 1.0) * 100.0;
    let useful = if plain.engine_runs == 0 {
        1.0
    } else {
        plain.runs_needed as f64 / plain.engine_runs as f64
    };
    let quality = |f: fn(&Evaluation) -> f64| {
        median(
            &run.reference
                .evaluations
                .iter()
                .map(|e| f(e) * 100.0)
                .collect::<Vec<_>>(),
        )
    };

    let mut m: Vec<Metric> = vec![
        ("graph.generate_ms".into(), generate_ms, "ms"),
        (
            "sampling.draw_ms".into(),
            per_request("sampling.draw"),
            "ms",
        ),
    ];
    for stage in ["sample", "sample_run", "train", "extrapolate", "actual"] {
        m.push((
            format!("session.{stage}_ms"),
            per_request(&format!("session.{stage}")),
            "ms",
        ));
    }
    m.extend([
        (
            "session.engine_runs".into(),
            per_round(plain.engine_runs),
            "count",
        ),
        ("session.useful_run_ratio".into(), useful, "ratio"),
        (
            "session.cache_hit_ratio".into(),
            ratio(
                plain.cache_hits as f64,
                (plain.cache_hits + plain.cache_misses) as f64,
            ),
            "ratio",
        ),
        (
            "session.store_hits".into(),
            per_round(plain.session_store_hits),
            "count",
        ),
        ("service.throughput_qps".into(), calm.qps, "1/s"),
        ("service.latency_p50_ms".into(), calm.latency_ms, "ms"),
        (
            "service.session_bind_ms".into(),
            per_call("service.session_bind"),
            "ms",
        ),
        (
            "bsp.supersteps".into(),
            ratio(runs.supersteps as f64, runs.runs as f64),
            "count",
        ),
        (
            "bsp.messages_per_run".into(),
            ratio(runs.messages as f64, runs.runs as f64),
            "count",
        ),
        (
            "cluster.step_wall_ms".into(),
            measured(runs.step_wall_ns) / 1e6,
            "ms",
        ),
        (
            "cluster.step_compute_ms".into(),
            measured(runs.step_compute_ns) / 1e6,
            "ms",
        ),
        (
            "cluster.step_wait_ms".into(),
            measured(runs.step_wall_ns.saturating_sub(runs.step_compute_ns)) / 1e6,
            "ms",
        ),
        (
            "cluster.run_setup_ms".into(),
            measured(runs.total_wall_ns.saturating_sub(runs.step_wall_ns)) / 1e6,
            "ms",
        ),
        ("cluster.wire_bytes".into(), measured(runs.wire_bytes), "B"),
    ]);
    for kind in ["sample", "sample_run", "model", "actual_run"] {
        m.push((
            format!("store.put_ms.{kind}"),
            per_call(&format!("store.put.{kind}")),
            "ms",
        ));
        m.push((
            format!("store.get_ms.{kind}"),
            per_call(&format!("store.get.{kind}")),
            "ms",
        ));
    }
    let [reads, hits, writes, bytes, registry_runs] = plain.counters;
    m.extend([
        ("store.bytes_written".into(), per_round(bytes), "B"),
        ("store.writes".into(), per_round(writes), "count"),
        ("store.reads".into(), per_round(reads), "count"),
        (
            "store.hit_ratio".into(),
            ratio(hits as f64, reads as f64),
            "ratio",
        ),
        (
            "pool.threads_spawned".into(),
            per_round(plain.pool_threads),
            "count",
        ),
        (
            "predict.iter_err_p50_pct".into(),
            quality(|e| e.iteration_error().abs()),
            "%",
        ),
        (
            "predict.runtime_err_p50_pct".into(),
            quality(|e| e.runtime_error().abs()),
            "%",
        ),
        (
            "predict.sample_overhead_p50_pct".into(),
            quality(Evaluation::sample_overhead_ratio),
            "%",
        ),
        ("obs.trace_overhead_pct".into(), overhead_pct, "%"),
    ]);

    // The table: self time per span, busiest first, then the counters.
    let requests = traced.attempted.max(1) as f64;
    let all_ns: u64 = spans.values().map(|t| t.self_ns).sum();
    let mut table = vec![
        format!(
            "per-layer self time, {}: {} traced requests in {} round(s); counters from {} untraced requests in {} round(s)",
            run.opts.workload.name(),
            traced.attempted,
            traced.rounds(),
            plain.attempted,
            plain.rounds()
        ),
        format!(
            "{:<24} {:>7} {:>8} {:>11} {:>11} {:>7}",
            "span", "calls", "requests", "self ms", "ms/request", "share"
        ),
    ];
    let mut rows: Vec<_> = spans.iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in rows {
        table.push(format!(
            "{:<24} {:>7} {:>8} {:>11.1} {:>11.3} {:>6.1}%",
            name,
            t.count,
            t.requests,
            t.self_ms(),
            t.self_ms() / requests,
            ratio(t.self_ns as f64, all_ns as f64) * 100.0
        ));
    }
    table.extend(
        m.iter()
            .map(|(name, value, unit)| format!("{name:<32} {value:>14.4} {unit}")),
    );
    table.push(format!(
        "engine runs per round: {:.1} by BspEngine::runs_executed, {:.1} by the bsp.runs registry counter",
        per_round(plain.engine_runs),
        per_round(registry_runs)
    ));
    table.push(format!(
        "throughput untraced {:.3}/s, traced {:.3}/s: tracing overhead {overhead_pct:.1}%",
        plain.qps(),
        traced.qps()
    ));
    (m, table)
}
