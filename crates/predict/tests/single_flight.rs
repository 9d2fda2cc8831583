//! Concurrency must not change the work a service does: each sample, sample
//! run, model and actual run is computed once per process, whatever the
//! client count, and concurrent clients get the bytes one client gets.
//!
//! Every test runs its service in a helper thread and waits with a time
//! bound, so a deadlock fails the test instead of hanging the suite.

use predict_algorithms::{
    ConnectedComponentsWorkload, ConvergenceKind, PageRankWorkload, Workload, WorkloadRun,
};
use predict_bsp::{BspConfig, BspEngine, ExecutionMode};
use predict_core::{
    PredictError, PredictRequest, PredictService, PredictServiceConfig, PredictorConfig,
    SessionStats,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;
use predict_sampling::BiasedRandomJump;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Generous against a healthy run (well under a second per test on two
/// cores); a deadlocked run never finishes at all.
const TIME_BOUND: Duration = Duration::from_secs(120);

/// Runs `f` on a helper thread and fails if it does not finish in time. A
/// panic inside `f` is re-raised here with its own message.
fn within_bound<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(TIME_BOUND) {
        Ok(value) => {
            helper.join().expect("helper thread finished after sending");
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(helper.join().expect_err("helper thread panicked"))
        }
        // The helper stays blocked; the failing test ends the wait.
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what} did not finish within {TIME_BOUND:?}: deadlock?")
        }
    }
}

/// An engine whose every run fans its superstep phases out onto the
/// persistent pool, whatever `PREDICT_THREADS` says: the
/// nested-scope shape in which a slot holder waits on its own superstep
/// scope while other request tasks wait on its slot.
fn pooled_service() -> PredictService {
    let engine = BspEngine::new(BspConfig {
        num_workers: 4,
        execution: ExecutionMode::Parallel { threads: 4 },
        ..BspConfig::default()
    });
    PredictService::new(engine, Arc::new(BiasedRandomJump::default()))
}

fn datasets() -> Vec<(String, Arc<CsrGraph>)> {
    (0..3)
        .map(|i| {
            let graph = generate_rmat(&RmatConfig::new(11, 8).with_seed(40 + i));
            (format!("rmat-{i}"), Arc::new(graph))
        })
        .collect()
}

/// Every dataset × {PageRank, CC}, each query `copies` times in a row, so
/// concurrent clients ask for the same artifacts at the same moment.
fn duplicate_requests(datasets: &[(String, Arc<CsrGraph>)], copies: usize) -> Vec<PredictRequest> {
    let mut requests = Vec::new();
    for (label, graph) in datasets {
        let workloads: [Arc<dyn Workload>; 2] = [
            Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
            Arc::new(ConnectedComponentsWorkload),
        ];
        for workload in workloads {
            for _ in 0..copies {
                requests.push(PredictRequest::new(
                    label,
                    Arc::clone(graph),
                    Arc::clone(&workload),
                ));
            }
        }
    }
    requests
}

/// A session's statistics without `scratch_allocations`, which follows the
/// peak number of concurrent draws and so legitimately varies with the
/// client count.
fn work_stats(stats: SessionStats) -> SessionStats {
    SessionStats {
        scratch_allocations: 0,
        ..stats
    }
}

fn session_stats(
    service: &PredictService,
    datasets: &[(String, Arc<CsrGraph>)],
) -> Vec<SessionStats> {
    datasets
        .iter()
        .map(|(label, graph)| work_stats(service.session_for(label, graph).stats()))
        .collect()
}

#[test]
fn a_pooled_batch_of_duplicate_requests_finishes_and_runs_each_artifact_once() {
    let (parallel_runs, sequential_runs) = within_bound("pooled duplicate batch", || {
        let datasets = datasets();
        let requests = duplicate_requests(&datasets, 3);
        let run = |threads: usize| {
            let service = pooled_service();
            let results = service.submit_batch(&requests, threads);
            assert!(results.iter().all(Result::is_ok), "{results:?}");
            service.engine().runs_executed()
        };
        (run(4), run(1))
    });
    assert_eq!(parallel_runs, sequential_runs);
}

#[test]
fn client_count_changes_neither_the_work_nor_the_bytes() {
    let outcomes = within_bound("1/2/8-client runs", || {
        let datasets = datasets();
        let requests = Arc::new(duplicate_requests(&datasets, 2));
        [1, 2, 8].map(|clients| {
            let service = Arc::new(pooled_service());
            let next = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (service, requests, next) = (
                        Arc::clone(&service),
                        Arc::clone(&requests),
                        Arc::clone(&next),
                    );
                    std::thread::spawn(move || {
                        let mut answered = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(request) = requests.get(i) else {
                                return answered;
                            };
                            let prediction = service.submit(request).expect("prediction");
                            answered.push((i, serde_json::to_string(&prediction).unwrap()));
                        }
                    })
                })
                .collect();
            let mut predictions = vec![String::new(); requests.len()];
            for handle in handles {
                for (i, json) in handle.join().expect("client thread") {
                    predictions[i] = json;
                }
            }
            (
                clients,
                service.engine().runs_executed(),
                session_stats(&service, &datasets),
                predictions,
            )
        })
    });
    let (_, runs, stats, predictions) = &outcomes[0];
    for (clients, other_runs, other_stats, other_predictions) in &outcomes[1..] {
        assert_eq!(other_runs, runs, "{clients} clients: engine runs");
        assert_eq!(other_stats, stats, "{clients} clients: session stats");
        assert!(
            other_predictions == predictions,
            "{clients} clients: predictions differ from one client's"
        );
    }
}

/// PageRank whose first execution, across all copies sharing `armed`,
/// panics — once a second request is on its way to the same sample-run
/// slot, so that request must recover the poisoned slot and compute.
#[derive(Debug)]
struct PanicsOnce {
    inner: Arc<dyn Workload>,
    armed: Arc<AtomicBool>,
    /// Calls to `cache_token`: a request computes its sample-run key, and
    /// so calls it, right before it locks that key's slot.
    lookups: Arc<(Mutex<usize>, Condvar)>,
}

impl Workload for PanicsOnce {
    fn name(&self) -> &'static str {
        "PANICS_ONCE"
    }
    fn cache_token(&self) -> String {
        let (count, arrived) = &*self.lookups;
        *count.lock().expect("lookup counter") += 1;
        arrived.notify_all();
        format!("PANICS_ONCE#{}", self.inner.cache_token())
    }
    fn convergence(&self) -> ConvergenceKind {
        self.inner.convergence()
    }
    fn threshold(&self) -> f64 {
        self.inner.threshold()
    }
    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload> {
        Box::new(Self {
            inner: Arc::from(self.inner.with_threshold(threshold)),
            armed: Arc::clone(&self.armed),
            lookups: Arc::clone(&self.lookups),
        })
    }
    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        if self.armed.swap(false, Ordering::SeqCst) {
            let (count, arrived) = &*self.lookups;
            let count = count.lock().expect("lookup counter");
            let _ = arrived.wait_timeout_while(count, TIME_BOUND, |n| *n < 2);
            panic!("first execution fails");
        }
        self.inner.run(engine, graph)
    }
}

#[test]
fn a_panicking_fill_fails_its_own_request_and_the_waiter_computes() {
    let results = within_bound("panicking fill", || {
        let graph = Arc::new(generate_rmat(&RmatConfig::new(11, 8).with_seed(40)));
        let workload: Arc<dyn Workload> = Arc::new(PanicsOnce {
            inner: Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
            armed: Arc::new(AtomicBool::new(true)),
            lookups: Arc::default(),
        });
        let request = PredictRequest::new("rmat", Arc::clone(&graph), workload)
            .with_config(PredictorConfig::single_ratio(0.1));
        let service = PredictService::with_config(
            BspEngine::new(BspConfig::with_workers(4)),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig::default(),
        );
        service.submit_batch(&[request.clone(), request], 2)
    });
    let panicked = results
        .iter()
        .filter(|r| {
            matches!(r, Err(PredictError::WorkerPanicked { message })
                if message.contains("first execution fails"))
        })
        .count();
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!((panicked, succeeded), (1, 1), "{results:?}");
}
