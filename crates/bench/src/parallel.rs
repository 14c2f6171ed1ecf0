//! Parallel fan-out for independent simulation runs.
//!
//! Multi-run experiments (fig6, fig8–fig11, failures, soft-deadlines)
//! describe every run up front as a [`RunRequest`] and hand the whole
//! batch to [`run_batch`], which fans the simulations across `--jobs`
//! scoped worker threads (`std::thread::scope`). Workers claim requests
//! by index and each report is filed under its request's index, so the
//! results come back **in request order** however the threads are
//! scheduled. Each simulation is a pure function of its inputs, so the
//! reports, and therefore the rendered tables, are byte-identical for any
//! worker count. `--jobs 1` is a plain sequential loop on the calling
//! thread.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use elasticflow_cluster::ClusterSpec;
use elasticflow_sim::{SimConfig, SimReport};
use elasticflow_trace::Trace;

use crate::instrument::RunSettings;

/// One independent simulation to run: a scheduler name, a cluster, a
/// trace, and the simulator config. Traces are shared via `Arc` because
/// one trace typically serves a whole roster of schedulers.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Roster name of the scheduler to instantiate.
    pub scheduler: String,
    /// Cluster to simulate on.
    pub spec: ClusterSpec,
    /// Workload trace.
    pub trace: Arc<Trace>,
    /// Simulator config (failure injection, slot length, overheads).
    pub config: SimConfig,
}

impl RunRequest {
    /// A default-config run (the common case).
    pub fn new(scheduler: &str, spec: &ClusterSpec, trace: &Arc<Trace>) -> Self {
        RunRequest::with_config(scheduler, spec, trace, SimConfig::default())
    }

    /// A run with an explicit simulator config (e.g. failure injection).
    pub fn with_config(
        scheduler: &str,
        spec: &ClusterSpec,
        trace: &Arc<Trace>,
        config: SimConfig,
    ) -> Self {
        RunRequest {
            scheduler: scheduler.to_owned(),
            spec: spec.clone(),
            trace: Arc::clone(trace),
            config,
        }
    }
}

/// The worker count [`run_batch`] uses: the installed `--jobs`, else the
/// available cores.
pub fn jobs() -> usize {
    workers(crate::instrument::installed())
}

fn workers(settings: &RunSettings) -> usize {
    settings
        .jobs
        .or_else(|| thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
}

/// Runs every request on [`jobs`] workers, instrumented as the installed
/// [`RunSettings`] ask, and returns the reports in request order. Each
/// simulation is deterministic in its inputs, so the output is
/// independent of the worker count.
pub fn run_batch(requests: Vec<RunRequest>) -> Vec<SimReport> {
    run_batch_with(&requests, crate::instrument::installed())
}

fn run_batch_with(requests: &[RunRequest], settings: &RunSettings) -> Vec<SimReport> {
    fan_out(requests, workers(settings), |req| {
        crate::instrument::run(&req.scheduler, &req.spec, &req.config, &req.trace, settings)
    })
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in item order. Workers claim the next index from a shared
/// counter, so each item runs exactly once, and a result is filed under
/// its item's index whichever worker finishes first. With one worker or
/// one item this is a plain loop on the calling thread. A worker's panic
/// is re-raised on the caller.
fn fan_out<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data, it only
                        // hands out indices; results return through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::scheduler_by_name;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_sim::Simulation;
    use elasticflow_trace::TraceConfig;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// A generous bound on a rendezvous that a correct fan-out reaches in
    /// microseconds; a broken one fails the test instead of hanging it.
    const STALL: Duration = Duration::from_secs(10);

    #[test]
    fn fan_out_returns_results_in_request_order_and_runs_each_item_once() {
        const N: usize = 6;
        for workers in [1, 2, 3, 8] {
            let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            let (finished, progress) = (Mutex::new(Vec::new()), Condvar::new());
            let items: Vec<usize> = (0..N).collect();
            let out = fan_out(&items, workers, |&i| {
                // With two or more workers, item 0 waits for the last item
                // to finish, so it completes after every other item.
                if i == 0 && workers > 1 {
                    let done = finished.lock().unwrap();
                    drop(progress.wait_timeout_while(done, STALL, |d| !d.contains(&(N - 1))));
                }
                runs[i].fetch_add(1, Ordering::Relaxed);
                finished.lock().unwrap().push(i);
                progress.notify_all();
                i * 10
            });
            assert!(fan_out(&[0u8; 0], workers, |&b| b).is_empty());
            assert_eq!(out, [0, 10, 20, 30, 40, 50], "{workers} workers");
            let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
            assert_eq!(counts, [1; N], "{workers} workers");
            let finished = finished.into_inner().unwrap();
            if workers == 1 {
                assert_eq!(finished, items);
            } else {
                assert_eq!(finished.last(), Some(&0), "{workers} workers: {finished:?}");
            }
        }
    }

    #[test]
    fn fan_out_runs_on_the_requested_number_of_workers() {
        let caller = thread::current().id();
        for workers in [1, 2, 3, 8] {
            // Every item holds its worker until `workers` items are in
            // flight at once, which only `workers` distinct threads reach.
            let (arrived, all_in) = (Mutex::new(0), Condvar::new());
            let ids = fan_out(&vec![(); workers], workers, |()| {
                let mut n = arrived.lock().unwrap();
                *n += 1;
                all_in.notify_all();
                drop(all_in.wait_timeout_while(n, STALL, |n| *n < workers));
                thread::current().id()
            });
            let distinct = ids
                .iter()
                .enumerate()
                .filter(|&(k, id)| !ids[..k].contains(id))
                .count();
            assert_eq!(distinct, workers, "{ids:?}");
            if workers == 1 {
                assert_eq!(ids, [caller], "one worker runs on the calling thread");
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 2 failed")]
    fn fan_out_propagates_a_worker_panic() {
        fan_out(&[0, 1, 2, 3], 2, |&i| assert_ne!(i, 2, "item {i} failed"));
    }

    #[test]
    fn jobs_setting_is_the_worker_count() {
        let jobs = |n| RunSettings {
            jobs: NonZeroUsize::new(n),
            ..RunSettings::default()
        };
        assert_eq!(workers(&jobs(1)), 1);
        assert_eq!(workers(&jobs(3)), 3);
        let cores = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(workers(&RunSettings::default()), cores);
    }

    #[test]
    fn batch_results_match_sequential_runs_in_order() {
        let spec = ClusterSpec::small_testbed();
        let trace =
            Arc::new(TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec)));
        let names = ["edf", "gandiva", "elasticflow"];
        let requests: Vec<RunRequest> = names
            .iter()
            .map(|n| RunRequest::new(n, &spec, &trace))
            .collect();
        let settings = RunSettings {
            jobs: NonZeroUsize::new(3),
            ..RunSettings::default()
        };
        let parallel = run_batch_with(&requests, &settings);
        for (name, report) in names.iter().zip(&parallel) {
            assert_eq!(report, &crate::run_one(name, &spec, &trace));
        }
    }

    #[test]
    fn config_requests_use_the_given_config() {
        use elasticflow_sim::FailureSchedule;
        let spec = ClusterSpec::small_testbed();
        let trace =
            Arc::new(TraceConfig::testbed_small(5).generate(&Interconnect::from_spec(&spec)));
        let horizon = trace.span() * 1.5;
        let failures = FailureSchedule::poisson(spec.servers, 3_600.0, 600.0, horizon, 0xFA11);
        let cfg = SimConfig::default().with_failures(failures);
        let reports = run_batch(vec![
            RunRequest::new("elasticflow", &spec, &trace),
            RunRequest::with_config("elasticflow", &spec, &trace, cfg.clone()),
        ]);
        let mut scheduler = scheduler_by_name("elasticflow");
        let expected = Simulation::new(spec.clone(), cfg).run(&trace, scheduler.as_mut());
        assert_eq!(reports[1], expected);
    }
}
