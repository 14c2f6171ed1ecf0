//! Parallel fan-out for independent simulation runs.
//!
//! Multi-run experiments (fig6, fig8–fig11, failures, soft-deadlines)
//! describe every run up front as a [`RunRequest`] and hand the whole
//! batch to [`run_batch`], which fans the simulations across a rayon
//! worker pool. Each simulation is a pure function of its inputs and the
//! results come back **in request order**, so reports — and therefore the
//! rendered tables — are byte-identical regardless of worker count.
//! `--jobs 1` degenerates to today's sequential loop on the calling
//! thread.

use std::sync::Arc;

use elasticflow_cluster::ClusterSpec;
use elasticflow_sim::{SimConfig, SimReport};
use elasticflow_trace::Trace;
use rayon::prelude::*;

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

/// Configures the global worker pool to `n` threads. Must be called
/// before the first [`run_batch`]; calling it again with the same value
/// is a no-op, with a different value an error.
pub fn set_jobs(n: usize) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .map_err(|e| e.to_string())
}

/// The worker count [`run_batch`] will use on this thread.
pub fn jobs() -> usize {
    rayon::current_num_threads()
}

/// Runs every request across the worker pool, instrumented as the
/// installed [`crate::instrument::RunSettings`] ask, and returns the
/// reports in request order. Each simulation is deterministic in its
/// inputs and the collection is index-ordered, so the output is
/// independent of the worker count.
pub fn run_batch(requests: Vec<RunRequest>) -> Vec<SimReport> {
    let settings = crate::instrument::installed();
    requests
        .into_par_iter()
        .map(|req| {
            crate::instrument::run(&req.scheduler, &req.spec, &req.config, &req.trace, settings)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::scheduler_by_name;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_sim::Simulation;
    use elasticflow_trace::TraceConfig;

    #[test]
    fn batch_results_match_sequential_runs_in_order() {
        let spec = ClusterSpec::small_testbed();
        let trace =
            Arc::new(TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec)));
        let names = ["edf", "gandiva", "elasticflow"];
        let requests = names
            .iter()
            .map(|n| RunRequest::new(n, &spec, &trace))
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .expect("standalone pools always build");
        let parallel = pool.install(|| run_batch(requests));
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
