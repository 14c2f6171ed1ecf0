//! Runtime invariant auditor — the dynamic counterpart of the
//! `elasticflow-lint` static pass.
//!
//! In every debug build the [`InvariantAuditor`] joins the engine's
//! observer chain as a [`SimObserver`] (see
//! [`crate::Simulation::run_observed`]) and cross-checks the cluster's
//! allocation state against the job table on every
//! [`SimObserver::on_replan`] hook, so every simulation a debug
//! `cargo test` runs is audited. A violated invariant panics immediately
//! with a structured diagnostic: GPU accounting past such a point is
//! wrong, and a silently corrupted report is worse than no report.
//! Release builds compile the hook away.
//!
//! The invariants audited here are the *structural* ones every scheduler
//! must uphold. The guarantee-specific invariants of ElasticFlow's
//! admission control (SLO feasibility, reserved minimum-share floors) live
//! in `elasticflow-core`'s own `audit` module, at the layer that owns the
//! guarantee.

use elasticflow_cluster::ClusterState;
use elasticflow_sched::{JobTable, ReplanOutcome};
use elasticflow_trace::JobId;

use crate::observer::{SimContext, SimObserver};

/// Audits structural cluster/job-table invariants after each replan.
///
/// Implements [`SimObserver`]; the engine attaches it in debug builds. The
/// tests below also call [`InvariantAuditor::check_cluster`] directly
/// against hand-built state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct InvariantAuditor;

impl SimObserver for InvariantAuditor {
    fn on_replan(&mut self, now: f64, _outcome: &ReplanOutcome, ctx: &SimContext<'_>) {
        Self::check_cluster(ctx.cluster, ctx.jobs, ctx.phantom_base, now);
    }
}

/// Aborts the run with a structured diagnostic on a violated invariant.
#[cold]
#[expect(
    clippy::panic,
    reason = "the auditor's entire purpose is a loud structured abort on a violated \
              invariant: continuing would hand back a corrupted report"
)]
fn audit_fail(invariant: &str, detail: &str, now: f64) -> ! {
    panic!("invariant audit failed at t={now:.3}s\n  invariant: {invariant}\n  detail:    {detail}")
}

impl InvariantAuditor {
    /// Checks every structural invariant. `phantom_base` is the owner-tag
    /// threshold above which blocks stand in for failed servers rather
    /// than jobs.
    ///
    /// # Panics
    ///
    /// Panics with a structured diagnostic on the first violation found.
    pub(crate) fn check_cluster(
        cluster: &ClusterState,
        jobs: &JobTable,
        phantom_base: u64,
        now: f64,
    ) {
        Self::check_capacity(cluster, now);
        Self::check_placements(cluster, now);
        Self::check_job_agreement(cluster, jobs, phantom_base, now);
    }

    /// Total allocated GPUs never exceed capacity, and the buddy
    /// allocator's idle counter agrees with the sum of live blocks.
    fn check_capacity(cluster: &ClusterState, now: f64) {
        let placed: u32 = cluster.iter().map(|(_, block)| block.size()).sum();
        if placed > cluster.capacity() {
            audit_fail(
                "total allocated GPUs <= cluster capacity",
                &format!(
                    "placed {placed} GPUs on a {}-GPU cluster",
                    cluster.capacity()
                ),
                now,
            );
        }
        if placed != cluster.used_gpus() {
            audit_fail(
                "placement sum == used-GPU counter",
                &format!(
                    "blocks cover {placed} GPUs but the allocator reports {} used",
                    cluster.used_gpus()
                ),
                now,
            );
        }
    }

    /// Every block is aligned to its power-of-two size — i.e. it is a
    /// subtree of the GPU hierarchy (paper §4.3).
    fn check_placements(cluster: &ClusterState, now: f64) {
        for (owner, block) in cluster.iter() {
            let (n, first) = (block.size(), block.offset());
            if first % n != 0 {
                audit_fail(
                    "placements are buddy-aligned",
                    &format!("owner {owner}: block of {n} starts at GPU {first}"),
                    now,
                );
            }
        }
    }

    /// The job table and the cluster agree: every active job with workers
    /// holds a block of exactly that size, and every non-phantom block
    /// belongs to an active job.
    fn check_job_agreement(cluster: &ClusterState, jobs: &JobTable, phantom_base: u64, now: f64) {
        for job in jobs.iter() {
            if job.is_active() && job.current_gpus > 0 {
                match cluster.block_of(job.id().raw()) {
                    Some(block) if block.size() == job.current_gpus => {}
                    Some(block) => audit_fail(
                        "job worker counts match their placements",
                        &format!(
                            "job {} runs {} workers but holds a {}-GPU block",
                            job.id(),
                            job.current_gpus,
                            block.size()
                        ),
                        now,
                    ),
                    None => audit_fail(
                        "running jobs hold a placement",
                        &format!(
                            "job {} runs {} workers but holds no GPUs",
                            job.id(),
                            job.current_gpus
                        ),
                        now,
                    ),
                }
            }
        }
        for (owner, block) in cluster.iter() {
            if owner >= phantom_base {
                continue; // fenced-off failed server, not a job
            }
            match jobs.get(JobId::new(owner)) {
                Some(job) if job.is_active() && job.current_gpus == block.size() => {}
                Some(job) => audit_fail(
                    "placements belong to active jobs of matching size",
                    &format!(
                        "owner {owner} holds {} GPUs but job state is active={} workers={}",
                        block.size(),
                        job.is_active(),
                        job.current_gpus
                    ),
                    now,
                ),
                None => audit_fail(
                    "placements belong to known jobs",
                    &format!(
                        "owner {owner} holds {} GPUs but is not in the job table",
                        block.size()
                    ),
                    now,
                ),
            }
        }
    }
}

/// Negative tests: deliberately broken cluster/job-table states must be
/// caught, proving the auditor is not vacuous.
#[cfg(test)]
mod tests {
    use elasticflow_cluster::{ClusterSpec, ClusterState};
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_sched::{JobRuntime, JobTable, ReplanOutcome, SchedulePlan};
    use elasticflow_trace::{JobId, JobSpec};

    use super::InvariantAuditor;
    use crate::observer::{SimContext, SimObserver};

    const PHANTOM_BASE: u64 = u64::MAX / 2;

    fn cluster() -> ClusterState {
        ClusterState::new(ClusterSpec::with_servers(2, 8).total_gpus())
    }

    fn runtime(id: u64) -> JobRuntime {
        let spec = JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
            .iterations(1000.0)
            .build();
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        JobRuntime::new(spec, curve)
    }

    #[test]
    fn consistent_state_passes() {
        let mut cluster = cluster();
        cluster.allocate(1, 4).expect("idle cluster");
        let mut jobs = JobTable::new();
        let mut job = runtime(1);
        job.admitted = true;
        job.current_gpus = 4;
        jobs.insert(job);
        InvariantAuditor::check_cluster(&cluster, &jobs, PHANTOM_BASE, 0.0);
    }

    #[test]
    #[should_panic(expected = "invariant audit failed")]
    fn placement_without_a_job_is_caught() {
        let mut cluster = cluster();
        cluster.allocate(5, 4).expect("idle cluster");
        let jobs = JobTable::new();
        InvariantAuditor::check_cluster(&cluster, &jobs, PHANTOM_BASE, 0.0);
    }

    #[test]
    #[should_panic(expected = "invariant audit failed")]
    fn running_job_without_gpus_is_caught() {
        let cluster = cluster();
        let mut jobs = JobTable::new();
        let mut job = runtime(1);
        job.admitted = true;
        job.current_gpus = 2;
        jobs.insert(job);
        InvariantAuditor::check_cluster(&cluster, &jobs, PHANTOM_BASE, 0.0);
    }

    #[test]
    #[should_panic(expected = "invariant audit failed")]
    fn size_mismatch_is_caught() {
        let mut cluster = cluster();
        cluster.allocate(1, 8).expect("idle cluster");
        let mut jobs = JobTable::new();
        let mut job = runtime(1);
        job.admitted = true;
        job.current_gpus = 2;
        jobs.insert(job);
        InvariantAuditor::check_cluster(&cluster, &jobs, PHANTOM_BASE, 0.0);
    }

    #[test]
    #[should_panic(expected = "invariant audit failed")]
    fn observer_hook_fires_on_corrupted_state() {
        // The auditor must catch corruption through the same SimObserver seam
        // the engine drives, not only via direct check_cluster calls: here a
        // placement with no owning job reaches it through on_replan.
        let mut cluster = cluster();
        cluster.allocate(5, 4).expect("idle cluster");
        let jobs = JobTable::new();
        let ctx = SimContext::new(&cluster, &jobs, 16, 0, 0, 0, PHANTOM_BASE);
        let outcome = ReplanOutcome {
            plan: SchedulePlan::new(),
            resized_jobs: 0,
            migrations: 0,
            pause_seconds: 0.0,
        };
        InvariantAuditor.on_replan(0.0, &outcome, &ctx);
    }

    #[test]
    fn observer_hook_accepts_consistent_state() {
        let mut cluster = cluster();
        cluster.allocate(1, 4).expect("idle cluster");
        let mut jobs = JobTable::new();
        let mut job = runtime(1);
        job.admitted = true;
        job.current_gpus = 4;
        jobs.insert(job);
        let ctx = SimContext::new(&cluster, &jobs, 16, 0, 1, 1, PHANTOM_BASE);
        let outcome = ReplanOutcome {
            plan: SchedulePlan::new(),
            resized_jobs: 1,
            migrations: 0,
            pause_seconds: 0.0,
        };
        InvariantAuditor.on_replan(0.0, &outcome, &ctx);
    }

    #[test]
    fn phantom_blocks_are_exempt() {
        // A pinned phantom block (failed server stand-in) has no job entry and
        // must not trip the ownership check.
        let mut cluster = cluster();
        cluster.allocate(PHANTOM_BASE, 8).expect("idle cluster");
        let jobs = JobTable::new();
        InvariantAuditor::check_cluster(&cluster, &jobs, PHANTOM_BASE, 0.0);
    }
}
