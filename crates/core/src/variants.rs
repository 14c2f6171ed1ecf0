//! The ablation variants of the paper's Fig. 9: EDF + Admission Control
//! and EDF + Elastic Scaling.
//!
//! ElasticFlow's improvement decomposes into two mechanisms. These
//! variants graft exactly one of them onto plain EDF so the sources-of-
//! improvement experiment (§6.4) can attribute the gains:
//!
//! * [`EdfWithAdmission`] — ElasticFlow's progressive-filling admission
//!   test, but EDF's give-the-knee-to-the-most-urgent allocation;
//! * [`EdfWithElastic`] — admit everything like EDF, but allocate with
//!   ElasticFlow's MSS + marginal-return machinery (Algorithm 2).

use elasticflow_sched::{
    AdmissionDecision, ClusterView, EdfScheduler, JobRuntime, JobTable, SchedulePlan, Scheduler,
};

use crate::scheduler::{anchored_grid, arrival_decision};
use crate::{ElasticFlowScheduler, FillScratch};

/// EDF allocation with ElasticFlow admission control.
///
/// # Example
///
/// ```
/// use elasticflow_core::EdfWithAdmission;
/// use elasticflow_sched::Scheduler;
///
/// assert_eq!(EdfWithAdmission::new().name(), "edf+ac");
/// ```
#[derive(Debug, Clone)]
pub struct EdfWithAdmission {
    edf: EdfScheduler,
    /// Fill workspace reused across admission checks (not state).
    workspace: FillScratch,
}

impl EdfWithAdmission {
    /// Creates the variant.
    pub fn new() -> Self {
        EdfWithAdmission {
            edf: EdfScheduler::new(),
            workspace: FillScratch::new(),
        }
    }
}

impl Default for EdfWithAdmission {
    fn default() -> Self {
        EdfWithAdmission::new()
    }
}

impl Scheduler for EdfWithAdmission {
    fn name(&self) -> &str {
        "edf+ac"
    }

    fn on_job_arrival(
        &mut self,
        job: &JobRuntime,
        now: f64,
        view: &ClusterView,
        jobs: &JobTable,
    ) -> AdmissionDecision {
        arrival_decision(job, now, view, jobs, &mut self.workspace)
    }

    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        self.edf.plan(now, view, jobs)
    }
}

/// EDF with elastic scaling but **no admission control**: every job is
/// admitted, jobs are served strictly in deadline order, and each receives
/// its minimum satisfactory share (scaled elastically) — but a job whose
/// deadline can no longer be met still holds its place in the EDF order
/// and grabs up to its knee, starving later feasible jobs. This is the
/// failure mode admission control exists to prevent (paper §6.4): at high
/// load EDF+ES wastes GPU-time on hopeless jobs.
///
/// # Example
///
/// ```
/// use elasticflow_core::EdfWithElastic;
/// use elasticflow_sched::Scheduler;
///
/// assert_eq!(EdfWithElastic::new().name(), "edf+es");
/// ```
#[derive(Debug, Clone)]
pub struct EdfWithElastic {
    /// Fill workspace reused across planning rounds (not state).
    workspace: FillScratch,
}

impl EdfWithElastic {
    /// Creates the variant.
    pub fn new() -> Self {
        EdfWithElastic {
            workspace: FillScratch::new(),
        }
    }
}

impl Default for EdfWithElastic {
    fn default() -> Self {
        EdfWithElastic::new()
    }
}

impl Scheduler for EdfWithElastic {
    fn name(&self) -> &str {
        "edf+es"
    }

    fn on_job_arrival(
        &mut self,
        _job: &JobRuntime,
        _now: f64,
        _view: &ClusterView,
        _jobs: &JobTable,
    ) -> AdmissionDecision {
        AdmissionDecision::Admit
    }

    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan {
        use crate::{progressive_filling, AllocationProfile, ReservationLedger};
        use elasticflow_sched::clamp_pow2;

        let grid = anchored_grid(now);
        let mut actives: Vec<&JobRuntime> = jobs.active().collect();
        actives.sort_by(|a, b| {
            a.spec
                .deadline
                .total_cmp(&b.spec.deadline)
                .then(a.id().cmp(&b.id()))
        });
        let mut ledger = ReservationLedger::new();
        let mut plan = SchedulePlan::new();
        let mut free0 = view.total_gpus;
        for job in &actives {
            let pj = ElasticFlowScheduler::planning_job(job, now, &grid);
            let filled = progressive_filling(
                &pj,
                &ledger,
                &grid,
                view.total_gpus,
                None,
                &mut self.workspace,
            );
            match filled {
                Some(profile) => {
                    let g = profile.gpus(0);
                    if g > 0 {
                        plan.assign(job.id(), g);
                        free0 -= g;
                    }
                    ledger.commit(&profile);
                    self.workspace.recycle(profile);
                }
                None => {
                    // Doomed but most urgent: EDF still runs it at up to
                    // its knee, eating into everyone behind it.
                    let g = clamp_pow2(job.knee(), free0);
                    if g > 0 {
                        plan.assign(job.id(), g);
                        free0 -= g;
                        ledger.commit(&AllocationProfile::new(vec![g]));
                    }
                }
            }
        }
        // Leftover slot-0 GPUs: EDF flavor, upgrade most urgent first.
        for job in &actives {
            if free0 == 0 {
                break;
            }
            let mut cur = plan.gpus(job.id());
            loop {
                let next = if cur == 0 { 1 } else { cur * 2 };
                if next > job.knee() || next - cur > free0 {
                    break;
                }
                free0 -= next - cur;
                cur = next;
            }
            if cur > 0 {
                plan.assign(job.id(), cur);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
    use elasticflow_trace::{JobId, JobSpec};

    fn runtime(id: u64, deadline: f64, iterations: f64) -> JobRuntime {
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        let mut rt = JobRuntime::new(
            JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
                .iterations(iterations)
                .submit_time(0.0)
                .deadline(deadline)
                .trace_shape(4, 3_600.0)
                .build(),
            curve,
        );
        rt.admitted = true;
        rt
    }

    fn work_for(seconds: f64, gpus: u32) -> f64 {
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        seconds * curve.iters_per_sec(gpus).unwrap()
    }

    #[test]
    fn edf_ac_drops_like_elasticflow() {
        let mut v = EdfWithAdmission::new();
        let jobs = JobTable::new();
        let hopeless = runtime(1, 1_300.0, work_for(40_000.0, 8));
        assert!(matches!(
            v.on_job_arrival(&hopeless, 0.0, &ClusterView::new(16), &jobs),
            AdmissionDecision::Drop { .. }
        ));
    }

    #[test]
    fn edf_ac_plans_like_edf() {
        let mut v = EdfWithAdmission::new();
        let mut jobs = JobTable::new();
        jobs.insert(runtime(1, 9_000.0, work_for(1_800.0, 1)));
        jobs.insert(runtime(2, 5_000.0, work_for(1_800.0, 1)));
        let ours = v.plan(0.0, &ClusterView::new(16), &jobs);
        let reference = EdfScheduler::new().plan(0.0, &ClusterView::new(16), &jobs);
        assert_eq!(ours, reference);
    }

    #[test]
    fn edf_es_admits_everything() {
        let mut v = EdfWithElastic::new();
        let jobs = JobTable::new();
        let hopeless = runtime(1, 1_300.0, work_for(40_000.0, 8));
        assert_eq!(
            v.on_job_arrival(&hopeless, 0.0, &ClusterView::new(16), &jobs),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn edf_es_shares_like_elasticflow() {
        let mut v = EdfWithElastic::new();
        let mut jobs = JobTable::new();
        jobs.insert(runtime(1, 40_000.0, work_for(9_000.0, 1)));
        jobs.insert(runtime(2, 40_000.0, work_for(9_000.0, 1)));
        let plan = v.plan(0.0, &ClusterView::new(16), &jobs);
        // Elastic allocation runs both concurrently.
        assert!(plan.gpus(JobId::new(1)) > 0);
        assert!(plan.gpus(JobId::new(2)) > 0);
    }
}
