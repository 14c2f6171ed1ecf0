//! Guarantee-level invariant audit for the ElasticFlow planner.
//!
//! Runs in every debug build; release builds compile the call away. After
//! every replan the planner's outputs are checked against the paper's
//! soundness conditions (§4.1–§4.2): reserved GPU-time never exceeds
//! capacity, every feasible SLO job's reserved profile still completes
//! its remaining work by its deadline, and the emitted plan never hands a
//! guaranteed job fewer slot-0 GPUs than its reserved profile. A violation aborts with a
//! structured diagnostic — a scheduler that breaks its own reservation
//! math must not keep running quietly.
//!
//! The structural cluster-side invariants (capacity conservation,
//! buddy-aligned power-of-two placements) are audited by
//! `elasticflow-sim`'s `audit` module, which sees the allocator; this
//! module audits the planning layer, which owns the deadline guarantee.

use elasticflow_sched::SchedulePlan;

use crate::{AllocationProfile, PlanningJob, ReservationLedger, SlotGrid};

/// Iteration tolerance: profiles are built with the `WORK_EPSILON`
/// completion slack, so audit with a slightly looser one to avoid false
/// alarms on rounding.
const EPS_ITERS: f64 = 1e-6;

/// Aborts the run with a structured diagnostic on a violated invariant.
#[cold]
#[expect(
    clippy::panic,
    reason = "the auditor's entire purpose is a loud structured abort on a violated guarantee \
              invariant: continuing would let a broken reservation masquerade as a guarantee"
)]
fn audit_fail(invariant: &str, detail: &str) -> ! {
    panic!("planner audit failed\n  invariant: {invariant}\n  detail:    {detail}")
}

/// Audits one replan's outputs: the feasible jobs with their
/// index-aligned reserved profiles (lapsed jobs hold no reservation and
/// are served best-effort). Called at the end of
/// [`crate::ElasticFlowScheduler`]'s `plan` in debug builds.
pub(crate) fn check_plan(
    feasible: &[PlanningJob],
    profiles: &[AllocationProfile],
    ledger: &ReservationLedger,
    plan: &SchedulePlan,
    grid: &SlotGrid,
    total_gpus: u32,
) {
    if plan.total_gpus() > total_gpus {
        audit_fail(
            "plan fits the cluster",
            &format!("plan assigns {} GPUs of {total_gpus}", plan.total_gpus()),
        );
    }
    for t in 0..ledger.horizon() {
        if ledger.committed(t) > total_gpus {
            audit_fail(
                "reserved GPUs per slot <= capacity",
                &format!(
                    "slot {t} commits {} GPUs of {total_gpus}",
                    ledger.committed(t)
                ),
            );
        }
    }
    for (job, profile) in feasible.iter().zip(profiles) {
        for (t, &g) in profile.as_slice().iter().enumerate() {
            if g != 0 && !g.is_power_of_two() {
                audit_fail(
                    "reserved grants are powers of two",
                    &format!("job {} reserves {g} GPUs in slot {t}", job.id),
                );
            }
        }
        if job.deadline_slot != usize::MAX && profile.len() > job.deadline_slot {
            audit_fail(
                "reservations end by the deadline",
                &format!(
                    "job {} reserves {} slots against a {}-slot deadline",
                    job.id,
                    profile.len(),
                    job.deadline_slot
                ),
            );
        }
        let iters: f64 = profile
            .as_slice()
            .iter()
            .enumerate()
            .map(|(t, &g)| job.iters_in_slot(g, grid, t))
            .sum();
        if iters + EPS_ITERS < job.remaining_iterations {
            audit_fail(
                "reserved profiles complete the remaining work by the deadline",
                &format!(
                    "job {} has {:.3} iterations left but its profile {:?} only covers {iters:.3}",
                    job.id,
                    job.remaining_iterations,
                    profile.as_slice()
                ),
            );
        }
        if plan.gpus(job.id) < profile.gpus(0) {
            audit_fail(
                "plans never shrink a job below its reserved share",
                &format!(
                    "job {} reserved {} slot-0 GPUs but the plan grants {}",
                    job.id,
                    profile.gpus(0),
                    plan.gpus(job.id)
                ),
            );
        }
    }
}
