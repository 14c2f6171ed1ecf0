//! The scheduler interface shared by ElasticFlow and every baseline.

use std::collections::BTreeMap;

use elasticflow_perfmodel::ScalingCurve;
use elasticflow_trace::{JobId, JobKind, JobSpec};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Serialize};

use crate::decision::DeclineReason;

/// What the scheduler can see of the cluster. Where workers land is
/// deliberately *not* part of the scheduling interface: buddy allocation guarantees that
/// any power-of-two GPU count gets the tightest possible subtree, which is
/// what lets ElasticFlow decouple placement from admission control and
/// resource allocation (paper §4.3). Schedulers therefore reason about
/// *counts* only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterView {
    /// Total number of GPUs in the cluster.
    pub total_gpus: u32,
}

impl ClusterView {
    /// Creates a view of a cluster with `total_gpus` GPUs.
    pub fn new(total_gpus: u32) -> Self {
        ClusterView { total_gpus }
    }
}

/// Decision returned by [`Scheduler::on_job_arrival`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// The job enters the system (its deadline may or may not be met).
    Admit,
    /// The job is rejected outright — only deadline-aware schedulers with
    /// admission control do this (paper §4.1). The payload attributes the
    /// decline; policies without structured provenance use
    /// [`DeclineReason::Unexplained`].
    Drop {
        /// Why admission control turned the job away.
        reason: DeclineReason,
    },
}

impl AdmissionDecision {
    /// A decline without structured provenance — the decision policies
    /// predating the provenance layer return.
    pub fn drop_unexplained() -> Self {
        AdmissionDecision::Drop {
            reason: DeclineReason::Unexplained,
        }
    }
}

/// Dynamic state of one job, maintained by the simulator and read by
/// schedulers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRuntime {
    /// The submitted job.
    pub spec: JobSpec,
    /// The job's profiled scaling curve (throughput vs. worker count under
    /// best-case buddy placement).
    pub curve: ScalingCurve,
    /// Iterations still to run (fractional; monotonically decreasing).
    pub remaining_iterations: f64,
    /// Workers currently assigned (0 while queued or suspended).
    pub current_gpus: u32,
    /// Time until which the job is paused by a scaling/migration event.
    pub paused_until: f64,
    /// Cumulative GPU-seconds consumed so far.
    pub gpu_seconds: f64,
    /// `true` once the scheduler admitted the job.
    pub admitted: bool,
    /// `true` if admission control rejected the job.
    pub dropped: bool,
    /// Completion timestamp, if finished.
    pub finish_time: Option<f64>,
    /// First timestamp at which the job held any GPU.
    pub first_start: Option<f64>,
}

impl JobRuntime {
    /// Creates the runtime record for a newly arrived job.
    pub fn new(spec: JobSpec, curve: ScalingCurve) -> Self {
        let remaining = spec.iterations;
        JobRuntime {
            spec,
            curve,
            remaining_iterations: remaining,
            current_gpus: 0,
            paused_until: 0.0,
            gpu_seconds: 0.0,
            admitted: false,
            dropped: false,
            finish_time: None,
            first_start: None,
        }
    }

    /// Shorthand for the job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// `true` while the job is admitted, unfinished, and not dropped —
    /// i.e. eligible for GPUs.
    pub fn is_active(&self) -> bool {
        self.admitted && !self.dropped && self.finish_time.is_none()
    }

    /// `true` when the job finished at or before its deadline.
    pub fn met_deadline(&self) -> bool {
        match self.finish_time {
            Some(t) => t <= self.spec.deadline,
            None => false,
        }
    }

    /// Throughput (iterations/second) this job achieves with `gpus`
    /// workers, honoring the knee clamp; 0 workers yield 0.
    pub fn iters_per_sec(&self, gpus: u32) -> f64 {
        self.curve.rate(gpus)
    }

    /// Throughput at the job's *current* worker count, checked: a running
    /// job must make progress. This is the one accessor the simulator uses
    /// both to predict completion times and to advance iteration counters,
    /// so a zero-throughput bug aborts loudly instead of stalling the job
    /// (and the whole event loop) forever.
    ///
    /// # Panics
    ///
    /// Panics if the job holds workers but the scaling curve yields a
    /// non-positive throughput for that count.
    pub fn current_iters_per_sec(&self) -> f64 {
        let tput = self.iters_per_sec(self.current_gpus);
        assert!(
            self.current_gpus == 0 || tput > 0.0,
            "job {} runs {} workers with non-positive throughput {tput}",
            self.id(),
            self.current_gpus
        );
        tput
    }

    /// Seconds to finish the remaining work with a constant `gpus` workers,
    /// `f64::INFINITY` when `gpus` is 0.
    pub fn time_to_finish(&self, gpus: u32) -> f64 {
        let t = self.iters_per_sec(gpus);
        if t <= 0.0 {
            f64::INFINITY
        } else {
            self.remaining_iterations / t
        }
    }

    /// The largest useful worker count (the knee of the scaling curve).
    pub fn knee(&self) -> u32 {
        self.curve.knee()
    }

    /// The worker count the original server-centric trace requested,
    /// clamped into the curve's domain — what non-elastic baselines use.
    pub fn requested_gpus(&self) -> u32 {
        self.spec.trace_gpus.min(self.curve.max_gpus())
    }

    /// `true` for SLO (deadline) jobs.
    pub fn is_slo(&self) -> bool {
        self.spec.kind == JobKind::Slo
    }
}

/// All jobs the simulator has seen so far, keyed by id.
///
/// Schedulers receive a shared reference on every callback; the simulator
/// owns and mutates it.
///
/// # Data layout
///
/// Internally the table is a dense arena: slot `i` of a plain `Vec` holds
/// the job with raw id `i` (trace ids are dense, so the arena needs no
/// generation counters). Lookups are a direct index instead of a tree walk,
/// and iteration is a linear scan in ascending-id order — exactly the order
/// the previous `BTreeMap` produced, so replay arithmetic is unchanged.
///
/// A sorted `live` index lists jobs that may still be active, letting
/// [`JobTable::active`] skip the (unboundedly growing) set of finished and
/// dropped jobs. The index is a *superset*: entries are only removed via
/// [`JobTable::retire`], which the simulator calls when a job leaves the
/// system for good; stale entries merely cost a skipped probe, never a
/// wrong answer, because every consumer still filters on
/// [`JobRuntime::is_active`].
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    /// Arena slot per raw job id; `None` for ids never inserted.
    slots: Vec<Option<JobRuntime>>,
    /// Number of jobs present.
    len: usize,
    /// Ascending ids of jobs not yet retired (superset of the active set).
    live: Vec<JobId>,
}

/// The arena slot of `id` in a [`JobTable`].
#[expect(
    clippy::cast_possible_truncation,
    reason = "the table is a dense arena indexed by id: an id past `usize::MAX` \
              could never have a slot"
)]
fn slot(id: JobId) -> usize {
    id.raw() as usize
}

impl JobTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Inserts a new job record.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn insert(&mut self, job: JobRuntime) {
        let id = job.id();
        let idx = slot(id);
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        assert!(self.slots[idx].is_none(), "duplicate job id {id}");
        self.slots[idx] = Some(job);
        self.len += 1;
        let pos = self.live.partition_point(|&x| x < id);
        self.live.insert(pos, id);
    }

    /// Looks up a job.
    pub fn get(&self, id: JobId) -> Option<&JobRuntime> {
        self.slots.get(slot(id))?.as_ref()
    }

    /// Mutable lookup (simulator only).
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut JobRuntime> {
        self.slots.get_mut(slot(id))?.as_mut()
    }

    /// All jobs, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = &JobRuntime> {
        self.slots.iter().flatten()
    }

    /// Mutable iteration (simulator only).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut JobRuntime> {
        self.slots.iter_mut().flatten()
    }

    /// Jobs currently eligible for GPUs, ascending by id. Runs over the
    /// `live` index, so the cost scales with the number of jobs still in
    /// the system rather than every job the run has ever seen.
    pub fn active(&self) -> impl Iterator<Item = &JobRuntime> {
        self.live
            .iter()
            .filter_map(|id| self.get(*id))
            .filter(|j| j.is_active())
    }

    /// Runs `f` over every active job, mutably, in ascending-id order —
    /// the simulator's per-event advance path.
    pub fn for_each_active_mut(&mut self, mut f: impl FnMut(&mut JobRuntime)) {
        let slots = &mut self.slots;
        for id in &self.live {
            if let Some(job) = slots.get_mut(slot(*id)).and_then(|slot| slot.as_mut()) {
                if job.is_active() {
                    f(job);
                }
            }
        }
    }

    /// Drops `id` from the `live` index. The simulator calls this when a
    /// job leaves the system permanently (finished or dropped at
    /// admission); forgetting to call it never changes results, only the
    /// cost of [`JobTable::active`].
    pub fn retire(&mut self, id: JobId) {
        if let Ok(i) = self.live.binary_search(&id) {
            self.live.remove(i);
        }
    }

    /// Number of jobs in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no jobs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for JobTable {
    fn eq(&self, other: &Self) -> bool {
        // The `live` index is derived bookkeeping (and deliberately allowed
        // to hold stale entries), so equality compares job content only.
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// The historical wire shape: a `jobs` object keyed by stringified id,
/// ascending — so snapshot fingerprints are unaffected by the arena
/// layout. Deserialization reads it through this mirror; serialization
/// streams the same bytes straight from the table.
#[derive(Deserialize)]
struct JobTableRepr {
    jobs: BTreeMap<JobId, JobRuntime>,
}

/// The table's `jobs` map, in ascending id order (the slot order).
struct JobsById<'a>(&'a JobTable);

impl Serialize for JobsById<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_map(self.0.iter().map(|j| (j.id(), j)))
    }
}

impl Serialize for JobTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut repr = serializer.serialize_struct("JobTableRepr", 1)?;
        repr.serialize_field("jobs", &JobsById(self))?;
        repr.end()
    }
}

impl<'de> Deserialize<'de> for JobTable {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = JobTableRepr::deserialize(deserializer)?;
        let mut table = JobTable::new();
        for (_, job) in repr.jobs {
            table.insert(job);
        }
        // Rebuild the live index precisely: jobs that already left the
        // system for good need no probes on future `active` scans.
        let slots = &table.slots;
        table.live.retain(|&id| {
            slots[slot(id)]
                .as_ref()
                .is_some_and(|j| !j.dropped && j.finish_time.is_none())
        });
        Ok(table)
    }
}

/// The desired GPU count per job for the next scheduling interval. Jobs
/// absent from the plan hold zero GPUs. All counts must be powers of two
/// (buddy placement requirement) and sum to at most the cluster size — the
/// simulator asserts both.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulePlan {
    allocations: BTreeMap<JobId, u32>,
}

impl SchedulePlan {
    /// An empty plan (everything suspended).
    pub fn new() -> Self {
        SchedulePlan::default()
    }

    /// Assigns `gpus` workers to `job` (0 removes the entry).
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is not zero or a power of two.
    pub fn assign(&mut self, job: JobId, gpus: u32) {
        assert!(
            gpus == 0 || gpus.is_power_of_two(),
            "allocation for {job} must be a power of two, got {gpus}"
        );
        if gpus == 0 {
            self.allocations.remove(&job);
        } else {
            self.allocations.insert(job, gpus);
        }
    }

    /// The planned GPU count for `job` (0 when absent).
    pub fn gpus(&self, job: JobId) -> u32 {
        self.allocations.get(&job).copied().unwrap_or(0)
    }

    /// Total GPUs the plan uses.
    pub fn total_gpus(&self) -> u32 {
        self.allocations.values().sum()
    }

    /// Iterates `(job, gpus)` pairs, ascending by job id.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, u32)> + '_ {
        self.allocations.iter().map(|(&id, &g)| (id, g))
    }

    /// Number of jobs holding GPUs under this plan.
    pub fn len(&self) -> usize {
        self.allocations.len()
    }

    /// `true` when no job holds GPUs.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }
}

impl FromIterator<(JobId, u32)> for SchedulePlan {
    fn from_iter<T: IntoIterator<Item = (JobId, u32)>>(iter: T) -> Self {
        let mut plan = SchedulePlan::new();
        for (id, gpus) in iter {
            plan.assign(id, gpus);
        }
        plan
    }
}

/// Observer-visible summary of one replan round, assembled by the
/// simulator after it applies a [`SchedulePlan`] to the cluster.
///
/// The simulator's `SimObserver` hooks receive this on every scheduling
/// event, giving tracing/metrics layers the full per-round picture — what
/// the policy asked for and what applying it cost — without reaching into
/// engine internals. It lives here, next to [`Scheduler`], because it is
/// part of the policy-facing contract: a plan is not just a set of counts
/// but also the churn (resizes, defragmentation migrations, pauses) its
/// application implies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanOutcome {
    /// The plan the policy produced for this round.
    pub plan: SchedulePlan,
    /// Jobs whose worker count changed when the plan was applied.
    pub resized_jobs: u32,
    /// Defragmentation migrations performed to place the plan.
    pub migrations: u32,
    /// Total pause time (seconds) charged for scaling and migration this
    /// round, summed over all affected jobs.
    pub pause_seconds: f64,
}

impl ReplanOutcome {
    /// `true` when applying the plan changed nothing on the cluster.
    pub fn is_quiescent(&self) -> bool {
        self.resized_jobs == 0 && self.migrations == 0
    }

    /// Fraction of a `total_gpus`-sized cluster this round's plan uses, in
    /// `[0, 1]` (0 on an empty cluster). The per-replan utilization series
    /// behind the telemetry layer's histogram and the paper's cluster-
    /// efficiency discussion (§6.4).
    pub fn utilization(&self, total_gpus: u32) -> f64 {
        if total_gpus == 0 {
            0.0
        } else {
            f64::from(self.plan.total_gpus()) / f64::from(total_gpus)
        }
    }
}

/// Error returned when restoring persisted state into a component fails —
/// the serialized form did not parse, carried impossible values, or came
/// from an incompatible configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    reason: String,
}

impl RestoreError {
    /// Wraps a human-readable failure reason.
    pub fn new(reason: impl Into<String>) -> Self {
        RestoreError {
            reason: reason.into(),
        }
    }

    /// The failure reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state restore failed: {}", self.reason)
    }
}

impl std::error::Error for RestoreError {}

/// A scheduling policy, driven by the simulator.
///
/// The simulator calls [`Scheduler::on_job_arrival`] once per submission
/// (before the job is eligible), then [`Scheduler::plan`] on every
/// scheduling event — arrival, completion, or slot boundary — to obtain the
/// desired allocation for the next interval. The simulator's buddy
/// allocator places the planned counts.
pub trait Scheduler {
    /// A short policy name for reports ("edf", "elasticflow", ...).
    fn name(&self) -> &str;

    /// Decides whether to admit a newly submitted job. `job` is already in
    /// `jobs`. Policies without admission control admit everything.
    fn on_job_arrival(
        &mut self,
        job: &JobRuntime,
        now: f64,
        view: &ClusterView,
        jobs: &JobTable,
    ) -> AdmissionDecision;

    /// Produces the allocation for the next interval.
    fn plan(&mut self, now: f64, view: &ClusterView, jobs: &JobTable) -> SchedulePlan;

    /// Notification that a job completed (optional hook).
    fn on_job_finish(&mut self, _job: JobId, _now: f64) {}

    /// Serialized policy state for checkpointing, or `None` for policies
    /// whose `plan` is a pure function of the job table (the default) —
    /// those need nothing restored beyond their construction arguments.
    ///
    /// Stateful policies override this (typically by serializing their
    /// mutable state as JSON) together with [`Scheduler::restore_state`].
    /// The pair must round-trip losslessly: restoring a snapshot leaves
    /// the policy behaving identically, the contract the simulator's
    /// bit-identical resume tests hold every implementation to.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state produced by [`Scheduler::snapshot_state`] on an
    /// identically configured policy. The default accepts anything and
    /// changes nothing, matching the stateless default above; resume paths
    /// only call this when the snapshot actually carried state.
    fn restore_state(&mut self, state: &str) -> Result<(), RestoreError> {
        let _ = state;
        Ok(())
    }
}

/// Clamps `want` down to the largest power of two that fits in `available`
/// (0 when nothing fits). Shared by all policies that scale jobs elastically.
pub fn clamp_pow2(want: u32, available: u32) -> u32 {
    let want = want.min(available);
    if want == 0 {
        0
    } else {
        1u32 << (31 - want.leading_zeros())
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::{DnnModel, Interconnect};

    fn sample_job(id: u64, deadline: f64) -> JobRuntime {
        let spec = JobSpec::builder(JobId::new(id), DnnModel::ResNet50, 128)
            .iterations(1000.0)
            .submit_time(0.0)
            .deadline(deadline)
            .trace_shape(4, deadline / 1.2)
            .build();
        let curve = ScalingCurve::build(DnnModel::ResNet50, 128, &Interconnect::paper_testbed());
        JobRuntime::new(spec, curve)
    }

    #[test]
    fn runtime_lifecycle_flags() {
        let mut j = sample_job(1, 3600.0);
        assert!(!j.is_active()); // not admitted yet
        j.admitted = true;
        assert!(j.is_active());
        j.finish_time = Some(1800.0);
        assert!(!j.is_active());
        assert!(j.met_deadline());
        j.finish_time = Some(7200.0);
        assert!(!j.met_deadline());
    }

    #[test]
    fn time_to_finish_scales() {
        let j = sample_job(1, 3600.0);
        let t1 = j.time_to_finish(1);
        let t4 = j.time_to_finish(4);
        assert!(t4 < t1);
        assert_eq!(j.time_to_finish(0), f64::INFINITY);
    }

    #[test]
    fn plan_accounting() {
        let mut plan = SchedulePlan::new();
        plan.assign(JobId::new(1), 4);
        plan.assign(JobId::new(2), 8);
        assert_eq!(plan.total_gpus(), 12);
        assert_eq!(plan.gpus(JobId::new(1)), 4);
        assert_eq!(plan.gpus(JobId::new(9)), 0);
        plan.assign(JobId::new(1), 0);
        assert_eq!(plan.total_gpus(), 8);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_pow2() {
        SchedulePlan::new().assign(JobId::new(1), 3);
    }

    #[test]
    fn table_insert_and_active() {
        let mut table = JobTable::new();
        let mut j = sample_job(1, 3600.0);
        j.admitted = true;
        table.insert(j);
        table.insert(sample_job(2, 3600.0));
        assert_eq!(table.len(), 2);
        assert_eq!(table.active().count(), 1);
        assert!(table.get(JobId::new(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn table_rejects_duplicates() {
        let mut table = JobTable::new();
        table.insert(sample_job(1, 3600.0));
        table.insert(sample_job(1, 3600.0));
    }

    #[test]
    fn clamp_pow2_cases() {
        assert_eq!(clamp_pow2(8, 16), 8);
        assert_eq!(clamp_pow2(8, 7), 4);
        assert_eq!(clamp_pow2(8, 8), 8);
        assert_eq!(clamp_pow2(5, 16), 4);
        assert_eq!(clamp_pow2(1, 0), 0);
        assert_eq!(clamp_pow2(0, 16), 0);
    }

    #[test]
    fn plan_from_iterator() {
        let plan: SchedulePlan = [(JobId::new(1), 2u32), (JobId::new(2), 4u32)]
            .into_iter()
            .collect();
        assert_eq!(plan.total_gpus(), 6);
    }
}
