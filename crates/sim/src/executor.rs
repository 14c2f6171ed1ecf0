//! The elastic training executor: the only layer that mutates cluster and
//! job state.
//!
//! The executor applies schedule plans (allocating, resizing, releasing
//! buddy blocks and charging scaling/migration pauses), advances
//! `remaining_iterations` between events, accounts GPU-seconds, and owns
//! the phantom-block fencing that stands in for failed servers (paper
//! §4.4). Event *selection* lives in [`crate::event`]; policy decisions
//! come in through the scheduler driver ([`crate::driver`]); observation
//! happens through [`crate::SimObserver`] hooks fed by the engine.

use std::collections::{BTreeMap, BTreeSet};

use elasticflow_cluster::{ClusterSpec, ClusterState};
use elasticflow_perfmodel::{DnnModel, Interconnect, OverheadModel, ScalingCurve, ScalingEvent};
use elasticflow_sched::{
    AdmissionDecision, ClusterView, DecisionRecord, JobRuntime, JobTable, PauseCause,
    ReplanOutcome, SchedulePlan,
};
use elasticflow_trace::{JobId, JobSpec};

use crate::driver::SchedulerDriver;
use crate::observer::SimContext;
use crate::snapshot::{ExecutorSnapshot, JobStatsSnapshot};
use crate::JobOutcome;

/// Owner-tag base for pinned blocks standing in for failed servers.
pub(crate) const PHANTOM_BASE: u64 = u64::MAX / 2;

/// Iteration-count tolerance below which a job counts as finished.
pub(crate) const EPS_ITERS: f64 = 1e-6;

/// Hard-stops the simulation on a broken engine invariant or a plan the
/// cluster cannot honor. GPU accounting past such a point would be wrong,
/// so a loud abort beats a silently corrupted [`crate::SimReport`].
#[cold]
#[expect(
    clippy::panic,
    reason = "deliberate single abort point: every engine invariant failure funnels here \
              so a violation stops the replay instead of corrupting the report"
)]
pub(crate) fn sim_bug(context: &str) -> ! {
    panic!("simulation engine invariant violated: {context}")
}

/// Per-job bookkeeping the [`JobRuntime`] does not carry.
#[derive(Debug, Clone, Copy, Default)]
struct JobStats {
    paused_seconds: f64,
    scale_events: u32,
}

/// Dense per-job stats arena: slot `i` holds the stats of the job with raw
/// id `i` (zeroed until the job arrives). Replaces the former
/// `BTreeMap<JobId, JobStats>` on the per-event accounting path; snapshots
/// still serialize through the historical map shape (see
/// [`Executor::capture`]).
#[derive(Debug, Default)]
struct JobStatsArena {
    slots: Vec<JobStats>,
}

impl JobStatsArena {
    /// The arena slot of `id`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the arena is dense in ids: an id past `usize::MAX` could never have a slot"
    )]
    fn index(id: JobId) -> usize {
        id.raw() as usize
    }

    /// Mutable stats slot for `id`, growing the arena with zeroed slots on
    /// first touch (the `entry(..).or_default()` equivalent).
    fn slot_mut(&mut self, id: JobId) -> &mut JobStats {
        let idx = Self::index(id);
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, JobStats::default);
        }
        &mut self.slots[idx]
    }

    /// Stats for `id` (zero when the job never accrued any).
    fn get(&self, id: JobId) -> JobStats {
        self.slots.get(Self::index(id)).copied().unwrap_or_default()
    }

    /// Drops all slots.
    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Owns and mutates all simulation state: the cluster, the job table, and
/// the accounting totals that become the final report.
#[derive(Debug)]
pub(crate) struct Executor {
    cluster: ClusterState,
    jobs: JobTable,
    stats: JobStatsArena,
    // BTreeMap, not HashMap: the memo is lookup-only today, but hash
    // iteration order leaking into a future refactor would silently
    // break replay determinism (EF-L003).
    curves: BTreeMap<(DnnModel, u32), ScalingCurve>,
    net: Interconnect,
    overheads: OverheadModel,
    total_gpus: u32,
    gpus_per_server: u32,
    down_servers: BTreeSet<u32>,
    migrations_total: u32,
    total_pause: f64,
    submitted: usize,
    admitted: usize,
}

impl Executor {
    /// Creates the executor over an idle cluster of the given shape.
    pub(crate) fn new(spec: &ClusterSpec, overheads: OverheadModel) -> Self {
        Executor {
            cluster: ClusterState::new(spec.total_gpus()),
            jobs: JobTable::new(),
            stats: JobStatsArena::default(),
            curves: BTreeMap::new(),
            net: Interconnect::from_spec(spec),
            overheads,
            total_gpus: spec.total_gpus(),
            gpus_per_server: spec.gpus_per_server,
            down_servers: BTreeSet::new(),
            migrations_total: 0,
            total_pause: 0.0,
            submitted: 0,
            admitted: 0,
        }
    }

    /// The job table (read-only; only the executor mutates it).
    pub(crate) fn jobs(&self) -> &JobTable {
        &self.jobs
    }

    /// Cluster capacity in GPUs.
    pub(crate) fn total_gpus(&self) -> u32 {
        self.total_gpus
    }

    /// An observer-facing snapshot of the current state.
    pub(crate) fn context(&self) -> SimContext<'_> {
        SimContext::new(
            &self.cluster,
            &self.jobs,
            self.total_gpus,
            self.down_gpus(),
            self.submitted,
            self.admitted,
            PHANTOM_BASE,
        )
    }

    /// Advances every running job from `now` to `t`, decrementing remaining
    /// iterations (pauses charge no progress) and accruing GPU-seconds.
    pub(crate) fn advance_to(&mut self, now: f64, t: f64) {
        self.jobs.for_each_active_mut(|job| {
            if job.current_gpus > 0 {
                let run_from = job.paused_until.max(now);
                let dt = (t - run_from).max(0.0);
                let tput = job.current_iters_per_sec();
                job.remaining_iterations = (job.remaining_iterations - dt * tput).max(0.0);
                job.gpu_seconds += job.current_gpus as f64 * (t - now);
            }
        });
    }

    /// Jobs that ran their remaining iterations down to the completion
    /// tolerance, ascending by id.
    pub(crate) fn finished_jobs(&self) -> Vec<JobId> {
        self.jobs
            .active()
            .filter(|j| j.current_gpus > 0 && j.remaining_iterations <= EPS_ITERS)
            .map(|j| j.id())
            .collect()
    }

    /// Marks `id` finished at `now` and releases its GPUs.
    pub(crate) fn complete(&mut self, id: JobId, now: f64) {
        let job = self
            .jobs
            .get_mut(id)
            .unwrap_or_else(|| sim_bug("completing job missing from the job table"));
        job.finish_time = Some(now);
        job.current_gpus = 0;
        self.jobs.retire(id);
        self.cluster
            .release(id.raw())
            .unwrap_or_else(|_| sim_bug("completing job held no GPUs"));
    }

    /// Applies one server failure or repair at `now`. On failure: evicts
    /// every overlapping job (charging a checkpoint-recovery pause) and
    /// fences the dead server off with a pinned phantom block; on repair:
    /// releases the phantom block. Duplicate transitions are no-ops.
    /// Eviction decisions (preempt + recovery pause per victim) are
    /// appended to `decisions` for the provenance stream.
    pub(crate) fn apply_transition(
        &mut self,
        server: u32,
        is_repair: bool,
        now: f64,
        decisions: &mut Vec<DecisionRecord>,
    ) {
        let phantom = PHANTOM_BASE + server as u64;
        if is_repair {
            if self.down_servers.remove(&server) {
                self.cluster
                    .release(phantom)
                    .unwrap_or_else(|_| sim_bug("repaired server had no pinned phantom block"));
            }
            return;
        }
        if !self.down_servers.insert(server) {
            return; // already down
        }
        // Evict every job overlapping the failed server: checkpoint
        // recovery pause, then back to the queue for the replan.
        let victims: Vec<u64> = self
            .cluster
            .iter()
            .filter(|(owner, block)| {
                *owner < PHANTOM_BASE && block.servers(self.gpus_per_server).contains(&server)
            })
            .map(|(owner, _)| owner)
            .collect();
        for owner in victims {
            self.cluster
                .release(owner)
                .unwrap_or_else(|_| sim_bug("evicted victim held no GPUs"));
            let id = JobId::new(owner);
            if let Some(job) = self.jobs.get_mut(id) {
                let pause = self.overheads.pause_seconds(
                    &job.spec.model.profile(),
                    ScalingEvent::migrate(job.current_gpus),
                );
                decisions.push(DecisionRecord::Preempt {
                    job: id,
                    gpus: job.current_gpus,
                });
                if pause > 0.0 {
                    decisions.push(DecisionRecord::Pause {
                        job: id,
                        seconds: pause,
                        cause: PauseCause::Recovery,
                    });
                }
                job.current_gpus = 0;
                job.paused_until = job.paused_until.max(now) + pause;
                self.total_pause += pause;
                let st = self.stats.slot_mut(id);
                st.paused_seconds += pause;
                st.scale_events += 1;
            }
        }
        // Fence the dead server off with a pinned phantom block.
        let order = self.gpus_per_server.trailing_zeros();
        let block = elasticflow_cluster::Block::new(order, server * self.gpus_per_server);
        self.cluster
            .allocate_pinned(phantom, block)
            .unwrap_or_else(|_| sim_bug("failed server block still occupied after eviction"));
    }

    /// The cluster as the scheduler may see it: capacity net of fenced-off
    /// failed servers.
    pub(crate) fn scheduler_view(&self) -> ClusterView {
        ClusterView::new(self.total_gpus - self.down_gpus())
    }

    /// GPUs fenced off on failed servers.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "failed servers are a subset of the cluster's, which number at most its \
                  `u32` GPU count"
    )]
    fn down_gpus(&self) -> u32 {
        self.down_servers.len() as u32 * self.gpus_per_server
    }

    /// Registers an arriving job (memoizing its scaling curve per
    /// model/batch pair) and routes the admission decision through the
    /// scheduler driver. Returns the job's id plus the provenance record
    /// of the admit/decline decision.
    pub(crate) fn admit_arrival(
        &mut self,
        spec: JobSpec,
        driver: &mut SchedulerDriver<'_>,
        now: f64,
        view: &ClusterView,
    ) -> (JobId, DecisionRecord) {
        self.submitted += 1;
        let curve = self
            .curves
            .entry((spec.model, spec.global_batch))
            .or_insert_with(|| {
                ScalingCurve::build_with_max(
                    spec.model,
                    spec.global_batch,
                    &self.net,
                    self.total_gpus,
                )
            })
            .clone();
        let runtime = JobRuntime::new(spec, curve);
        let id = runtime.id();
        self.jobs.insert(runtime);
        let _ = self.stats.slot_mut(id); // materialize the zeroed slot
        let decision = {
            let job_ref = self
                .jobs
                .get(id)
                .unwrap_or_else(|| sim_bug("arriving job missing right after insert"));
            driver.admit(job_ref, now, view, &self.jobs)
        };
        let job = self
            .jobs
            .get_mut(id)
            .unwrap_or_else(|| sim_bug("arriving job missing right after insert"));
        let record = match decision {
            AdmissionDecision::Admit => {
                job.admitted = true;
                self.admitted += 1;
                DecisionRecord::Admit { job: id }
            }
            AdmissionDecision::Drop { reason } => {
                job.dropped = true;
                self.jobs.retire(id);
                DecisionRecord::Decline { job: id, reason }
            }
        };
        (id, record)
    }

    /// Applies `plan` to the cluster at `now`: shrinks and suspends first
    /// (freeing capacity), then grows largest-first (less defragmentation
    /// churn), charging scaling pauses to resized jobs and migration pauses
    /// to relocated bystanders. Returns the observer-visible summary plus
    /// the provenance records (resize/preempt/migrate/pause) of every job
    /// the plan touched, in application order.
    pub(crate) fn apply_plan(
        &mut self,
        plan: SchedulePlan,
        now: f64,
    ) -> (ReplanOutcome, Vec<DecisionRecord>) {
        let mut decisions: Vec<DecisionRecord> = Vec::new();
        let mut changes: Vec<(JobId, u32, u32)> = Vec::new(); // (id, from, to)
        for job in self.jobs.active() {
            let desired = plan.gpus(job.id()).min(job.curve.max_gpus());
            if desired != job.current_gpus {
                changes.push((job.id(), job.current_gpus, desired));
            }
        }
        // Shrinks first (free capacity), then grows largest-first (less
        // defragmentation churn).
        changes.sort_by(|a, b| (a.2 > a.1).cmp(&(b.2 > b.1)).then(b.2.cmp(&a.2)));
        #[expect(
            clippy::cast_possible_truncation,
            reason = "at most one change per job, and jobs hold at least one of the `u32` GPUs"
        )]
        let resized_jobs = changes.len() as u32;
        let mut round_migrations = 0u32;
        let mut round_pause = 0.0f64;
        for (id, from, to) in changes {
            let mut migrated: Vec<u64> = Vec::new();
            if to == 0 {
                self.cluster
                    .release(id.raw())
                    .unwrap_or_else(|_| sim_bug("shrinking job held no GPUs"));
            } else if from == 0 {
                let (_, migs) = self
                    .cluster
                    .allocate_with_defrag(id.raw(), to)
                    .unwrap_or_else(|e| sim_bug(&format!("plan does not fit the cluster: {e}")));
                migrated = migs.iter().map(|m| m.owner).collect();
            } else {
                let (_, migs) = self
                    .cluster
                    .resize(id.raw(), to)
                    .unwrap_or_else(|e| sim_bug(&format!("plan does not fit during resize: {e}")));
                migrated = migs.iter().map(|m| m.owner).collect();
            }
            // Charge the scaling pause to the job itself.
            {
                let job = self
                    .jobs
                    .get_mut(id)
                    .unwrap_or_else(|| sim_bug("planned job missing from the job table"));
                let pause = self
                    .overheads
                    .pause_seconds(&job.spec.model.profile(), ScalingEvent::scale(from, to));
                if job.first_start.is_none() && to > 0 {
                    job.first_start = Some(now);
                }
                job.current_gpus = to;
                job.paused_until = job.paused_until.max(now) + pause;
                self.total_pause += pause;
                round_pause += pause;
                let st = self.stats.slot_mut(id);
                st.paused_seconds += pause;
                st.scale_events += 1;
                if to == 0 {
                    decisions.push(DecisionRecord::Preempt {
                        job: id,
                        gpus: from,
                    });
                } else {
                    decisions.push(DecisionRecord::Resize { job: id, from, to });
                }
                if pause > 0.0 {
                    decisions.push(DecisionRecord::Pause {
                        job: id,
                        seconds: pause,
                        cause: PauseCause::Scale,
                    });
                }
            }
            // Charge migration pauses to relocated bystanders.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "each migrated job holds at least one of the cluster's `u32` GPUs"
            )]
            let moved = migrated.len() as u32;
            self.migrations_total += moved;
            round_migrations += moved;
            for owner in migrated {
                let mid = JobId::new(owner);
                if mid == id {
                    continue;
                }
                if let Some(job) = self.jobs.get_mut(mid) {
                    let pause = self.overheads.pause_seconds(
                        &job.spec.model.profile(),
                        ScalingEvent::migrate(job.current_gpus),
                    );
                    decisions.push(DecisionRecord::Migrate {
                        job: mid,
                        gpus: job.current_gpus,
                    });
                    if pause > 0.0 {
                        decisions.push(DecisionRecord::Pause {
                            job: mid,
                            seconds: pause,
                            cause: PauseCause::Migrate,
                        });
                    }
                    job.paused_until = job.paused_until.max(now) + pause;
                    self.total_pause += pause;
                    round_pause += pause;
                    self.stats.slot_mut(mid).paused_seconds += pause;
                }
            }
        }
        // Cheap check here; debug builds also run the full structural
        // cross-check as a `SimObserver` (see `crate::audit`).
        debug_assert_eq!(
            self.cluster.used_gpus(),
            plan.total_gpus() + self.down_gpus()
        );
        (
            ReplanOutcome {
                plan,
                resized_jobs,
                migrations: round_migrations,
                pause_seconds: round_pause,
            },
            decisions,
        )
    }

    /// Captures the executor's full mutable state for a checkpoint. The
    /// pattern names every field, so a new one fails to compile until it
    /// is captured or marked `_` with the reason resume rebuilds it.
    pub(crate) fn capture(&self) -> ExecutorSnapshot {
        let Executor {
            cluster,
            jobs,
            stats,
            // A memo of pure functions of (model, batch), refilled on demand.
            curves: _,
            // Built from the cluster spec, which resume validates.
            net: _,
            // Taken from the run config, which resume validates.
            overheads: _,
            // Taken from the cluster spec, which resume validates.
            total_gpus: _,
            // Taken from the cluster spec, which resume validates.
            gpus_per_server: _,
            down_servers,
            migrations_total,
            total_pause,
            submitted,
            admitted,
        } = self;
        ExecutorSnapshot {
            cluster: cluster.clone(),
            jobs: jobs.clone(),
            // The arena has one materialized slot per arrived job, so
            // walking the job table (ascending by id) reproduces the
            // historical map's key set and order exactly.
            stats: jobs
                .iter()
                .map(|j| {
                    let st = stats.get(j.id());
                    (
                        j.id(),
                        JobStatsSnapshot {
                            paused_seconds: st.paused_seconds,
                            scale_events: st.scale_events,
                        },
                    )
                })
                .collect(),
            down_servers: down_servers.clone(),
            migrations_total: *migrations_total,
            total_pause: *total_pause,
            submitted: *submitted,
            admitted: *admitted,
        }
    }

    /// Replaces the executor's mutable state with a captured snapshot.
    /// Every snapshot field is bound by name, so one left unapplied is a
    /// denied unused variable. The curve memo is left empty — future
    /// arrivals repopulate it with bit-identical curves (deterministic
    /// construction), and restored jobs already carry their own curve
    /// copies.
    pub(crate) fn restore(&mut self, snap: ExecutorSnapshot) {
        let ExecutorSnapshot {
            cluster,
            jobs,
            stats,
            down_servers,
            migrations_total,
            total_pause,
            submitted,
            admitted,
        } = snap;
        self.cluster = cluster;
        self.jobs = jobs;
        self.stats.clear();
        for (id, st) in stats {
            *self.stats.slot_mut(id) = JobStats {
                paused_seconds: st.paused_seconds,
                scale_events: st.scale_events,
            };
        }
        self.down_servers = down_servers;
        self.migrations_total = migrations_total;
        self.total_pause = total_pause;
        self.submitted = submitted;
        self.admitted = admitted;
        self.curves.clear();
    }

    /// `true` while no admitted job holds GPUs (stall detection).
    pub(crate) fn none_running(&self) -> bool {
        !self.jobs.active().any(|j| j.current_gpus > 0)
    }

    /// Consumes the executor into final per-job outcomes plus the run-wide
    /// migration and pause totals.
    pub(crate) fn into_results(self) -> (Vec<JobOutcome>, u32, f64) {
        let outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .map(|j| {
                let st = self.stats.get(j.id());
                JobOutcome {
                    id: j.id(),
                    kind: j.spec.kind,
                    submit_time: j.spec.submit_time,
                    deadline: j.spec.deadline,
                    dropped: j.dropped,
                    finish_time: j.finish_time,
                    gpu_seconds: j.gpu_seconds,
                    paused_seconds: st.paused_seconds,
                    scale_events: st.scale_events,
                }
            })
            .collect();
        (outcomes, self.migrations_total, self.total_pause)
    }
}
