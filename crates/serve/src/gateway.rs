//! The deterministic decision core of the daemon.
//!
//! A [`Gateway`] is a pure state machine over the request stream: it
//! holds an [`AdmissionSet`] (the incremental Algorithm 1) anchored at a
//! moving origin slot, a scaling-curve cache, and cumulative counters.
//! Feeding it the same requests in the same order always produces the
//! same [`DecisionRecord`]s — no clocks, no randomness, no I/O — which
//! is what lets the daemon journal decisions and prove a
//! crash-recovered instance bit-identical to an uninterrupted one.

use std::collections::BTreeMap;

use elasticflow_cluster::ClusterSpec;
use elasticflow_core::{AdmissionSet, FillCounters, FillScratch, PlanningJob, SlotGrid};
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_persist::PERSIST_VERSION;
use elasticflow_sched::DecisionRecord;
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

use crate::proto::JobSubmission;
use crate::store::GatewaySnapshot;

/// Static configuration of a gateway instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Number of servers in the cluster being admitted into.
    pub servers: u32,
    /// GPUs per server.
    pub gpus_per_server: u32,
    /// Length of one deadline-grid slot, seconds.
    pub slot_seconds: f64,
}

impl Default for GatewayConfig {
    /// The paper's large testbed: 16 servers × 8 GPUs, 60 s slots.
    fn default() -> Self {
        GatewayConfig {
            servers: 16,
            gpus_per_server: 8,
            slot_seconds: 60.0,
        }
    }
}

impl GatewayConfig {
    /// Total GPUs in the configured cluster.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.gpus_per_server
    }
}

/// Cumulative gateway counters (monotone over a session; snapshotted
/// verbatim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayStats {
    /// Submissions processed (admitted + declined + best-effort).
    pub submissions: u64,
    /// Deadline jobs admitted with a guarantee.
    pub admitted: u64,
    /// Deadline jobs declined.
    pub declined: u64,
    /// Jobs accepted best-effort (no deadline, no reservation).
    pub best_effort: u64,
    /// Guaranteed jobs whose plans completed their work.
    pub completed: u64,
    /// Guaranteed jobs whose windows elapsed unfinished. A float-edge
    /// guard: an admitted profile finishes by its deadline, so this
    /// stays zero on the default loadgen streams.
    pub expired: u64,
    /// Guaranteed jobs dropped by a boundary refill. Not zero in
    /// practice: each slot-boundary crossing refills the survivors from
    /// scratch against their rebased windows, and that refill is not
    /// bound to reproduce the plans the jobs were admitted under, so an
    /// admitted job can lose its place (on the default 49,500-arrival
    /// loadgen stream, 631 of 3,533 admitted jobs lapse). Admissions
    /// minus expired and lapsed jobs is what met its deadline.
    pub lapsed: u64,
    /// Withdraw requests honoured.
    pub withdrawn: u64,
}

/// One committed job as captured in a gateway snapshot: everything
/// needed to rebuild its [`PlanningJob`] deterministically (the curve is
/// a pure function of model, batch, and interconnect).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotJob {
    /// Raw job id.
    pub id: u64,
    /// Model (keys the scaling curve).
    pub model: DnnModel,
    /// Global batch size (keys the scaling curve).
    pub global_batch: u32,
    /// Iterations still outstanding at the snapshot's origin.
    pub remaining_iterations: f64,
    /// Deadline slot relative to the snapshot's origin slot.
    pub deadline_slot: u64,
}

/// The pure online-admission state machine.
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    net: Interconnect,
    curves: BTreeMap<(DnnModel, u32), ScalingCurve>,
    /// The absolute slot the set's slot 0 maps to.
    origin_slot: u64,
    grid: SlotGrid,
    /// The committed jobs, with windows relative to `origin_slot`.
    set: AdmissionSet,
    stats: GatewayStats,
    /// The fill workspace every submission, withdrawal and boundary
    /// refill borrows. Carries no decision state between calls — reuse
    /// never changes an outcome, it only skips reallocation — so it is
    /// not part of a snapshot.
    scratch: FillScratch,
}

impl Gateway {
    /// A fresh gateway at origin slot 0.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no GPUs or `slot_seconds` is not
    /// positive (configuration errors).
    pub fn new(config: GatewayConfig) -> Self {
        let spec = ClusterSpec::with_servers(config.servers, config.gpus_per_server);
        let grid = SlotGrid::uniform(config.slot_seconds);
        let mut scratch = FillScratch::new();
        let (set, _) = AdmissionSet::fill(config.total_gpus(), Vec::new(), &grid, &mut scratch);
        Gateway {
            config,
            net: Interconnect::from_spec(&spec),
            curves: BTreeMap::new(),
            origin_slot: 0,
            grid,
            set,
            stats: GatewayStats::default(),
            scratch,
        }
    }

    /// Rebuilds a gateway from snapshot state (origin slot, committed
    /// jobs with origin-relative windows, counters). The refill is the
    /// same deterministic fill the live gateway maintains, so the
    /// rebuilt instance answers every subsequent request identically.
    pub fn from_snapshot(
        config: GatewayConfig,
        origin_slot: u64,
        jobs: &[SnapshotJob],
        stats: GatewayStats,
    ) -> Self {
        let mut gateway = Gateway::new(config);
        gateway.stats = stats;
        gateway.origin_slot = origin_slot;
        let planning: Vec<PlanningJob> = jobs
            .iter()
            .map(|j| PlanningJob {
                id: JobId::new(j.id),
                curve: gateway.curve(j.model, j.global_batch),
                remaining_iterations: j.remaining_iterations,
                deadline_slot: usize::try_from(j.deadline_slot).unwrap_or(usize::MAX),
            })
            .collect();
        let (set, lapsed) = AdmissionSet::fill(
            config.total_gpus(),
            planning,
            &gateway.grid,
            &mut gateway.scratch,
        );
        // A snapshot captures a jointly feasible set, so nothing lapses
        // on rebuild; counted defensively all the same.
        gateway.stats.lapsed += lapsed.len() as u64;
        gateway.set = set;
        gateway
    }

    /// The configuration this gateway runs under.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// Cumulative counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Work counters of the fill kernel since this gateway was built.
    /// Not snapshotted: a rebuilt gateway counts from its own rebuild.
    pub fn fill_counters(&self) -> FillCounters {
        self.scratch.counters()
    }

    /// Jobs currently holding a deadline guarantee.
    pub fn active_guaranteed(&self) -> u64 {
        self.set.len() as u64
    }

    /// Mean booked fraction of the cluster over the next `horizon_slots`
    /// slots, in `[0, 1]`.
    pub fn booked_fraction(&self, horizon_slots: usize) -> f64 {
        self.set.booked_fraction(horizon_slots)
    }

    /// The snapshot of this gateway's state, covering `wal_records` WAL
    /// records and `journal_entries` journal entries. The pattern names
    /// every field, so a new one fails to compile until it is captured or
    /// marked `_` with the reason [`Gateway::from_snapshot`] rebuilds it.
    pub(crate) fn snapshot(&self, wal_records: u64, journal_entries: u64) -> GatewaySnapshot {
        let Gateway {
            config,
            // Built from the configuration's cluster shape.
            net: _,
            // A memo of pure functions of (model, batch), refilled on demand.
            curves: _,
            // Built from the configuration's slot length.
            grid: _,
            origin_slot,
            set,
            stats,
            // Fill workspace: carries no decision state between calls.
            scratch: _,
        } = self;
        GatewaySnapshot {
            version: PERSIST_VERSION,
            wal_records,
            journal_entries,
            config: *config,
            origin_slot: *origin_slot,
            stats: *stats,
            jobs: set
                .jobs()
                .iter()
                .map(|j| SnapshotJob {
                    id: j.id.raw(),
                    model: j.curve.model(),
                    global_batch: j.curve.global_batch(),
                    remaining_iterations: j.remaining_iterations,
                    deadline_slot: j.deadline_slot as u64,
                })
                .collect(),
        }
    }

    /// Snapshot state: origin slot plus every committed job with its
    /// origin-relative window, in fill order.
    pub fn snapshot_jobs(&self) -> (u64, Vec<SnapshotJob>) {
        let snap = self.snapshot(0, 0);
        (snap.origin_slot, snap.jobs)
    }

    /// The scaling curve for `(model, global_batch)` on this cluster
    /// (memoized; curve construction probes the interconnect model).
    fn curve(&mut self, model: DnnModel, global_batch: u32) -> ScalingCurve {
        let total = self.config.total_gpus();
        self.curves
            .entry((model, global_batch))
            .or_insert_with(|| ScalingCurve::build_with_max(model, global_batch, &self.net, total))
            .clone()
    }

    /// The absolute slot containing time `seconds` (slot boundaries at
    /// integer multiples of the slot length). Times before 0 and
    /// non-finite times clamp to slot 0.
    fn slot_of(&self, seconds: f64) -> u64 {
        elasticflow_cluster::num::slots_floor(seconds / self.grid.rest_seconds()).unwrap_or(0)
            as u64
    }

    /// Moves the admission origin to the slot containing `seconds` (never
    /// backwards), retiring finished plans and rebasing survivors.
    fn advance_to_seconds(&mut self, seconds: f64) {
        let slot = self.slot_of(seconds);
        if slot <= self.origin_slot {
            return;
        }
        let elapsed = usize::try_from(slot - self.origin_slot).unwrap_or(usize::MAX);
        self.origin_slot = slot;
        let report = self.set.advance(elapsed, &self.grid, &mut self.scratch);
        self.stats.completed += report.completed.len() as u64;
        self.stats.expired += report.expired.len() as u64;
        self.stats.lapsed += report.lapsed.len() as u64;
    }

    /// Answers one submission: advances the clock to the arrival, then
    /// runs the admit/decline decision. Best-effort jobs (no deadline)
    /// are admitted without a reservation; deadline jobs go through the
    /// incremental Algorithm 1.
    pub fn submit(&mut self, sub: &JobSubmission) -> DecisionRecord {
        self.stats.submissions += 1;
        self.advance_to_seconds(sub.arrival_seconds);
        let job_id = JobId::new(sub.id);
        let Some(deadline_seconds) = sub.deadline_seconds.filter(|d| d.is_finite()) else {
            self.stats.best_effort += 1;
            return DecisionRecord::Admit { job: job_id };
        };
        // Conservative window: only slots that end at or before the
        // deadline count (same rounding as `SlotGrid::slots_before`). A
        // deadline at or before the origin leaves a zero-slot window,
        // which Algorithm 1 rejects unless the job has no work left.
        let window = self
            .slot_of(deadline_seconds)
            .saturating_sub(self.origin_slot);
        let candidate = PlanningJob {
            id: job_id,
            curve: self.curve(sub.model, sub.global_batch),
            remaining_iterations: sub.iterations,
            deadline_slot: usize::try_from(window).unwrap_or(usize::MAX),
        };
        match self.set.admit(candidate, &self.grid, &mut self.scratch) {
            Ok(()) => {
                self.stats.admitted += 1;
                DecisionRecord::Admit { job: job_id }
            }
            Err(denial) => {
                self.stats.declined += 1;
                DecisionRecord::Decline {
                    job: job_id,
                    reason: denial.decline_reason(job_id),
                }
            }
        }
    }

    /// Withdraws a committed job, releasing its reservation. Returns the
    /// raw ids of any jobs the refill could no longer satisfy.
    pub fn withdraw(&mut self, id: u64, at_seconds: f64) -> Vec<u64> {
        self.advance_to_seconds(at_seconds);
        self.stats.withdrawn += 1;
        let lapsed = self
            .set
            .withdraw(JobId::new(id), &self.grid, &mut self.scratch);
        self.stats.lapsed += lapsed.len() as u64;
        lapsed.iter().map(|j| j.raw()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_sched::DeclineReason;
    use proptest::prelude::*;

    /// Iterations equal to `seconds` of single-GPU work on the small
    /// cluster — the sizing that makes saturation arithmetic legible
    /// (one job with a 30-slot window books ≥ 30 GPU-slots).
    fn half_hour_iterations() -> f64 {
        let spec = ClusterSpec::with_servers(1, 8);
        let net = Interconnect::from_spec(&spec);
        let curve = ScalingCurve::build_with_max(DnnModel::ResNet50, 128, &net, 8);
        curve.iters_per_sec(1).expect("1 GPU is on the curve") * 1_800.0
    }

    fn sub(id: u64, arrival: f64, deadline: Option<f64>) -> JobSubmission {
        JobSubmission {
            id,
            model: DnnModel::ResNet50,
            global_batch: 128,
            iterations: half_hour_iterations(),
            arrival_seconds: arrival,
            deadline_seconds: deadline,
        }
    }

    fn small() -> GatewayConfig {
        GatewayConfig {
            servers: 1,
            gpus_per_server: 8,
            slot_seconds: 60.0,
        }
    }

    #[test]
    fn slot_of_maps_times_onto_boundaries() {
        let gw = Gateway::new(GatewayConfig {
            servers: 1,
            gpus_per_server: 4,
            slot_seconds: 60.0,
        });
        assert_eq!(gw.slot_of(0.0), 0);
        assert_eq!(gw.slot_of(59.9), 0);
        assert_eq!(gw.slot_of(60.0), 1);
        assert_eq!(gw.slot_of(3600.0), 60);
        assert_eq!(gw.slot_of(-5.0), 0);
        assert_eq!(gw.slot_of(f64::NAN), 0);
    }

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the test fails on any variant it does not expect"
    )]
    fn submit_converts_absolute_deadlines_to_the_origin() {
        // One GPU, 1 s slots; `work(s)` is `s` seconds of its work.
        let config = GatewayConfig {
            servers: 1,
            gpus_per_server: 1,
            slot_seconds: 1.0,
        };
        let net = Interconnect::from_spec(&ClusterSpec::with_servers(1, 1));
        let curve = ScalingCurve::build_with_max(DnnModel::ResNet50, 128, &net, 1);
        let rate = curve.iters_per_sec(1).expect("1 GPU is on the curve");
        let at = |id: u64, arrival: f64, deadline: f64| JobSubmission {
            id,
            model: DnnModel::ResNet50,
            global_batch: 128,
            iterations: rate * 2.0,
            arrival_seconds: arrival,
            deadline_seconds: Some(deadline),
        };
        let mut gw = Gateway::new(config);
        // 2 s of work, 2 slots of window: feasible.
        assert!(matches!(
            gw.submit(&at(0, 0.0, 2.0)),
            DecisionRecord::Admit { .. }
        ));
        // Same shape with a dead window: declined, state unchanged.
        assert!(matches!(
            gw.submit(&at(1, 0.0, 0.0)),
            DecisionRecord::Decline { .. }
        ));
        assert_eq!(gw.active_guaranteed(), 1);
        // One slot later the same absolute deadline buys one less slot
        // of window: the newcomer cannot fit even alone.
        match gw.submit(&at(2, 1.0, 2.0)) {
            DecisionRecord::Decline { reason, .. } => assert!(
                matches!(reason, DeclineReason::CandidateInfeasible { .. }),
                "the newcomer blocks itself, got {reason:?}"
            ),
            other => panic!("expected a decline, got {other:?}"),
        }
        assert_eq!(gw.snapshot_jobs().0, 1);
    }

    #[test]
    fn best_effort_is_always_admitted_without_reservation() {
        let mut gw = Gateway::new(small());
        for i in 0..50 {
            let d = gw.submit(&sub(i, i as f64, None));
            assert!(matches!(d, DecisionRecord::Admit { .. }));
        }
        assert_eq!(gw.active_guaranteed(), 0);
        assert_eq!(gw.stats().best_effort, 50);
    }

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the test fails on any variant it does not expect"
    )]
    fn deadline_jobs_admit_until_capacity_then_decline_with_provenance() {
        let mut gw = Gateway::new(small());
        let mut admitted = 0u64;
        let mut declined = 0u64;
        for i in 0..40 {
            // All jobs arrive at t=0 with a 30-minute window.
            match gw.submit(&sub(i, 0.0, Some(1_800.0))) {
                DecisionRecord::Admit { .. } => admitted += 1,
                DecisionRecord::Decline { reason, .. } => {
                    declined += 1;
                    assert!(
                        reason.shortfall().is_some(),
                        "serve declines carry structured shortfalls"
                    );
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert!(admitted > 0, "an empty cluster admits something");
        assert!(declined > 0, "40 concurrent jobs exceed 8 GPUs");
        assert_eq!(gw.stats().admitted, admitted);
        assert_eq!(gw.stats().declined, declined);
        assert_eq!(gw.active_guaranteed(), admitted);
    }

    #[test]
    fn time_passing_retires_plans_and_frees_capacity() {
        let mut gw = Gateway::new(small());
        let mut first_declined_at = None;
        for i in 0..40 {
            if let DecisionRecord::Decline { .. } = gw.submit(&sub(i, 0.0, Some(1_800.0))) {
                first_declined_at = Some(i);
                break;
            }
        }
        let full_at = first_declined_at.expect("cluster saturates");
        // Same submission a day later: every plan has retired.
        let d = gw.submit(&sub(1_000, 86_400.0, Some(88_200.0)));
        assert!(matches!(d, DecisionRecord::Admit { .. }));
        assert_eq!(gw.stats().completed, full_at);
    }

    #[test]
    fn identical_streams_produce_identical_decisions() {
        let stream: Vec<JobSubmission> = (0..200)
            .map(|i| {
                sub(
                    i,
                    f64::from(i as u32) * 30.0,
                    if i % 3 == 0 {
                        None
                    } else {
                        Some(
                            f64::from(i as u32) * 30.0
                                + 1_200.0
                                + f64::from((i % 7) as u32) * 600.0,
                        )
                    },
                )
            })
            .collect();
        let mut a = Gateway::new(small());
        let mut b = Gateway::new(small());
        for s in &stream {
            assert_eq!(a.submit(s), b.submit(s));
        }
        assert_eq!(a.stats(), b.stats());
    }

    /// The fill kernel's work and the admit count on a seeded
    /// 5,000-submission stream of `serve_deadline`'s shape (the default
    /// loadgen mix on the default cluster). The counters are a pure
    /// function of the fills the gateway asks for, so a change that
    /// moves one of them changes how much work admission does at scale.
    #[test]
    fn fill_counters_are_pinned_on_a_seeded_stream() {
        use crate::loadgen::{loadgen_stream, LoadgenConfig};
        use crate::proto::Request;

        let stream = loadgen_stream(&LoadgenConfig {
            arrivals: 5_000,
            ..LoadgenConfig::default()
        });
        let mut gw = Gateway::new(GatewayConfig::default());
        for request in &stream {
            if let Request::Submit { job } = request {
                gw.submit(job);
            }
        }
        assert_eq!(gw.stats().submissions, 5_000);
        assert_eq!(gw.stats().admitted, 468);
        assert_eq!(
            gw.fill_counters(),
            FillCounters {
                probes: 420_879,
                pruned_entry: 237_326,
                pruned_walk: 60_457,
                pruned_pinned: 0,
                booked_slots: 5_420_864,
                headroom_slots: 3_582_635,
                partial_slots: 122_922,
                failed_slots: 2_975_733,
                tail_steps: 246_171,
                boost_candidates: 0,
                boosts_applied: 0,
                certified_boosts: 0,
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A gateway rebuilt from a snapshot taken at any cut point of a
        /// mixed stream answers every later submission as the live one
        /// does and ends with equal counters. The rebuild is a
        /// from-scratch fill of the snapshot jobs, the live set was built
        /// incrementally, so this pins that both reach the same boundary
        /// outcomes (completions, expiries, lapses).
        #[test]
        fn snapshot_round_trip_preserves_future_decisions(
            arrivals in prop::collection::vec((0u32..120, 0u32..10, 0.3f64..3.0), 20..80),
            cut in 0.0f64..1.0,
        ) {
            let base = half_hour_iterations();
            let mut arrival = 0.0;
            let stream: Vec<JobSubmission> = arrivals
                .iter()
                .enumerate()
                .map(|(i, &(gap, window, scale))| {
                    arrival += f64::from(gap);
                    JobSubmission {
                        id: i as u64,
                        model: DnnModel::ResNet50,
                        global_batch: 128,
                        iterations: base * scale,
                        arrival_seconds: arrival,
                        // Window code 0 is best-effort; the rest spread
                        // deadlines from 10 minutes to 90.
                        deadline_seconds: (window > 0)
                            .then(|| arrival + f64::from(window) * 600.0),
                    }
                })
                .collect();
            let cut = (cut * stream.len() as f64) as usize;
            let mut live = Gateway::new(small());
            for s in &stream[..cut] {
                let _ = live.submit(s);
            }
            let (origin, jobs) = live.snapshot_jobs();
            let mut rebuilt = Gateway::from_snapshot(small(), origin, &jobs, live.stats());
            prop_assert_eq!(rebuilt.stats(), live.stats());
            prop_assert_eq!(rebuilt.active_guaranteed(), live.active_guaranteed());
            // The rebuilt gateway must answer the entire future identically.
            for s in &stream[cut..] {
                prop_assert_eq!(live.submit(s), rebuilt.submit(s), "job {}", s.id);
            }
            prop_assert_eq!(live.stats(), rebuilt.stats());
            prop_assert_eq!(live.snapshot_jobs(), rebuilt.snapshot_jobs());
        }
    }

    #[test]
    #[expect(
        clippy::wildcard_enum_match_arm,
        reason = "the test fails on any variant it does not expect"
    )]
    fn withdraw_frees_the_reservation() {
        let mut gw = Gateway::new(small());
        let mut last_admitted = None;
        for i in 0..40 {
            match gw.submit(&sub(i, 0.0, Some(1_800.0))) {
                DecisionRecord::Admit { job } => last_admitted = Some(job.raw()),
                DecisionRecord::Decline { .. } => break,
                other => panic!("unexpected decision {other:?}"),
            }
        }
        let victim = last_admitted.expect("something admitted");
        let lapsed = gw.withdraw(victim, 0.0);
        assert!(lapsed.is_empty());
        // The freed share re-admits an equivalent job.
        let d = gw.submit(&sub(900, 0.0, Some(1_800.0)));
        assert!(matches!(d, DecisionRecord::Admit { .. }));
    }
}
