//! Structured decision provenance: why a job was declined, and what the
//! scheduler did to every job it touched.
//!
//! ElasticFlow's value proposition is the admit/decline decision (paper
//! Algorithm 1), so the system records *why* each decision fell the way
//! it did — not just a bare job id. The types here are the currency of
//! that provenance layer:
//!
//! - [`CapacityShortfall`] quantifies a failed admission: the binding
//!   slot window, the candidate's minimum-satisfactory GPU-slot demand
//!   over that window, and the free GPU-slots actually available.
//! - [`DeclineReason`] attributes a decline either to the candidate
//!   itself being infeasible or to an already-admitted job it would
//!   displace.
//! - [`DecisionRecord`] is one entry in the decision journal: every
//!   admit, decline, resize, preemption, migration, and pause the
//!   driver performs.
//!
//! Everything here is derived from already-deterministic scheduler
//! state — never from clocks — so a run's decision stream is
//! byte-identical across replays, and observers recording it cannot
//! perturb the golden replay digests.

use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

/// The capacity arithmetic behind a failed admission: how much the
/// rejected job needed within its binding window versus how much was
/// actually free there.
///
/// GPU-slots are the ledger's unit of account: one GPU held for one
/// deadline-grid slot. Demand is the *minimum-satisfactory* demand — the
/// cheapest schedule (fewest GPU-slots) that still meets the deadline —
/// so a positive [`CapacityShortfall::shortfall_gpu_slots`] certifies
/// that no allocation could have satisfied the job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityShortfall {
    /// Slots in the binding window (arrival through deadline slot,
    /// inclusive). `u64::MAX` stands in for a best-effort job's
    /// unbounded window.
    pub window_slots: u64,
    /// GPU-slots of the job's minimum-satisfactory demand over the
    /// window.
    pub demand_gpu_slots: f64,
    /// GPU-slots left uncommitted in the window when admission failed,
    /// clamped per slot to the job's largest usable allocation —
    /// capacity the job could never occupy doesn't count toward it.
    pub free_gpu_slots: f64,
}

impl CapacityShortfall {
    /// GPU-slots by which demand exceeds free capacity (clamped at 0:
    /// a decline can also stem from scaling-curve nonlinearity, where
    /// raw capacity is sufficient but no deadline-feasible shape fits).
    pub fn shortfall_gpu_slots(&self) -> f64 {
        (self.demand_gpu_slots - self.free_gpu_slots).max(0.0)
    }
}

/// Why admission control declined a job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeclineReason {
    /// The candidate itself cannot meet its deadline given what is
    /// already committed: the progressive fill failed *at the
    /// candidate*.
    CandidateInfeasible {
        /// Demand vs. free capacity in the candidate's own window.
        shortfall: CapacityShortfall,
    },
    /// Admitting the candidate would displace an already-guaranteed
    /// job: the fill failed at `blocking_job` downstream of the
    /// candidate.
    WouldDisplace {
        /// The admitted job whose deadline the candidate would break.
        blocking_job: JobId,
        /// Demand vs. free capacity in the blocking job's window.
        shortfall: CapacityShortfall,
    },
    /// The policy declined without structured provenance (baselines
    /// that predate — or opt out of — the provenance layer).
    Unexplained,
}

impl DeclineReason {
    /// Stable snake_case label, used for metric labels and journal
    /// queries.
    pub fn label(&self) -> &'static str {
        match self {
            DeclineReason::CandidateInfeasible { .. } => "candidate_infeasible",
            DeclineReason::WouldDisplace { .. } => "would_displace",
            DeclineReason::Unexplained => "unexplained",
        }
    }

    /// The shortfall record, when the reason carries one.
    pub fn shortfall(&self) -> Option<CapacityShortfall> {
        match self {
            DeclineReason::CandidateInfeasible { shortfall } => Some(*shortfall),
            DeclineReason::WouldDisplace { shortfall, .. } => Some(*shortfall),
            DeclineReason::Unexplained => None,
        }
    }
}

/// What kind of disruption a [`DecisionRecord::Pause`] charges for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PauseCause {
    /// The job's worker count changed (scaling overhead, paper §5.3).
    Scale,
    /// The job moved to different servers during defragmentation.
    Migrate,
    /// A server failure evicted the job; it restarts from a checkpoint.
    Recovery,
}

impl PauseCause {
    /// Stable snake_case label, used for metric labels and journal
    /// queries.
    pub fn label(self) -> &'static str {
        match self {
            PauseCause::Scale => "scale",
            PauseCause::Migrate => "migrate",
            PauseCause::Recovery => "recovery",
        }
    }
}

/// One scheduling decision, as threaded through
/// `SimObserver::on_decision` and persisted in the decision journal.
///
/// The stream is exhaustive: every admit/decline at arrival, every
/// worker-count change, preemption, migration, and disruption pause the
/// driver applies appears exactly once, in deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionRecord {
    /// The job entered the system with a deadline guarantee (or as
    /// best-effort).
    Admit {
        /// The admitted job.
        job: JobId,
    },
    /// Admission control rejected the job outright.
    Decline {
        /// The rejected job.
        job: JobId,
        /// Structured provenance for the rejection.
        reason: DeclineReason,
    },
    /// The job's worker count changed between two nonzero values.
    Resize {
        /// The resized job.
        job: JobId,
        /// Workers before the replan.
        from: u32,
        /// Workers after the replan.
        to: u32,
    },
    /// The job lost all its workers (suspended, not dropped).
    Preempt {
        /// The preempted job.
        job: JobId,
        /// Workers it held before preemption.
        gpus: u32,
    },
    /// The job kept its worker count but moved to different servers.
    Migrate {
        /// The migrated job.
        job: JobId,
        /// Workers it holds (unchanged by the move).
        gpus: u32,
    },
    /// The job is paused to charge a disruption overhead.
    Pause {
        /// The paused job.
        job: JobId,
        /// Pause length in simulated seconds.
        seconds: f64,
        /// What kind of disruption is being charged.
        cause: PauseCause,
    },
}

impl DecisionRecord {
    /// Stable snake_case kind label, used for metric labels and journal
    /// queries.
    pub fn kind_label(&self) -> &'static str {
        match self {
            DecisionRecord::Admit { .. } => "admit",
            DecisionRecord::Decline { .. } => "decline",
            DecisionRecord::Resize { .. } => "resize",
            DecisionRecord::Preempt { .. } => "preempt",
            DecisionRecord::Migrate { .. } => "migrate",
            DecisionRecord::Pause { .. } => "pause",
        }
    }

    /// The job this decision is about.
    pub fn job(&self) -> JobId {
        match self {
            DecisionRecord::Admit { job }
            | DecisionRecord::Decline { job, .. }
            | DecisionRecord::Resize { job, .. }
            | DecisionRecord::Preempt { job, .. }
            | DecisionRecord::Migrate { job, .. }
            | DecisionRecord::Pause { job, .. } => *job,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;

    fn shortfall() -> CapacityShortfall {
        CapacityShortfall {
            window_slots: 12,
            demand_gpu_slots: 40.0,
            free_gpu_slots: 25.5,
        }
    }

    #[test]
    fn shortfall_is_demand_minus_free_clamped_at_zero() {
        assert!((shortfall().shortfall_gpu_slots() - 14.5).abs() < 1e-12);
        let surplus = CapacityShortfall {
            window_slots: 4,
            demand_gpu_slots: 1.0,
            free_gpu_slots: 8.0,
        };
        assert_eq!(surplus.shortfall_gpu_slots(), 0.0);
    }

    #[test]
    fn labels_are_stable_snake_case() {
        let s = shortfall();
        assert_eq!(
            DeclineReason::CandidateInfeasible { shortfall: s }.label(),
            "candidate_infeasible"
        );
        assert_eq!(
            DeclineReason::WouldDisplace {
                blocking_job: JobId::new(7),
                shortfall: s
            }
            .label(),
            "would_displace"
        );
        assert_eq!(DeclineReason::Unexplained.label(), "unexplained");
        assert_eq!(PauseCause::Scale.label(), "scale");
        assert_eq!(PauseCause::Migrate.label(), "migrate");
        assert_eq!(PauseCause::Recovery.label(), "recovery");
    }

    #[test]
    fn every_record_kind_names_its_job() {
        let job = JobId::new(3);
        let records = [
            DecisionRecord::Admit { job },
            DecisionRecord::Decline {
                job,
                reason: DeclineReason::Unexplained,
            },
            DecisionRecord::Resize {
                job,
                from: 2,
                to: 4,
            },
            DecisionRecord::Preempt { job, gpus: 2 },
            DecisionRecord::Migrate { job, gpus: 4 },
            DecisionRecord::Pause {
                job,
                seconds: 35.0,
                cause: PauseCause::Recovery,
            },
        ];
        let kinds: Vec<&str> = records.iter().map(|r| r.kind_label()).collect();
        assert_eq!(
            kinds,
            ["admit", "decline", "resize", "preempt", "migrate", "pause"]
        );
        assert!(records.iter().all(|r| r.job() == job));
    }

    #[test]
    fn records_round_trip_through_serde() {
        let record = DecisionRecord::Decline {
            job: JobId::new(9),
            reason: DeclineReason::WouldDisplace {
                blocking_job: JobId::new(2),
                shortfall: shortfall(),
            },
        };
        let json = serde_json::to_string(&record).expect("serialize");
        let back: DecisionRecord = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, record);
    }
}
