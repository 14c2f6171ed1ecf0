//! The deterministic event core: typed events, next-event selection, and
//! `EPS_TIME` batching.
//!
//! This layer owns *when* things happen and *what kind* of thing happens;
//! it never touches cluster or job state. Two event streams are static and
//! share one shape: a vector sorted once at construction plus a cursor —
//! arrivals in trace order, failure/repair transitions in time order with
//! schedule order breaking ties. The other candidates (completions, slot
//! boundaries) are *derived* from job state at selection time, because any
//! replan invalidates them — deriving is cheaper and simpler than queue
//! invalidation, and it is exactly the "fast-forwarding" the paper's
//! simulator does (§6.2).
//!
//! All events within [`EPS_TIME`] of the chosen step time fire as one
//! batch, preserving the engine's original simultaneous-event semantics.

use elasticflow_sched::JobTable;
use elasticflow_trace::{JobId, JobSpec, Trace};
use serde::{Deserialize, Serialize};

use crate::failures::FailureSchedule;
use crate::snapshot::{EventCoreSnapshot, ResumeError};

/// Time tolerance for batching simultaneous events.
pub(crate) const EPS_TIME: f64 = 1e-9;

/// One typed simulation event, as seen by [`crate::SimObserver`] hooks.
///
/// Events carry identities only; the event time is passed alongside, and
/// cluster/job state is available through [`crate::SimContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A job was submitted (admission has already been decided when
    /// observers see this event).
    Arrival {
        /// The arriving job.
        job: JobId,
    },
    /// A job ran its remaining iterations to zero and released its GPUs.
    Completion {
        /// The finished job.
        job: JobId,
    },
    /// A scheduling-slot boundary was reached (periodic replan trigger).
    SlotBoundary,
    /// A server failed; its GPUs are fenced off and overlapping jobs are
    /// evicted (paper §4.4).
    ServerFailure {
        /// Index of the failing server.
        server: u32,
    },
    /// A failed server returned to service.
    ServerRepair {
        /// Index of the repaired server.
        server: u32,
    },
    /// A job's scaling/migration/recovery pause elapsed within this step.
    /// Informational: paused jobs resume mid-interval without a dedicated
    /// wake-up, so this variant never influences step selection.
    PauseEnd {
        /// The job whose pause ended.
        job: JobId,
    },
}

/// The outcome of next-event selection: the step time plus which derived
/// candidates fire at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Step {
    /// Time of the next event batch (may be in the past by up to
    /// `EPS_TIME`; callers clamp with `max(now)`).
    pub time: f64,
    /// `true` when the slot-boundary candidate fires in this batch.
    pub slot_boundary: bool,
}

/// Event selection state: cursors over the static event streams plus the
/// parameters governing derived candidates.
#[derive(Debug)]
pub(crate) struct EventCore<'t> {
    arrivals: &'t [JobSpec],
    next_arrival: usize,
    /// Failure/repair timeline: `(time, server, is_repair)`, stably sorted
    /// by time.
    transitions: Vec<(f64, u32, bool)>,
    next_transition: usize,
    slot_seconds: f64,
    last_arrival: f64,
    horizon_after_last_arrival: f64,
}

impl<'t> EventCore<'t> {
    /// Builds the event core for one run: arrival cursor over the trace,
    /// failure/repair transitions expanded from the schedule (events on
    /// out-of-range servers are ignored), and the slot/horizon parameters.
    pub(crate) fn new(
        trace: &'t Trace,
        failures: &FailureSchedule,
        num_servers: u32,
        slot_seconds: f64,
        horizon_after_last_arrival: f64,
    ) -> Self {
        let arrivals = trace.jobs();
        let last_arrival = arrivals.last().map(|j| j.submit_time).unwrap_or(0.0);
        let mut transitions: Vec<(f64, u32, bool)> = Vec::new();
        for f in failures.events() {
            if f.server < num_servers {
                transitions.push((f.at, f.server, false));
                transitions.push((f.at + f.repair_seconds, f.server, true));
            }
        }
        transitions.sort_by(|a, b| a.0.total_cmp(&b.0));
        EventCore {
            arrivals,
            next_arrival: 0,
            transitions,
            next_transition: 0,
            slot_seconds,
            last_arrival,
            horizon_after_last_arrival,
        }
    }

    /// Selects the next event batch: the minimum over the pending arrival,
    /// the earliest predicted completion, the next slot boundary (only
    /// while work exists), and the next failure/repair transition (only
    /// while work remains). Returns `None` when the simulation is drained
    /// or the starvation horizon is exceeded.
    pub(crate) fn next_step(&self, now: f64, jobs: &JobTable) -> Option<Step> {
        let t_arrival = self.arrivals.get(self.next_arrival).map(|j| j.submit_time);
        let t_completion = jobs
            .active()
            .filter(|j| j.current_gpus > 0)
            .map(|j| {
                let tput = j.current_iters_per_sec();
                j.paused_until.max(now) + j.remaining_iterations / tput
            })
            .fold(f64::INFINITY, f64::min);
        let any_running = jobs.active().any(|j| j.current_gpus > 0);
        let t_slot = if any_running || t_arrival.is_some() {
            Some(((now / self.slot_seconds).floor() + 1.0) * self.slot_seconds)
        } else {
            None
        };
        let t_transition = self.transitions.get(self.next_transition).map(|&(t, ..)| t);

        let mut t_next = f64::INFINITY;
        if let Some(t) = t_arrival {
            t_next = t_next.min(t);
        }
        t_next = t_next.min(t_completion);
        if let Some(t) = t_slot {
            t_next = t_next.min(t);
        }
        if let Some(t) = t_transition {
            // Failure/repair events only matter while work remains.
            if jobs.active().next().is_some() || t_arrival.is_some() {
                t_next = t_next.min(t);
            }
        }
        if !t_next.is_finite() {
            return None; // no arrivals, nothing running: simulation drained
        }
        if t_next > self.last_arrival + self.horizon_after_last_arrival {
            return None; // starvation horizon
        }
        let slot_boundary = t_slot.is_some_and(|ts| ts <= t_next + EPS_TIME);
        Some(Step {
            time: t_next,
            slot_boundary,
        })
    }

    /// Pops every failure/repair transition due at `now` (within
    /// `EPS_TIME`), in stable time order.
    pub(crate) fn due_transitions(&mut self, now: f64) -> Vec<(u32, bool)> {
        let mut due = Vec::new();
        while let Some(&(t, server, is_repair)) = self.transitions.get(self.next_transition) {
            if t > now + EPS_TIME {
                break;
            }
            self.next_transition += 1;
            due.push((server, is_repair));
        }
        due
    }

    /// Pops every arrival due at `now` (within `EPS_TIME`), in trace order.
    pub(crate) fn due_arrivals(&mut self, now: f64) -> Vec<JobSpec> {
        let mut due = Vec::new();
        while let Some(spec) = self.arrivals.get(self.next_arrival) {
            if spec.submit_time > now + EPS_TIME {
                break;
            }
            self.next_arrival += 1;
            due.push(spec.clone());
        }
        due
    }

    /// Emits a [`Event::PauseEnd`] for every active job whose pause elapsed
    /// in `(prev_now, t]`, in job-id order. Informational only — paused
    /// jobs resume mid-interval without a wake-up, so these events never
    /// change step selection or replay arithmetic.
    pub(crate) fn pause_end_events(
        &self,
        prev_now: f64,
        t: f64,
        jobs: &JobTable,
        out: &mut Vec<Event>,
    ) {
        for job in jobs.active() {
            if job.paused_until > prev_now && job.paused_until <= t {
                out.push(Event::PauseEnd { job: job.id() });
            }
        }
    }

    /// `true` when both static event streams are exhausted (no pending
    /// arrivals or failure/repair transitions).
    pub(crate) fn exhausted(&self) -> bool {
        self.next_arrival >= self.arrivals.len() && self.next_transition >= self.transitions.len()
    }

    /// Captures the cursor positions; the streams themselves are rebuilt
    /// from the trace and failure schedule on resume. The pattern names
    /// every field, so a new one fails to compile until it is captured or
    /// marked `_` with the reason resume rebuilds it.
    pub(crate) fn capture(&self) -> EventCoreSnapshot {
        let EventCore {
            // Rebuilt from the trace, which resume fingerprints.
            arrivals: _,
            next_arrival,
            // Rebuilt from the failure schedule in the validated config.
            transitions: _,
            next_transition,
            // Taken from the run config, which resume validates.
            slot_seconds: _,
            // Read off the trace, which resume fingerprints.
            last_arrival: _,
            // Taken from the run config, which resume validates.
            horizon_after_last_arrival: _,
        } = self;
        EventCoreSnapshot {
            next_arrival: *next_arrival,
            next_transition: *next_transition,
        }
    }

    /// Restores captured cursor positions, validating them against the
    /// freshly rebuilt streams. Each cursor is bound by name and used only
    /// by its assignment, so one left unapplied is a denied unused
    /// variable.
    pub(crate) fn restore(&mut self, snap: &EventCoreSnapshot) -> Result<(), ResumeError> {
        let EventCoreSnapshot {
            next_arrival,
            next_transition,
        } = *snap;
        let arrival = checked_cursor("arrival", next_arrival, self.arrivals.len())?;
        let transition = checked_cursor("transition", next_transition, self.transitions.len())?;
        self.next_arrival = arrival;
        self.next_transition = transition;
        Ok(())
    }
}

/// `value` when it is a valid cursor into a stream of `len` events.
fn checked_cursor(cursor: &'static str, value: usize, len: usize) -> Result<usize, ResumeError> {
    if value > len {
        return Err(ResumeError::CursorOutOfRange { cursor, value, len });
    }
    Ok(value)
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::failures::NodeFailure;
    use elasticflow_trace::Rng;

    fn fail(server: u32, at: f64, repair_seconds: f64) -> NodeFailure {
        NodeFailure {
            server,
            at,
            repair_seconds,
        }
    }

    fn core<'t>(trace: &'t Trace, events: Vec<NodeFailure>, num_servers: u32) -> EventCore<'t> {
        let schedule = FailureSchedule::fixed(events);
        EventCore::new(trace, &schedule, num_servers, 3_600.0, 1.0e9)
    }

    #[test]
    fn same_instant_tie_pops_in_schedule_order() {
        let trace = Trace::new("empty", Vec::new());
        // Server 1's repair and server 2's failure both land at 3,000 s;
        // the repair was scheduled first, so it fires first.
        let mut c = core(
            &trace,
            vec![fail(1, 1_200.0, 1_800.0), fail(2, 3_000.0, 600.0)],
            4,
        );
        assert_eq!(c.due_transitions(1_199.0), vec![]);
        assert_eq!(c.due_transitions(1_200.0), vec![(1, false)]);
        assert_eq!(c.due_transitions(3_000.0), vec![(1, true), (2, false)]);
        assert!(!c.exhausted());
        assert_eq!(c.due_transitions(3_600.0), vec![(2, true)]);
        assert!(c.exhausted());
        assert_eq!(c.due_transitions(1.0e9), vec![]);
    }

    #[test]
    fn a_transition_within_eps_of_now_fires_in_the_same_batch() {
        let trace = Trace::new("empty", Vec::new());
        let mut c = core(
            &trace,
            vec![
                fail(0, 100.0, 50.0),
                fail(1, 100.0 + 0.5 * EPS_TIME, 50.0),
                fail(2, 100.0 + 4.0 * EPS_TIME, 50.0),
            ],
            4,
        );
        assert_eq!(c.due_transitions(100.0), vec![(0, false), (1, false)]);
        assert_eq!(c.due_transitions(100.0 + 4.0 * EPS_TIME), vec![(2, false)]);
    }

    #[test]
    fn events_on_servers_past_the_cluster_are_dropped() {
        let trace = Trace::new("empty", Vec::new());
        let mut c = core(
            &trace,
            vec![fail(2, 10.0, 5.0), fail(1, 20.0, 5.0), fail(7, 30.0, 5.0)],
            2,
        );
        assert_eq!(c.transitions.len(), 2);
        assert_eq!(c.due_transitions(1.0e9), vec![(1, false), (1, true)]);
        assert!(c.exhausted());

        let mut none = core(&trace, Vec::new(), 2);
        assert!(none.exhausted());
        assert_eq!(none.due_transitions(1.0e9), vec![]);
    }

    /// Every batch holds exactly the transitions scheduled at that instant,
    /// in schedule order — checked against a filter of the push sequence,
    /// not a sort, on schedules mixing spread-out, clustered and exactly
    /// tied times.
    #[test]
    fn random_timelines_drain_in_time_then_schedule_order() {
        let trace = Trace::new("empty", Vec::new());
        let mut rng = Rng::new(0x5eed_ca1e);
        for case in 0..100 {
            let n = u32::try_from(1 + rng.uniform_usize(60)).unwrap();
            let mut draw = || match rng.uniform_usize(3) {
                0 => rng.uniform_range(0.0, 1.0e6),
                1 => rng.uniform_range(0.0, 10.0),
                _ => (1 + rng.uniform_usize(5)) as f64 * 2.5,
            };
            let events: Vec<NodeFailure> = (0..n)
                .map(|server| {
                    let at = draw();
                    fail(server, at, draw())
                })
                .collect();
            // The push sequence: `fixed` orders failures stably by time,
            // then each contributes its failure and its repair.
            let schedule = FailureSchedule::fixed(events);
            let pushed: Vec<(f64, u32, bool)> = schedule
                .events()
                .iter()
                .flat_map(|f| {
                    [
                        (f.at, f.server, false),
                        (f.at + f.repair_seconds, f.server, true),
                    ]
                })
                .collect();
            let mut times: Vec<f64> = pushed.iter().map(|p| p.0).collect();
            times.sort_by(f64::total_cmp);
            times.dedup();

            let mut c = EventCore::new(&trace, &schedule, n, 3_600.0, 1.0e9);
            for t in times {
                let expected: Vec<(u32, bool)> = pushed
                    .iter()
                    .filter(|p| p.0 == t)
                    .map(|&(_, server, is_repair)| (server, is_repair))
                    .collect();
                assert_eq!(c.due_transitions(t), expected, "case {case} at t = {t}");
            }
            assert!(c.exhausted(), "case {case}");
        }
    }

    #[test]
    fn restoring_a_mid_timeline_cursor_replays_the_same_tail() {
        let trace = Trace::new("empty", Vec::new());
        let schedule = FailureSchedule::poisson(8, 3_600.0, 600.0, 86_400.0, 7);
        let mut whole = EventCore::new(&trace, &schedule, 8, 3_600.0, 1.0e9);
        assert!(whole.transitions.len() > 20);
        let cut = whole.transitions[whole.transitions.len() / 2].0;
        let head = whole.due_transitions(cut);
        assert!(!head.is_empty());
        let snap = whole.capture();
        assert_eq!(snap.next_transition, head.len());

        let mut resumed = EventCore::new(&trace, &schedule, 8, 3_600.0, 1.0e9);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.capture(), snap);
        let mut now = cut;
        while !whole.exhausted() {
            now += 900.0;
            assert_eq!(resumed.due_transitions(now), whole.due_transitions(now));
            assert_eq!(resumed.exhausted(), whole.exhausted());
        }
        assert!(resumed.exhausted());
    }

    #[test]
    fn a_cursor_past_the_timeline_is_out_of_range() {
        let trace = Trace::new("empty", Vec::new());
        let mut c = core(&trace, vec![fail(0, 10.0, 5.0)], 1);
        let mut snap = c.capture();
        snap.next_transition = 2;
        c.restore(&snap).unwrap();
        assert!(c.exhausted());
        snap.next_transition = 3;
        assert_eq!(
            c.restore(&snap),
            Err(ResumeError::CursorOutOfRange {
                cursor: "transition",
                value: 3,
                len: 2,
            })
        );
    }
}
