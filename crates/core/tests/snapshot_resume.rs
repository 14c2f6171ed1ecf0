//! ElasticFlow checkpoints no policy state: it recomputes every plan
//! from the job table, so its snapshots carry `"scheduler_state":null`.
//! Snapshots written before that still carry the policy's configuration
//! (`{"planning_slot_seconds":60.0}`); both forms must resume to the
//! uninterrupted run's report.

use elasticflow_cluster::ClusterSpec;
use elasticflow_core::ElasticFlowScheduler;
use elasticflow_perfmodel::Interconnect;
use elasticflow_sim::{RunDirective, SimConfig, SimController, SimSnapshot, Simulation};
use elasticflow_trace::TraceConfig;

/// Checkpoints once at `round`, then stops: a crash right after a
/// checkpoint.
struct KillAt {
    round: u64,
    snapshot: Option<SimSnapshot>,
}

impl SimController for KillAt {
    fn directive(&mut self, _now: f64, round: u64) -> RunDirective {
        if round == self.round {
            RunDirective::CheckpointThenStop
        } else {
            RunDirective::Continue
        }
    }

    fn on_snapshot(&mut self, snapshot: SimSnapshot) {
        self.snapshot = Some(snapshot);
    }
}

#[test]
fn snapshots_with_and_without_the_old_state_string_resume_identically() {
    let spec = ClusterSpec::with_servers(2, 8);
    let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec));
    let sim = Simulation::new(spec, SimConfig::default());
    let mut never = KillAt {
        round: u64::MAX,
        snapshot: None,
    };
    let baseline = sim.run_controlled(
        &trace,
        &mut ElasticFlowScheduler::new(),
        &mut [],
        &mut never,
    );
    assert!(baseline.completed);
    assert!(baseline.rounds > 8, "scenario too short to cut");
    for cut in [baseline.rounds / 3, baseline.rounds / 2] {
        let mut controller = KillAt {
            round: cut,
            snapshot: None,
        };
        let crashed = sim.run_controlled(
            &trace,
            &mut ElasticFlowScheduler::new(),
            &mut [],
            &mut controller,
        );
        assert!(!crashed.completed, "cut {cut} did not stop the run");
        let mut snap = controller.snapshot.expect("checkpoint was captured");
        assert_eq!(snap.scheduler_state, None, "cut {cut}: state was written");
        for state in [Some(r#"{"planning_slot_seconds":60.0}"#), None] {
            snap.scheduler_state = state.map(str::to_owned);
            let resumed = sim
                .resume_observed(&trace, &mut ElasticFlowScheduler::new(), &mut [], &snap)
                .expect("snapshot resumes");
            assert_eq!(
                baseline.report, resumed,
                "cut {cut}, state {state:?}: resumed report diverged"
            );
        }
    }
}
