//! The two serialization paths agree byte for byte.
//!
//! `serde_json::to_string` streams a value through its `Serialize` impl
//! straight into the JSON writer; `serde_json::to_value` builds a `Value`
//! tree from the same impl, which the writer then renders. Every
//! persisted or fingerprinted type must come out identical both ways (and
//! through `to_writer`), and a committed JSON document must survive a
//! parse into a `Value` and a render back unchanged.

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow::persist::PERSIST_VERSION;
use elasticflow::sched::{CapacityShortfall, DecisionRecord, DeclineReason, PauseCause};
use elasticflow::serve::{Gateway, GatewayConfig, GatewaySnapshot, JobSubmission};
use elasticflow::sim::{
    FailureSchedule, NodeFailure, RunDirective, SimConfig, SimController, SimSnapshot, Simulation,
};
use elasticflow::trace::{JobId, Trace, TraceConfig};
use serde::Serialize;

/// Renders `value` through every path and asserts they agree.
fn assert_paths_agree<T: Serialize + ?Sized>(label: &str, value: &T) -> String {
    let streamed = serde_json::to_string(value).expect("serializes");
    let tree = serde_json::to_value(value).to_string();
    assert_eq!(streamed, tree, "{label}: streamed vs tree");
    let mut written = Vec::new();
    serde_json::to_writer(&mut written, value).expect("writes");
    assert_eq!(
        written,
        streamed.as_bytes(),
        "{label}: to_writer vs to_string"
    );
    streamed
}

/// Captures the snapshot at one round and stops.
struct CheckpointAt {
    round: u64,
    snapshot: Option<SimSnapshot>,
}

impl SimController for CheckpointAt {
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

/// The small testbed under ElasticFlow with a server down, so the
/// snapshot carries failure state as well as running jobs.
fn scenario() -> (Simulation, Trace) {
    let spec = ClusterSpec::small_testbed();
    let trace = TraceConfig::testbed_small(7).generate(&Interconnect::from_spec(&spec));
    let config = SimConfig::default().with_failures(FailureSchedule::fixed(vec![NodeFailure {
        server: 1,
        at: 1_200.0,
        repair_seconds: 3_600.0,
    }]));
    (Simulation::new(spec, config), trace)
}

#[test]
fn simulator_state_serializes_identically_both_ways() {
    let (sim, trace) = scenario();
    assert_paths_agree("trace", &trace);

    let mut at = CheckpointAt {
        round: 30,
        snapshot: None,
    };
    sim.run_controlled(&trace, &mut ElasticFlowScheduler::new(), &mut [], &mut at);
    let snapshot = at.snapshot.expect("the run reaches the checkpoint round");
    assert!(!snapshot.executor.jobs.is_empty());
    assert_paths_agree("mid-run snapshot", &snapshot);
    assert_paths_agree("cluster state", &snapshot.executor.cluster);

    let report = sim.run(&trace, &mut ElasticFlowScheduler::new());
    for outcome in report.outcomes() {
        assert_paths_agree("job outcome", outcome);
    }
    assert_paths_agree("report", &report);
}

#[test]
fn scaling_curves_serialize_identically_both_ways() {
    let net = Interconnect::paper_testbed();
    for model in [DnnModel::ResNet50, DnnModel::Bert, DnnModel::Gpt2] {
        assert_paths_agree("curve", &ScalingCurve::build(model, 128, &net));
    }
}

#[test]
fn every_decision_record_serializes_identically_both_ways() {
    let shortfall = CapacityShortfall {
        window_slots: u64::MAX,
        demand_gpu_slots: 12.5,
        free_gpu_slots: 0.0,
    };
    let job = JobId::new(9);
    let records = [
        DecisionRecord::Admit { job },
        DecisionRecord::Decline {
            job,
            reason: DeclineReason::CandidateInfeasible { shortfall },
        },
        DecisionRecord::Decline {
            job,
            reason: DeclineReason::WouldDisplace {
                blocking_job: JobId::new(3),
                shortfall,
            },
        },
        DecisionRecord::Decline {
            job,
            reason: DeclineReason::Unexplained,
        },
        DecisionRecord::Resize {
            job,
            from: 2,
            to: 8,
        },
        DecisionRecord::Preempt { job, gpus: 4 },
        DecisionRecord::Migrate { job, gpus: 4 },
        DecisionRecord::Pause {
            job,
            seconds: 1.0 / 3.0,
            cause: PauseCause::Scale,
        },
        DecisionRecord::Pause {
            job,
            seconds: 30.0,
            cause: PauseCause::Migrate,
        },
        DecisionRecord::Pause {
            job,
            seconds: f64::INFINITY,
            cause: PauseCause::Recovery,
        },
    ];
    for record in &records {
        assert_paths_agree("decision", record);
    }
    // Pinned shapes: a struct variant, a unit-variant field, and a
    // non-finite float written as null.
    assert_eq!(
        serde_json::to_string(&records[3]).unwrap(),
        r#"{"Decline":{"job":9,"reason":"Unexplained"}}"#
    );
    assert_eq!(
        serde_json::to_string(&records[9]).unwrap(),
        r#"{"Pause":{"job":9,"seconds":null,"cause":"Recovery"}}"#
    );
}

#[test]
fn gateway_snapshots_serialize_identically_both_ways() {
    let config = GatewayConfig::default();
    let mut gateway = Gateway::new(config);
    for id in 0..6u64 {
        gateway.submit(&JobSubmission {
            id,
            model: DnnModel::Bert,
            global_batch: 128,
            iterations: 4_000.0 * (id + 1) as f64,
            arrival_seconds: 60.0 * id as f64,
            deadline_seconds: (id % 3 != 2).then_some(3_600.0 + 600.0 * id as f64),
        });
    }
    let (origin_slot, jobs) = gateway.snapshot_jobs();
    assert!(!jobs.is_empty());
    let snapshot = GatewaySnapshot {
        version: PERSIST_VERSION,
        wal_records: 6,
        journal_entries: 6,
        config,
        origin_slot,
        stats: gateway.stats(),
        jobs,
    };
    assert_paths_agree("gateway snapshot", &snapshot);
}

#[test]
fn parsed_fixture_renders_back_byte_for_byte() {
    let fixture = include_str!("../crates/bench/tests/fixtures/experiments-all-2023.json");
    let mut rendered = String::new();
    for line in fixture.lines() {
        let value: serde_json::Value = serde_json::from_str(line).expect("fixture parses");
        rendered.push_str(&assert_paths_agree("fixture line", &value));
        rendered.push('\n');
    }
    assert_eq!(rendered, fixture);
}
