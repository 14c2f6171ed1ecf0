//! Quickstart: submit a few serverless training jobs, get each answer at
//! once, and let ElasticFlow run the admitted ones to their deadlines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use elasticflow::cluster::ClusterSpec;
use elasticflow::core::ElasticFlowScheduler;
use elasticflow::perfmodel::{DnnModel, Interconnect};
use elasticflow::sched::DecisionRecord;
use elasticflow::serve::{Gateway, GatewayConfig, JobSubmission};
use elasticflow::sim::{SimConfig, Simulation};
use elasticflow::trace::Trace;

fn main() {
    // A 4-server x 8-GPU cluster, like the paper's small testbed.
    let spec = ClusterSpec::small_testbed();
    let mut gateway = Gateway::new(GatewayConfig {
        servers: spec.servers,
        gpus_per_server: spec.gpus_per_server,
        ..GatewayConfig::default()
    });
    println!("cluster capacity: {} GPUs\n", spec.total_gpus());

    // The serverless interface (paper §3.1): model + hyper-parameters +
    // termination condition + deadline. No GPU counts anywhere.
    let hour = 3_600.0;
    let submissions = [
        (
            "resnet50 nightly",
            DnnModel::ResNet50,
            256,
            40_000.0,
            Some(6.0 * hour),
        ),
        (
            "bert finetune",
            DnnModel::Bert,
            128,
            12_000.0,
            Some(4.0 * hour),
        ),
        (
            "gpt2 ablation (best effort)",
            DnnModel::Gpt2,
            128,
            8_000.0,
            None,
        ),
        (
            "vgg16 with a hopeless deadline",
            DnnModel::Vgg16,
            256,
            500_000.0,
            Some(600.0),
        ),
    ];

    // The gateway answers each submission at once (§4.2): a guaranteed
    // deadline, or a decline that names the capacity it lacks.
    let net = Interconnect::from_spec(&spec);
    let mut admitted = Vec::new();
    for (id, (name, model, global_batch, iterations, deadline_seconds)) in
        submissions.into_iter().enumerate()
    {
        let job = JobSubmission {
            id: id as u64,
            model,
            global_batch,
            iterations,
            arrival_seconds: 0.0,
            deadline_seconds,
        };
        match gateway.submit(&job) {
            DecisionRecord::Decline { reason, .. } => {
                let shortfall = reason.shortfall().expect("a decline names its shortfall");
                println!(
                    "submitted {name:<32} -> job{id} DECLINED: needs {:.0} GPU-slots, {:.0} free in its {}-slot window",
                    shortfall.demand_gpu_slots, shortfall.free_gpu_slots, shortfall.window_slots,
                );
                assert_eq!(model, DnnModel::Vgg16, "only the hopeless job is declined");
            }
            DecisionRecord::Admit { .. }
            | DecisionRecord::Resize { .. }
            | DecisionRecord::Preempt { .. }
            | DecisionRecord::Migrate { .. }
            | DecisionRecord::Pause { .. } => {
                println!("submitted {name:<32} -> job{id} admitted");
                admitted.push(job.job_spec(&net));
            }
        }
    }
    assert_eq!(admitted.len(), 3, "the hopeless VGG16 job is declined");

    // Run the admitted jobs: elastic scaling + placement under ElasticFlow.
    let trace = Trace::new("quickstart", admitted);
    let report =
        Simulation::new(spec, SimConfig::default()).run(&trace, &mut ElasticFlowScheduler::new());
    println!();
    for o in report.outcomes() {
        let finish = o.finish_time.expect("admitted jobs run to completion");
        let deadline = if o.deadline.is_finite() {
            assert!(o.met_deadline(), "{} missed its guaranteed deadline", o.id);
            format!("{:.1} h (met)", o.deadline / 3_600.0)
        } else {
            "none (best-effort)".into()
        };
        println!(
            "{}: finished at {:.1} h, deadline {}, {:.1} GPU-h, {} scale events",
            o.id,
            finish / 3_600.0,
            deadline,
            o.gpu_seconds / 3_600.0,
            o.scale_events,
        );
    }
    println!(
        "\ndeadline satisfactory ratio of the admitted jobs: {:.0}%",
        100.0 * report.deadline_satisfactory_ratio()
    );
}
