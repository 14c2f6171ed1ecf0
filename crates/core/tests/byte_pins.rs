//! Byte-stability pins for values whose serialized form other layers
//! store or hash: a built scaling curve and a job's runtime record. Each
//! digest is FNV-1a-64 of the exact bytes, so any change to field order,
//! number formatting or representation fails here before it reaches a
//! snapshot or journal.

use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_sched::JobRuntime;
use elasticflow_sim::fnv1a64;
use elasticflow_trace::{JobId, JobSpec};

fn curve() -> ScalingCurve {
    ScalingCurve::build(DnnModel::Gpt2, 128, &Interconnect::paper_testbed())
}

fn runtime() -> JobRuntime {
    let spec = JobSpec::builder(JobId::new(7), DnnModel::Gpt2, 128)
        .iterations(12_345.5)
        .submit_time(30.0)
        .deadline(7_200.0)
        .trace_shape(4, 3_600.0)
        .build();
    let mut rt = JobRuntime::new(spec, curve());
    rt.remaining_iterations = 10_000.25;
    rt.current_gpus = 4;
    rt.paused_until = 45.5;
    rt.gpu_seconds = 812.0;
    rt.admitted = true;
    rt.first_start = Some(31.0);
    rt
}

#[test]
fn scaling_curve_json_matches_the_pinned_digest() {
    let json = serde_json::to_string(&curve()).expect("curve serializes");
    assert_eq!(fnv1a64(json.as_bytes()), 0xfd90_0139_b683_c3aa, "{json}");
}

#[test]
fn job_runtime_json_matches_the_pinned_digest() {
    let json = serde_json::to_string(&runtime()).expect("runtime serializes");
    assert_eq!(fnv1a64(json.as_bytes()), 0x7d8d_7f7e_ed77_0d23, "{json}");
}
