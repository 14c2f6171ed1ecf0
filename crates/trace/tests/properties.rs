//! Property-based tests for trace generation.

use elasticflow_perfmodel::{Interconnect, ScalingCurve};
use elasticflow_trace::{ArrivalPattern, JobKind, TraceConfig};
use proptest::prelude::*;

fn any_arrival() -> impl Strategy<Value = ArrivalPattern> {
    prop_oneof![
        (60.0f64..1_000.0)
            .prop_map(|mean_interarrival| ArrivalPattern::Poisson { mean_interarrival }),
        (60.0f64..1_000.0, 5usize..50, 2usize..15).prop_map(
            |(mean_interarrival, burst_every, burst_size)| ArrivalPattern::Bursty {
                mean_interarrival,
                burst_every,
                burst_size,
            }
        ),
        (60.0f64..1_000.0, 0.0f64..0.9).prop_map(|(mean_interarrival, amplitude)| {
            ArrivalPattern::Diurnal {
                mean_interarrival,
                amplitude,
                period: 86_400.0,
            }
        }),
    ]
}

fn any_config() -> impl Strategy<Value = TraceConfig> {
    (
        any_arrival(),
        1usize..120,
        600.0f64..20_000.0,
        0.2f64..1.8,
        0.0f64..0.4,
        0.0f64..0.4,
        any::<u64>(),
    )
        .prop_map(
            |(arrival, num_jobs, duration_median, duration_sigma, be, soft, seed)| {
                let mut cfg = TraceConfig::testbed_small(seed);
                cfg.arrival = arrival;
                cfg.num_jobs = num_jobs;
                cfg.duration_median = duration_median;
                cfg.duration_sigma = duration_sigma;
                cfg.best_effort_fraction = be;
                cfg.soft_deadline_fraction = soft;
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated trace satisfies the structural invariants the
    /// simulator depends on.
    #[test]
    fn generated_traces_are_well_formed(cfg in any_config()) {
        let net = Interconnect::paper_testbed();
        let trace = cfg.generate(&net);
        prop_assert_eq!(trace.jobs().len(), cfg.num_jobs);
        let mut last_submit = 0.0f64;
        for job in trace.jobs() {
            prop_assert!(job.submit_time >= last_submit);
            last_submit = job.submit_time;
            prop_assert!(job.iterations >= 1.0 && job.iterations.is_finite());
            prop_assert!(job.trace_gpus.is_power_of_two());
            prop_assert!(job.global_batch.is_power_of_two());
            match job.kind {
                JobKind::BestEffort => prop_assert!(job.deadline.is_infinite()),
                JobKind::Slo | JobKind::SoftDeadline => {
                    prop_assert!(job.deadline.is_finite());
                    let lambda = job.lambda().expect("finite duration");
                    prop_assert!(
                        (cfg.lambda_range.0 - 1e-9..cfg.lambda_range.1 + 1e-9)
                            .contains(&lambda)
                    );
                }
            }
            // Iterations must match duration x throughput at the trace
            // shape (the paper's §6.1 recipe).
            let curve = ScalingCurve::build(job.model, job.global_batch, &net);
            let tput = curve.iters_per_sec(job.trace_gpus).expect("in domain");
            let expected = (job.trace_duration * tput).max(1.0);
            prop_assert!((job.iterations - expected).abs() / expected < 1e-9);
        }
    }

    /// Generation is a pure function of the config.
    #[test]
    fn generation_is_deterministic(cfg in any_config()) {
        let net = Interconnect::paper_testbed();
        let a = cfg.generate(&net);
        let b = cfg.generate(&net);
        prop_assert_eq!(a.jobs(), b.jobs());
    }
}
