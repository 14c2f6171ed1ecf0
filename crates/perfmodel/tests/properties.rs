//! Property-based tests for the performance model.

#![expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]

use elasticflow_cluster::PlacementShape;
use elasticflow_perfmodel::{
    iteration_time, DnnModel, Interconnect, OverheadModel, ScalingCurve, ScalingEvent,
};
use proptest::prelude::*;

fn any_model() -> impl Strategy<Value = DnnModel> {
    prop::sample::select(DnnModel::ALL.to_vec())
}

fn any_batch() -> impl Strategy<Value = u32> {
    (5u32..9).prop_map(|e| 1 << e) // 32..256
}

proptest! {
    /// Every generated curve is positive, concave up to the knee, and
    /// monotone non-decreasing before it.
    #[test]
    fn curves_are_well_formed(model in any_model(), batch in any_batch()) {
        let curve = ScalingCurve::build(model, batch, &Interconnect::paper_testbed());
        prop_assert!(curve.is_concave());
        let knee = curve.knee();
        let mut last = 0.0;
        for g in curve.ladder() {
            let t = curve.iters_per_sec(g).unwrap();
            prop_assert!(t.is_finite() && t > 0.0);
            if g <= knee {
                prop_assert!(t + 1e-12 >= last);
                last = t;
            }
        }
    }

    /// Resource usage (GPU-time for fixed work) is minimized at one GPU —
    /// the diminishing-returns property §4.1 builds on.
    #[test]
    fn one_gpu_minimizes_gpu_time(model in any_model(), batch in any_batch(), work in 1.0f64..1e6) {
        let curve = ScalingCurve::build(model, batch, &Interconnect::paper_testbed());
        let base = curve.gpu_time(1, work).unwrap();
        for g in curve.ladder() {
            if let Some(usage) = curve.gpu_time(g, work) {
                prop_assert!(usage + 1e-9 >= base);
            }
        }
    }

    /// Consolidation dominates: for a fixed worker count, fewer servers is
    /// never slower.
    #[test]
    fn consolidation_is_never_slower(model in any_model(), batch in any_batch()) {
        let net = Interconnect::paper_testbed();
        let profile = model.profile();
        for workers in [2u32, 4, 8] {
            if workers > batch {
                continue;
            }
            let mut last_time = f64::INFINITY;
            // Walk from most-spread to most-consolidated.
            let mut servers = workers;
            while servers >= 1 {
                let shape = PlacementShape::new(servers, workers / servers);
                let t = iteration_time(&profile, batch, shape, &net).total;
                prop_assert!(t <= last_time + 1e-12, "{shape} slower than more spread");
                last_time = t;
                servers /= 2;
            }
        }
    }

    /// Iteration time decomposition is consistent: total = compute +
    /// exposed communication, all non-negative.
    #[test]
    fn iteration_breakdown_is_consistent(
        model in any_model(),
        batch in any_batch(),
        workers_exp in 0u32..4,
    ) {
        let workers = 1u32 << workers_exp;
        prop_assume!(workers <= batch);
        let b = iteration_time(
            &model.profile(),
            batch,
            PlacementShape::consolidated(workers, 8),
            &Interconnect::paper_testbed(),
        );
        prop_assert!(b.compute > 0.0);
        prop_assert!(b.exposed_comm >= 0.0);
        prop_assert!((b.total - (b.compute + b.exposed_comm)).abs() < 1e-12);
    }

    /// Scaling pauses are non-negative, zero only for no-ops, and grow
    /// with model size.
    #[test]
    fn overheads_behave(model in any_model(), from_exp in 0u32..4, to_exp in 0u32..4) {
        let m = OverheadModel::paper_calibrated();
        let event = ScalingEvent::scale(1 << from_exp, 1 << to_exp);
        let pause = m.pause_seconds(&model.profile(), event);
        if event.is_real_change() {
            prop_assert!(pause > 0.0);
        } else {
            prop_assert_eq!(pause, 0.0);
        }
        prop_assert!(pause < 120.0, "pause {pause} implausibly large");
    }
}
