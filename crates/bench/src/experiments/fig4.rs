//! Fig. 4: the admission-control walkthrough (paper §4.1).

use elasticflow_core::{
    mss, progressive_filling, AllocationProfile, FillScratch, PlanningJob, ReservationLedger,
    SlotGrid,
};
use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
use elasticflow_trace::JobId;

use crate::Table;

fn fig4_curve() -> ScalingCurve {
    ScalingCurve::from_points(
        DnnModel::ResNet50,
        64,
        vec![
            CurvePoint {
                gpus: 1,
                iters_per_sec: 1.0,
            },
            CurvePoint {
                gpus: 2,
                iters_per_sec: 1.5,
            },
            CurvePoint {
                gpus: 4,
                iters_per_sec: 2.0,
            },
        ],
    )
}

/// Walks through the paper's Fig. 4: job C (curve 1/1.5/2, M=3, D=2) on a
/// 4-GPU cluster, first idle, then with jobs A and B holding 3 GPUs in the
/// first slot.
pub fn run() -> Vec<Table> {
    let curve = fig4_curve();
    let grid = SlotGrid::uniform(1.0);

    let mut usage = Table::new(
        "Fig 4(a): resource usage of the example job (1 unit of work)",
        &["GPUs", "Throughput", "Run time", "GPU time"],
    );
    for g in [1u32, 2, 4] {
        let t = curve.iters_per_sec(g).expect("curve point");
        usage.row(vec![
            g.to_string(),
            format!("{t:.1}"),
            format!("{:.3}", 1.0 / t),
            format!(
                "{:.3}",
                curve.gpu_time(g, 1.0).expect("positive throughput")
            ),
        ]);
    }

    let job_c = PlanningJob {
        id: JobId::new(2),
        curve: curve.clone(),
        remaining_iterations: 3.0,
        deadline_slot: 2,
    };

    let mut walkthrough = Table::new(
        "Fig 4(b,c): minimum satisfactory share of job C (M=3, D=2, G=4)",
        &["Scenario", "Slot 0", "Slot 1", "GPU time", "Satisfied"],
    );
    // (b) Idle cluster.
    let empty = ReservationLedger::new();
    let idle = progressive_filling(&job_c, &empty, &grid, 4, None, &mut FillScratch::new());
    push_profile_row(&mut walkthrough, "idle cluster", idle.as_ref(), &grid);
    // (c) Jobs A and B hold 3 GPUs in slot 0.
    let mut ledger = ReservationLedger::new();
    ledger.commit(&AllocationProfile::new(vec![3]));
    let loaded = progressive_filling(&job_c, &ledger, &grid, 4, None, &mut FillScratch::new());
    push_profile_row(
        &mut walkthrough,
        "A+B hold 3 GPUs in slot 0",
        loaded.as_ref(),
        &grid,
    );

    let mut shares = Table::new(
        "Minimum satisfactory share vs deadline (idle cluster, M=1)",
        &["Deadline", "MSS"],
    );
    for window in [1.0, 2.0 / 3.0, 0.5, 0.4] {
        let share = mss::minimum_satisfactory_share(&curve, 1.0, window);
        shares.row(vec![
            format!("{window:.3}"),
            share
                .map(|s| s.to_string())
                .unwrap_or_else(|| "infeasible".into()),
        ]);
    }

    vec![usage, walkthrough, shares]
}

fn push_profile_row(
    table: &mut Table,
    scenario: &str,
    profile: Option<&AllocationProfile>,
    grid: &SlotGrid,
) {
    match profile {
        Some(p) => {
            table.row(vec![
                scenario.into(),
                p.gpus(0).to_string(),
                p.gpus(1).to_string(),
                format!("{:.1}", p.gpu_seconds(grid)),
                "yes".into(),
            ]);
        }
        None => {
            table.row(vec![
                scenario.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "NO".into(),
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_numbers() {
        let tables = run();
        let walkthrough = tables[1].to_json();
        // Idle cluster: 2 GPUs in both slots, 4 units of GPU time.
        assert_eq!(walkthrough["rows"][0][1], "2");
        assert_eq!(walkthrough["rows"][0][3], "4.0");
        // Loaded: 1 GPU then 4 GPUs, 5 units of GPU time.
        assert_eq!(walkthrough["rows"][1][1], "1");
        assert_eq!(walkthrough["rows"][1][2], "4");
        assert_eq!(walkthrough["rows"][1][3], "5.0");
        // MSS table: deadline 1.0 -> 1 GPU, 2/3 -> 2 GPUs.
        let shares = tables[2].to_json();
        assert_eq!(shares["rows"][0][1], "1");
        assert_eq!(shares["rows"][1][1], "2");
    }
}
