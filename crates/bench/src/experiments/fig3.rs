//! Fig. 3: why EDF fails under non-linear scaling (the paper's motivating
//! example, replayed exactly).

use elasticflow_core::{AdmissionSet, PlanningJob, SlotGrid};
use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
use elasticflow_trace::JobId;

use crate::Table;

fn fig3_curve() -> ScalingCurve {
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
        ],
    )
}

/// Replays the worked example: jobs A and B, 3 units of work each,
/// deadlines 3 and 3.5, two workers total, curve T(1)=1 / T(2)=1.5.
pub fn run() -> Vec<Table> {
    let curve = fig3_curve();
    let mut table = Table::new(
        "Fig 3: EDF vs per-job workers (A: M=3 D=3, B: M=3 D=3.5, 2 GPUs)",
        &[
            "Strategy",
            "A finishes",
            "B finishes",
            "A meets D=3",
            "B meets D=3.5",
        ],
    );

    // (b) EDF: run A on both workers, then B on both workers.
    let t2 = curve.iters_per_sec(2).expect("curve point");
    let a_finish_edf = 3.0 / t2; // 2.0
    let b_finish_edf = a_finish_edf + 3.0 / t2; // 4.0
    table.row(vec![
        "EDF (all workers to earliest deadline)".into(),
        format!("{a_finish_edf:.2}"),
        format!("{b_finish_edf:.2}"),
        yesno(a_finish_edf <= 3.0),
        yesno(b_finish_edf <= 3.5),
    ]);

    // (c) One worker each.
    let t1 = curve.iters_per_sec(1).expect("curve point");
    let each = 3.0 / t1; // 3.0
    table.row(vec![
        "One worker per job".into(),
        format!("{each:.2}"),
        format!("{each:.2}"),
        yesno(each <= 3.0),
        yesno(each <= 3.5),
    ]);

    // And ElasticFlow's admission control discovers the feasible plan.
    let grid = SlotGrid::uniform(1.0);
    let jobs = [
        PlanningJob {
            id: JobId::new(0),
            curve: curve.clone(),
            remaining_iterations: 3.0,
            deadline_slot: 3,
        },
        PlanningJob {
            id: JobId::new(1),
            curve,
            remaining_iterations: 3.0,
            deadline_slot: 3, // 3.5 floors to 3 complete slots
        },
    ];
    let admitted = AdmissionSet::check(2, &jobs, &grid).is_ok();
    let mut verdict = Table::new(
        "Fig 3 (cont.): ElasticFlow admission on the same instance",
        &["Check", "Result"],
    );
    verdict.row(vec![
        "progressive filling finds the 1+1 plan".into(),
        yesno(admitted),
    ]);
    vec![table, verdict]
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_outcome() {
        let tables = run();
        let rows = tables[0].to_json();
        // EDF: A meets, B misses.
        assert_eq!(rows["rows"][0][3], "yes");
        assert_eq!(rows["rows"][0][4], "NO");
        // One worker each: both meet.
        assert_eq!(rows["rows"][1][3], "yes");
        assert_eq!(rows["rows"][1][4], "yes");
        // ElasticFlow admits.
        assert_eq!(tables[1].to_json()["rows"][0][1], "yes");
    }
}
