//! Table 1: the DNN model zoo.

use elasticflow_perfmodel::PAPER_TABLE1;

use crate::Table;

/// Regenerates Table 1, extended with the calibrated profile parameters
/// this reproduction uses.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "Table 1: DNN models used in the evaluation",
        &[
            "Task",
            "Dataset",
            "Model",
            "Batch sizes",
            "Params (M)",
            "1-GPU iter/s (gbs=min)",
        ],
    );
    for (model, batches) in PAPER_TABLE1 {
        let profile = model.profile();
        let net = elasticflow_perfmodel::Interconnect::paper_testbed();
        let min_batch = *batches.iter().min().expect("nonempty batch list");
        let curve = elasticflow_perfmodel::ScalingCurve::build(model, min_batch, &net);
        table.row(vec![
            profile.task.to_string(),
            model.dataset().to_string(),
            model.to_string(),
            batches
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            format!("{:.1}", profile.params as f64 / 1e6),
            format!("{:.2}", curve.rate(1)),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::DnnModel;

    #[test]
    fn covers_all_six_models() {
        let tables = run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), DnnModel::ALL.len());
    }
}
