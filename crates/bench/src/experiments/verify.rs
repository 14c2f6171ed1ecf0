//! `verify-shapes` — one-shot check that the reproduction preserves the
//! paper's qualitative claims. Each row is a claim from the paper's
//! evaluation; FAIL in any row means the reproduction has drifted.

use elasticflow_cluster::{ClusterSpec, PlacementShape};
use elasticflow_perfmodel::{iteration_time, DnnModel, Interconnect, ScalingCurve};
use elasticflow_trace::TraceConfig;

use crate::{run_one, Table};

struct Claim {
    text: &'static str,
    pass: bool,
    detail: String,
}

/// Runs every shape check and reports PASS/FAIL per claim.
pub fn run(seed: u64) -> Vec<Table> {
    check(seed).0
}

/// Runs every shape check: the PASS/FAIL table, and whether every claim
/// held.
pub fn check(seed: u64) -> (Vec<Table>, bool) {
    let net = Interconnect::paper_testbed();
    let mut claims: Vec<Claim> = Vec::new();

    // §3.2 calibration targets.
    let vgg1 = iteration_time(
        &DnnModel::Vgg16.profile(),
        256,
        PlacementShape::single_server(1),
        &net,
    )
    .total;
    let vgg8 = iteration_time(
        &DnnModel::Vgg16.profile(),
        256,
        PlacementShape::single_server(8),
        &net,
    )
    .total;
    let eff = vgg1 / (8.0 * vgg8);
    claims.push(Claim {
        text: "Fig 2a: VGG16 @8 GPUs ~76% of linear",
        pass: (0.70..=0.84).contains(&eff),
        detail: format!("{:.1}%", 100.0 * eff),
    });
    let rn_same = iteration_time(
        &DnnModel::ResNet50.profile(),
        256,
        PlacementShape::new(1, 8),
        &net,
    )
    .total;
    let rn_spread = iteration_time(
        &DnnModel::ResNet50.profile(),
        256,
        PlacementShape::new(8, 1),
        &net,
    )
    .total;
    let ratio = rn_spread / rn_same;
    claims.push(Claim {
        text: "Fig 2b: ResNet50 same-server ~2.17x of 8-way spread",
        pass: (1.9..=2.6).contains(&ratio),
        detail: format!("{ratio:.2}x"),
    });
    let concave = elasticflow_perfmodel::PAPER_TABLE1.iter().all(|&(m, bs)| {
        bs.iter()
            .all(|&b| ScalingCurve::build(m, b, &net).is_concave())
    });
    claims.push(Claim {
        text: "Fig 2a: every scaling curve is concave",
        pass: concave,
        detail: String::new(),
    });

    // §6.2 headline: ElasticFlow tops every baseline at 128 GPUs.
    let spec = ClusterSpec::paper_testbed();
    let trace = TraceConfig::testbed_large(seed).generate(&Interconnect::from_spec(&spec));
    let ef = run_one("elasticflow", &spec, &trace).deadline_satisfactory_ratio();
    let mut worst_gain = f64::INFINITY;
    let mut best_gain = 0.0f64;
    let mut tops_all = true;
    for name in ["edf", "gandiva", "tiresias", "themis", "chronus", "pollux"] {
        let dsr = run_one(name, &spec, &trace).deadline_satisfactory_ratio();
        if dsr > ef + 1e-9 {
            tops_all = false;
        }
        if dsr > 0.0 {
            worst_gain = worst_gain.min(ef / dsr);
            best_gain = best_gain.max(ef / dsr);
        }
    }
    claims.push(Claim {
        text: "Fig 6b/8a: ElasticFlow >= all six baselines (128 GPUs, 195 jobs)",
        pass: tops_all,
        detail: format!(
            "EF {:.1}%, gains {worst_gain:.2}x-{best_gain:.1}x",
            100.0 * ef
        ),
    });
    claims.push(Claim {
        text: "Fig 6b: improvement factors bracket the paper's 1.46-7.65x band",
        pass: worst_gain <= 1.46 + 0.5 && best_gain >= 7.65 - 3.0,
        detail: format!("{worst_gain:.2}x .. {best_gain:.1}x"),
    });

    // §6.4 ablation at a contended size.
    let spec8 = ClusterSpec::with_servers(8, 8);
    let trace8 = TraceConfig::testbed_large(seed).generate(&Interconnect::from_spec(&spec8));
    let edf = run_one("edf", &spec8, &trace8).deadline_satisfactory_ratio();
    let ac = run_one("edf+ac", &spec8, &trace8).deadline_satisfactory_ratio();
    let ef8 = run_one("elasticflow", &spec8, &trace8).deadline_satisfactory_ratio();
    claims.push(Claim {
        text: "Fig 9: EDF <= EDF+AC <= ElasticFlow on a contended 64-GPU cluster",
        pass: edf <= ac + 1e-9 && ac <= ef8 + 1e-9 && ef8 > edf + 0.1,
        detail: format!(
            "{:.1}% <= {:.1}% <= {:.1}%",
            100.0 * edf,
            100.0 * ac,
            100.0 * ef8
        ),
    });

    // Guarantee quality: admitted jobs miss at most a sliver.
    let report = run_one("elasticflow", &spec, &trace);
    let admitted = report.outcomes().iter().filter(|o| !o.dropped).count();
    let admitted_met = report
        .outcomes()
        .iter()
        .filter(|o| !o.dropped && o.met_deadline())
        .count();
    claims.push(Claim {
        text: "§3.1 guarantee: >=93% of admitted jobs meet their deadlines",
        pass: admitted_met as f64 >= 0.93 * admitted as f64,
        detail: format!("{admitted_met}/{admitted}"),
    });

    let mut table = Table::new(
        "Shape verification against the paper's qualitative claims",
        &["Claim", "Measured", "Verdict"],
    );
    let mut all_pass = true;
    for c in &claims {
        all_pass &= c.pass;
        table.row(vec![
            c.text.to_string(),
            c.detail.clone(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    table.row(vec![
        "ALL".into(),
        String::new(),
        if all_pass {
            "PASS".into()
        } else {
            "FAIL".into()
        },
    ]);
    (vec![table], all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shapes_pass_on_the_default_seed() {
        let tables = run(2023);
        let json = tables[0].to_json();
        let rows = json["rows"].as_array().unwrap();
        let last = rows.last().unwrap();
        assert_eq!(last[2], "PASS", "{json}");
    }
}
