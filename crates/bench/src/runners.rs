//! Scheduler roster and simulation runners shared by all experiments.

use elasticflow_cluster::ClusterSpec;
use elasticflow_core::{EdfWithAdmission, EdfWithElastic, ElasticFlowScheduler};
use elasticflow_sched::{
    ChronusScheduler, EdfScheduler, GandivaScheduler, PolluxScheduler, Scheduler, ThemisScheduler,
    TiresiasScheduler,
};
use elasticflow_sim::{SimConfig, SimReport};
use elasticflow_trace::Trace;

/// One scheduler in the evaluation roster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RosterEntry {
    /// Canonical name used on the command line and in reports.
    pub name: &'static str,
    /// Display label matching the paper's figures.
    pub label: &'static str,
}

/// The full roster in the paper's presentation order: six baselines, the
/// two Fig. 9 ablation variants, and ElasticFlow.
pub const ROSTER: [RosterEntry; 9] = [
    RosterEntry {
        name: "edf",
        label: "EDF",
    },
    RosterEntry {
        name: "gandiva",
        label: "Gandiva",
    },
    RosterEntry {
        name: "tiresias",
        label: "Tiresias",
    },
    RosterEntry {
        name: "themis",
        label: "Themis",
    },
    RosterEntry {
        name: "chronus",
        label: "Chronus",
    },
    RosterEntry {
        name: "pollux",
        label: "Pollux",
    },
    RosterEntry {
        name: "edf+ac",
        label: "EDF+AdmissionCtrl",
    },
    RosterEntry {
        name: "edf+es",
        label: "EDF+ElasticScaling",
    },
    RosterEntry {
        name: "elasticflow",
        label: "ElasticFlow",
    },
];

/// Instantiates a scheduler by roster name.
///
/// # Panics
///
/// Panics on an unknown name (roster names are compile-time constants).
pub fn scheduler_by_name(name: &str) -> Box<dyn Scheduler> {
    match name {
        "edf" => Box::new(EdfScheduler::new()),
        "gandiva" => Box::new(GandivaScheduler::new()),
        "tiresias" => Box::new(TiresiasScheduler::new()),
        "themis" => Box::new(ThemisScheduler::new()),
        "chronus" => Box::new(ChronusScheduler::new()),
        "pollux" => Box::new(PolluxScheduler::new()),
        "edf+ac" => Box::new(EdfWithAdmission::new()),
        "edf+es" => Box::new(EdfWithElastic::new()),
        "elasticflow" => Box::new(ElasticFlowScheduler::new()),
        other => panic!("unknown scheduler: {other}"),
    }
}

/// Runs one (scheduler, trace, cluster) combination under the default
/// simulator config, instrumented as the installed
/// [`crate::instrument::RunSettings`] ask. Instrumentation never changes
/// the report.
pub fn run_one(name: &str, spec: &ClusterSpec, trace: &Trace) -> SimReport {
    let settings = crate::instrument::installed();
    crate::instrument::run(name, spec, &SimConfig::default(), trace, settings)
}

/// The six-baseline subset used in most end-to-end figures.
pub fn baseline_names() -> Vec<&'static str> {
    vec!["edf", "gandiva", "tiresias", "themis", "chronus", "pollux"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use elasticflow_perfmodel::Interconnect;
    use elasticflow_trace::TraceConfig;

    #[test]
    fn every_roster_entry_instantiates() {
        for entry in ROSTER {
            let s = scheduler_by_name(entry.name);
            assert_eq!(s.name(), entry.name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn unknown_name_panics() {
        let _ = scheduler_by_name("slurm");
    }

    #[test]
    fn run_one_produces_full_outcomes() {
        let spec = ClusterSpec::small_testbed();
        let trace = TraceConfig::testbed_small(3).generate(&Interconnect::from_spec(&spec));
        let report = run_one("edf", &spec, &trace);
        assert_eq!(report.outcomes().len(), trace.jobs().len());
    }
}
