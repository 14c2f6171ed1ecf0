//! ElasticFlow-RS: an elastic serverless training platform for distributed
//! deep learning — a Rust reproduction of the ASPLOS'23 paper.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`cluster`] — buddy allocation of aligned GPU blocks (paper §4.3);
//! * [`perfmodel`] — scaling curves, profiler, overhead models (§3.2, §5);
//! * [`trace`] — job specs and synthetic production traces (§6.1);
//! * [`sched`] — the scheduler interface and the six baselines (§6.1);
//! * [`sim`] — the discrete-event cluster simulator (§6.1);
//! * [`core`] — minimum satisfactory share, admission control
//!   (Algorithm 1), elastic allocation (Algorithm 2), ElasticFlow itself;
//! * [`telemetry`] — metrics registry, lifecycle span tracing, and
//!   Prometheus / Perfetto exporters on the observer seam;
//! * [`persist`] — checksummed record logs, checkpoint snapshots, and
//!   bit-identical crash recovery;
//! * [`serve`] — the serverless front-end (§3.1): a gateway that answers
//!   each submission at once with an admit/decline decision, run as a
//!   crash-consistent daemon.
//!
//! # Quickstart
//!
//! ```
//! use elasticflow::cluster::ClusterSpec;
//! use elasticflow::core::ElasticFlowScheduler;
//! use elasticflow::perfmodel::Interconnect;
//! use elasticflow::sim::{SimConfig, Simulation};
//! use elasticflow::trace::TraceConfig;
//!
//! let spec = ClusterSpec::small_testbed();
//! let trace = TraceConfig::testbed_small(1).generate(&Interconnect::from_spec(&spec));
//! let report = Simulation::new(spec, SimConfig::default())
//!     .run(&trace, &mut ElasticFlowScheduler::new());
//! println!(
//!     "deadline satisfactory ratio: {:.2}",
//!     report.deadline_satisfactory_ratio()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use elasticflow_cluster as cluster;
pub use elasticflow_core as core;
pub use elasticflow_perfmodel as perfmodel;
pub use elasticflow_persist as persist;
pub use elasticflow_sched as sched;
pub use elasticflow_serve as serve;
pub use elasticflow_sim as sim;
pub use elasticflow_telemetry as telemetry;
pub use elasticflow_trace as trace;
