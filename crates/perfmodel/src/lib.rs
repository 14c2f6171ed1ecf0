//! Analytic DNN training performance model for ElasticFlow.
//!
//! The ElasticFlow paper profiles every job's throughput on real A100
//! servers before scheduling it (§5, "Throughput profiling"), then feeds the
//! profiled tables to the scheduler and to a high-fidelity simulator (§6.1).
//! Without GPUs we replace the physical profiling run by an *analytic* model
//! of data-parallel training that reproduces the shapes the paper reports:
//!
//! * **Concave scaling curves** (Fig. 2a): per-iteration time is
//!   `compute(local batch) + (1 - overlap) * allreduce(model bytes, links)`,
//!   so doubling the workers halves compute but grows communication —
//!   diminishing returns, exactly the property ElasticFlow's algorithms
//!   exploit.
//! * **Topology-dependent placement** (Fig. 2b): the all-reduce is
//!   hierarchical — an intra-server phase at NVLink/PCIe speed plus an
//!   inter-server phase at network speed — so consolidated placements beat
//!   spread ones (ResNet50 1x8 vs 8x1 ≈ 2.2x, matching the paper's 2.17x).
//!
//! Calibration targets (checked by tests in the scaling module):
//!
//! | Paper observation | Model output |
//! |---|---|
//! | VGG16, batch 256, 8 GPUs ≈ 76 % of linear | ≈ 77 % |
//! | ResNet50 same-server / 8-way spread ≈ 2.17x | ≈ 2.2x |
//!
//! The crate also models the two system overheads of the paper's Fig. 12:
//! pre-run profiling cost ([`Profiler`]) and scaling/migration pauses
//! ([`OverheadModel`]).
//!
//! # Example
//!
//! ```
//! use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
//!
//! let curve = ScalingCurve::build(DnnModel::ResNet50, 256, &Interconnect::paper_testbed());
//! // Throughput grows with workers but sub-linearly.
//! let t1 = curve.iters_per_sec(1).unwrap();
//! let t8 = curve.iters_per_sec(8).unwrap();
//! assert!(t8 > t1 && t8 < 8.0 * t1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comm;
mod interconnect;
mod model;
mod overhead;
mod profiler;
mod scaling;

pub use comm::{compute_time, iteration_time, sync_time, IterationBreakdown};
pub use interconnect::Interconnect;
pub use model::{DnnModel, ModelProfile, Task, PAPER_TABLE1};
pub use overhead::{OverheadModel, ScalingEvent};
pub use profiler::{ProfileReport, Profiler};
pub use scaling::{CurvePoint, ScalingCurve};
