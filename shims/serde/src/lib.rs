//! Offline stand-in for [`serde`](https://serde.rs).
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal, std-only re-implementation of the serde
//! surface it actually uses.
//!
//! Serialization streams, as in real serde: `Serialize` feeds a
//! [`Serializer`] one scalar or compound (struct, sequence, map, enum
//! variant) at a time, under real serde's method names. The JSON writer
//! behind `serde_json` formats each call straight into its sink;
//! [`ser::ValueSerializer`] builds a concrete JSON-like [`Value`] tree
//! from the same calls. Floats render through one shortest-round-trip
//! writer, `__json::write_f64` (Ryu, byte-identical to `{:?}`), which
//! `elasticflow-serve`'s hand-written WAL, journal and response renderers
//! call too. Deserialization is tree-only: `Deserialize` lifts
//! a type out of a parsed [`Value`] rather than driving serde's visitor
//! architecture. The public trait signatures mirror the real crate closely
//! enough that the application code (including `#[serde(with = "...")]`
//! helper modules) is written exactly as it would be against real serde,
//! and the whole shim can be swapped for the genuine crates by flipping the
//! workspace dependency back to a registry version.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "serde's API implements `Serialize`/`Deserialize` for the std hash collections; \
              the impls serialize them in sorted order"
)]

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod ser;

#[doc(hidden)]
pub mod __json;
#[doc(hidden)]
pub mod __value;
mod ryu;

pub use crate::__value::Value;
pub use crate::de::{Deserialize, Deserializer};
pub use crate::ser::{Serialize, Serializer};
