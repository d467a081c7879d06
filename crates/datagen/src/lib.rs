//! Synthetic scientific dataset generators.
//!
//! The paper evaluates on seven SDRBench datasets (Table III) that total
//! ~17 GB and are not redistributable here. This crate builds
//! deterministic synthetic analogs that land in the same
//! compressibility regimes — smooth climate fields, near-constant aerosol
//! fields, fractal land masks, log-normal cosmology densities, mostly
//! quiet seismic snapshots, particle streams — so every experiment
//! exercises the same code paths with the same qualitative outcome.
//! See DESIGN.md §2 for the substitution table.

mod fields;
pub mod noise;

pub use fields::{dataset_fields, generate, DatasetKind, Field, FieldClass, FieldSpec, Scale};
