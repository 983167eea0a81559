//! # jubench-apps-earth
//!
//! Proxies for the Earth-system benchmarks:
//!
//! - **ICON** (§IV-A1b): the ICOsahedral Non-hydrostatic modelling
//!   framework. The proxy's dynamical core is a rotating shallow-water
//!   system on a periodic structured grid (the substitution for the
//!   icosahedral non-hydrostatic core: the same stencil + halo-exchange
//!   structure per level over ~90 vertical levels). The two
//!   sub-benchmarks R02B09 (5 km, 120 nodes, **1.8 TB input**) and R02B10
//!   (2.5 km, 300 nodes, **4.5 TB input**) make ICON "also [test] the
//!   performance of I/O operations on a system"; the input-staging phase
//!   reads real bytes through the storage model.
//! - **ParFlow** (§IV, prepared but not used): "a parallel multigrid
//!   preconditioned conjugate gradient algorithm for groundwater flow" —
//!   implemented as a V-cycle-preconditioned CG on the ClayL-sized
//!   (1008 × 1008 × 240) variably-saturated flow problem.

#![forbid(unsafe_code)]

pub mod icon;
pub(crate) mod parflow;
pub(crate) mod shallow_water;

pub use icon::{Icon, IconResolution};
pub use parflow::ParFlow;
pub use shallow_water::ShallowWater;
