//! # jubench-apps-neuro
//!
//! Proxy for **Arbor**, the library for simulating biophysically-realistic
//! neural networks (§IV-A2a). The proxy implements the two cost centers the
//! paper profiles — Hodgkin-Huxley-style **ion channel** updates ("52 %")
//! and the **cable equation** solved per cell as a tridiagonal system
//! ("33 %") — on multi-compartment cells organized into *rings propagating
//! a single spike*, with rings interconnected to load the network without
//! altering dynamics. Spike exchange runs concurrently with time evolution
//! ("hiding communication completely"), and "the number of generated
//! spikes is used for validation" — exactly reproducible here.

#![forbid(unsafe_code)]

pub mod bench;
pub mod cell;
pub mod network;

pub use bench::Arbor;
