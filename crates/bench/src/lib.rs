//! # zoom-bench — the paper's experiment harness
//!
//! One binary (`src/main.rs`) runs any table or figure of the paper by
//! name; the experiments themselves live here. `EXPERIMENTS.md` at the
//! repository root maps each experiment to its paper counterpart and
//! records measured-vs-paper shapes.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod harness;
pub mod tables;
