//! Shared helpers for the HyperPower experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one of the paper's tables or
//! figures (see DESIGN.md §4 for the index); this library holds the small
//! amount of code they share — ASCII scatter plotting and the worker count
//! for running independent experiment cells on the executor's thread pool.

pub mod parallel;
pub mod plot;
