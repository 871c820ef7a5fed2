//! `holobench`: the repo's benchmark. Five named workloads, end-to-end
//! metrics from untraced rounds, per-layer metrics from a counted and a
//! traced pass that time each layer's public functions from outside. See
//! `benchmark/README.md` for the glossary and how to read the output.
//!
//! It links the library crates and touches none of their code.

pub mod alloc;
pub mod calib;
pub mod json;
pub mod metrics;
pub mod run;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Installed here, not in `main.rs`, so the binary and every test target
/// of this package count with the same allocator. Off until
/// [`alloc::start`]; a timed repair pays one relaxed load per call.
#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
