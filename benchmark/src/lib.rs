//! The repository's benchmark of record: four workloads, four gated
//! end-to-end metrics, a traced per-layer budget. See `README.md` beside
//! this crate for the protocol and the catalogue, `src/main.rs` for the
//! command line.
//!
//! Every layer is measured from outside, through its public API: this crate
//! changes nothing under `crates/`.

pub mod agents;
pub mod hostctl;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod quantiles;
pub mod report;
pub mod spans;
pub mod workloads;

#[global_allocator]
static GLOBAL: hostctl::CountingAlloc = hostctl::CountingAlloc;
