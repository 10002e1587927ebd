//! End-to-end and per-layer benchmark of mpi-vector-io.
//!
//! One command runs one workload (`ingest`, `join` or `serve`) against
//! the public API in one process, checks every answer against an
//! oracle, and prints every metric by name with its unit. Metric names
//! carry their clock: `host_*` is wall time on this machine, `virt_*`
//! the virtual time of the cost model (`Comm::now()`, max over ranks).
//! See `README.md` in this directory.

pub mod env;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod trace;
pub mod workloads;
