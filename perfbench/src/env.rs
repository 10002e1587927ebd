//! The run's environment: the hermetic check and the fingerprint.

use crate::workloads::{Params, RANKS, WORKERS};

/// Prefix of the program's environment knobs.
pub const KNOB_PREFIX: &str = "MVIO_";

/// Names of the program's knobs set in this process's environment. The
/// benchmark measures default behaviour only, so any of them is an
/// error.
pub fn knobs_set() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(KNOB_PREFIX))
        .collect();
    set.sort();
    set
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming everything the numbers depend on besides the code.
pub fn fingerprint(p: &Params) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "fingerprint: commit={} rustc=\"{}\" nproc={} workload={} seed={} seconds={} trace={} \
         ranks={} workers={} scale=lakes:1/{},cemetery:1/{},roads:1/{} queries_per_rank={} \
         hotspot_inserts={} setup_repeats={}",
        commit(),
        env!("PERFBENCH_RUSTC"),
        nproc,
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace),
        RANKS,
        WORKERS,
        p.size.lakes,
        p.size.cemetery,
        p.size.roads,
        p.size.queries_per_rank,
        p.size.hotspot_inserts,
        p.size.setup_repeats,
    )
}
