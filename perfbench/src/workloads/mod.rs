//! The three workloads and what they share: world shape, default
//! options, dataset generation and the per-operation world runner.
//!
//! Every workload is a closed loop driven by one client thread (the
//! caller of [`World::run`]): the next operation starts only after the
//! previous one returned. The world has [`RANKS`] ranks, each with one
//! pipeline worker, so the program runs [`RANKS`] threads.

pub mod ingest;
pub mod join;
pub mod serve;

use crate::measure::{host_now, thread_cpu_ns};
use crate::trace::{Span, Tracer};
use mvio_core::decomp::DecompConfig;
use mvio_core::grid::GridSpec;
use mvio_core::pipeline::PipelineOptions;
use mvio_datagen::{catalog, table3};
use mvio_msim::{Comm, Topology, World, WorldConfig};
use mvio_pfs::{FsConfig, SimFs};
use std::collections::BTreeMap;
use std::sync::Arc;

/// World size of every workload.
pub const RANKS: usize = 4;

/// Pipeline workers per rank.
pub const WORKERS: usize = 1;

/// Grid resolution of every decomposition (the join's default grid).
pub const GRID_SIDE: u32 = 16;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lakes WKT: read, parse, partition, exchange, snapshot write.
    Ingest,
    /// Lakes ⋈ Cemetery over two snapshots.
    Join,
    /// Resident query engine: query batches plus moving-hotspot updates.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Join, Workload::Serve];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Join => "join",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::full`] is what the benchmark measures and the
/// only size the command runs; [`Size::tiny`] is for the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scale denominator of Lakes (Table 3 row 2).
    pub lakes: u64,
    /// Scale denominator of Cemetery (Table 3 row 1).
    pub cemetery: u64,
    /// Scale denominator of Roads (Table 3 row 3).
    pub roads: u64,
    /// Queries each rank submits per serve call.
    pub queries_per_rank: usize,
    /// Hotspot point inserts per update step (global).
    pub hotspot_inserts: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_repeats: usize,
}

impl Size {
    /// The measured configuration. The serve batch is a quarter of the
    /// 64 queries per rank whose calls take ~240 ms of host time at 4
    /// ranks: p90 needs a few hundred calls in one run, so a call
    /// (queries plus one update step of ~40 ms) gets ~120 ms. See
    /// `serve` for the hotspot.
    pub fn full() -> Size {
        Size {
            lakes: 100,
            cemetery: 100,
            roads: 1000,
            queries_per_rank: 16,
            hotspot_inserts: 1024,
            setup_repeats: 3,
        }
    }

    /// A configuration small enough for unit tests.
    pub fn tiny() -> Size {
        Size {
            lakes: 40_000,
            cemetery: 2_000,
            roads: 200_000,
            queries_per_rank: 4,
            hotspot_inserts: 16,
            setup_repeats: 1,
        }
    }
}

/// What one invocation asks for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds the timed phase runs for.
    pub seconds: f64,
    /// Record spans and emit per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Lower bound on timed operations, whatever `seconds` says.
    pub min_ops: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// End-to-end metric values.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (complete in traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact counters returned by the program; identical between a
    /// traced and an untraced run of the same seed and operation count.
    pub counters: BTreeMap<&'static str, u64>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Measured {
    /// Records one failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_default() += v;
    }
}

/// Runs the workload `p` names. Per-layer metrics of layers the
/// workload's timed phase does not reach read 0.
pub fn run(p: &Params) -> Measured {
    let (mut m, not_reached) = match p.workload {
        Workload::Ingest => (ingest::run(p), ingest::NOT_REACHED),
        Workload::Join => (join::run(p), join::NOT_REACHED),
        Workload::Serve => (serve::run(p), serve::NOT_REACHED),
    };
    for (name, v) in &m.counters {
        if let Some((registered, _)) = crate::report::PER_LAYER.iter().find(|(n, _)| n == name) {
            m.per_layer.entry(registered).or_insert(*v as f64);
        }
    }
    for (name, _) in crate::report::PER_LAYER {
        if not_reached.iter().any(|prefix| name.starts_with(prefix)) {
            m.per_layer.entry(name).or_insert(0.0);
        }
    }
    m
}

/// The simulated filesystem every workload runs on (the paper's Comet
/// Lustre), sized for the world.
pub fn fresh_fs(files: &[(&str, &[u8])]) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::lustre_comet());
    fs.set_active_ranks(RANKS);
    for (path, bytes) in files {
        fs.create(path, None)
            .expect("fresh filesystem has no files")
            .append(bytes);
    }
    fs
}

/// The world every workload runs in: one node, [`RANKS`] ranks, the
/// calibrated cost model.
pub fn world_config() -> WorldConfig {
    WorldConfig::new(Topology::single_node(RANKS))
}

/// Pipeline options: defaults with [`WORKERS`] workers per rank.
pub fn pipeline_options() -> PipelineOptions {
    PipelineOptions::default().with_workers(WORKERS)
}

/// The paper's decomposition: uniform cells, round-robin declustering.
pub fn decomp_config() -> DecompConfig {
    DecompConfig::uniform(GridSpec::square(GRID_SIDE))
}

/// A generated Table 3 dataset as WKT bytes.
pub struct Dataset {
    /// WKT text, one record per line.
    pub bytes: Vec<u8>,
    /// Records generated.
    pub count: u64,
}

/// Generates Table 3 row `id` at `1/denominator` scale from `seed`.
pub fn generate(id: usize, denominator: u64, seed: u64) -> Dataset {
    let spec = table3()
        .into_iter()
        .find(|s| s.id == id)
        .expect("Table 3 row exists");
    let fs = SimFs::new(FsConfig::lustre_comet());
    let rep = catalog::generate(&fs, &spec, denominator, seed);
    let bytes = fs
        .open(&rep.path)
        .expect("generator wrote the dataset")
        .snapshot();
    Dataset {
        bytes,
        count: rep.count,
    }
}

/// Table 3 row of Cemetery.
pub const CEMETERY: usize = 1;
/// Table 3 row of Lakes.
pub const LAKES: usize = 2;
/// Table 3 row of Roads.
pub const ROADS: usize = 3;

/// One rank's share of a world run.
pub struct RankRun<T> {
    /// What the rank's closure returned.
    pub out: T,
    /// `Comm::now()` when the closure returned.
    pub virt_end: f64,
    /// Host seconds the closure ran.
    pub host_s: f64,
    /// Thread CPU seconds the closure used (traced runs only).
    pub cpu_s: f64,
}

/// One operation's world run.
pub struct WorldRun<T> {
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankRun<T>>,
    /// Host seconds of the whole `World::run` call, thread spawn and
    /// join included.
    pub host_s: f64,
    /// Spans recorded on every rank (empty untraced).
    pub spans: Vec<Span>,
}

impl<T> WorldRun<T> {
    /// Max-over-ranks virtual seconds of the run.
    pub fn virt_s(&self) -> f64 {
        self.ranks.iter().map(|r| r.virt_end).fold(0.0, f64::max)
    }

    /// Host seconds of `World::run` outside the longest rank closure:
    /// thread spawn and join.
    pub fn spawn_join_s(&self) -> f64 {
        let longest = self.ranks.iter().map(|r| r.host_s).fold(0.0, f64::max);
        (self.host_s - longest).max(0.0)
    }

    /// Per-rank CPU seconds.
    pub fn cpu_s(&self) -> Vec<f64> {
        self.ranks.iter().map(|r| r.cpu_s).collect()
    }
}

/// Runs `f` on every rank of a fresh world as operation `op`, with a
/// [`Tracer`] that records when `trace` is set.
pub fn run_world<T: Send>(
    trace: bool,
    op: usize,
    f: impl Fn(&mut Comm, &mut Tracer) -> T + Send + Sync,
) -> WorldRun<T> {
    let start = host_now();
    let per_rank = World::run(world_config(), |comm| {
        let t0 = host_now();
        let cpu0 = if trace { thread_cpu_ns() } else { None };
        let mut tracer = Tracer::new(trace, op, comm.rank());
        let out = f(comm, &mut tracer);
        let cpu_s = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) if trace => b.saturating_sub(a) as f64 * 1e-9,
            _ => 0.0,
        };
        let run = RankRun {
            out,
            virt_end: comm.now(),
            host_s: host_now() - t0,
            cpu_s,
        };
        (run, tracer.into_spans())
    });
    let host_s = host_now() - start;
    let mut ranks = Vec::with_capacity(per_rank.len());
    let mut spans = Vec::new();
    for (run, s) in per_rank {
        ranks.push(run);
        spans.extend(s);
    }
    WorldRun {
        ranks,
        host_s,
        spans,
    }
}

/// Whether the timed loop should start another operation after `done`
/// operations that began at host time `start`.
pub fn another_op(p: &Params, done: usize, start: f64) -> bool {
    done < p.min_ops || host_now() - start < p.seconds
}

/// Runs `setup` `repeats` times and returns the last result together
/// with the median host seconds of one set-up.
pub fn repeated_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous result first so repeats do not stack memory.
        drop(last.take());
        let (v, s) = crate::measure::timed(&mut setup);
        secs.push(s);
        last = Some(v);
    }
    (
        last.expect("at least one set-up ran"),
        crate::measure::median(&secs),
    )
}
