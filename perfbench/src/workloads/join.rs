//! `join`: Lakes ⋈ Cemetery (the paper's Figure 17 pair) over two binary
//! snapshots, by `spatial_join_snapshots`.
//!
//! Set-up generates both layers, parses them, builds one uniform grid
//! over both, routes each layer's replicas to their owners and writes
//! each layer as a snapshot. One timed operation copies the two
//! snapshots onto a fresh simulated filesystem and joins them in a
//! fresh world. No WKT is parsed in the timed phase: snapshot read,
//! routing and filter/refine do the work.
//!
//! The serial oracle runs after the timed loop, on the WKT generated
//! again from the seed, so neither the WKT nor the oracle's index is
//! held while the joins run. Each operation's sorted pair list is kept
//! as a count and a hash until then.

use super::{
    another_op, decomp_config, fresh_fs, generate, pipeline_options, repeated_setup, run_world,
    Measured, Params, CEMETERY, LAKES,
};
use crate::layers;
use crate::measure::{host_now, max, median, peak_rss_mb, reset_peak_rss};
use crate::oracle;
use crate::trace::collective_durations;
use mvio_core::decomp::{self, imbalance_ratio, UniformDecomposition};
use mvio_core::exchange::{exchange_features, ExchangeOptions};
use mvio_core::grid::{CellMap, UniformGrid};
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::pipeline::parse_chunked;
use mvio_core::reader::WktLineParser;
use mvio_core::snapshot::{
    read_meta, read_partitioned_frames, write_partitioned, SnapshotReadOptions,
    SnapshotWriteOptions,
};
use mvio_core::Feature;
use mvio_sjoin::{spatial_join_snapshots, JoinReport, SnapshotJoinOptions};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Per-layer metric prefixes of layers the timed phase does not reach.
pub const NOT_REACHED: &[&str] = &[
    "geom.",
    "pipeline.",
    "snapshot.write_",
    "engine.",
    "rebalance.",
];

const LEFT_WKT: &str = "lakes.wkt";
const RIGHT_WKT: &str = "cemetery.wkt";
const LEFT: &str = "lakes.snap";
const RIGHT: &str = "cemetery.snap";

/// The set-up's products: both snapshots' bytes.
struct Inputs {
    left_snap: Vec<u8>,
    right_snap: Vec<u8>,
}

/// Count and hash of a sorted pair list. `DefaultHasher::new()` has
/// fixed keys, so equal lists give equal hashes in every process.
fn digest<'a>(pairs: impl ExactSizeIterator<Item = &'a (String, String)>) -> (usize, u64) {
    let n = pairs.len();
    let mut h = DefaultHasher::new();
    for pair in pairs {
        pair.hash(&mut h);
    }
    (n, h.finish())
}

/// Generates both layers and writes them as snapshots under one grid.
fn setup(p: &Params) -> Inputs {
    let left = generate(LAKES, p.size.lakes, p.seed);
    let right = generate(CEMETERY, p.size.cemetery, p.seed);
    let fs = fresh_fs(&[(LEFT_WKT, &left.bytes), (RIGHT_WKT, &right.bytes)]);
    let run = run_world(false, 0, |comm, _| {
        let mut layers: Vec<Vec<Feature>> = Vec::new();
        for path in [LEFT_WKT, RIGHT_WKT] {
            let text = read_partition_text(comm, &fs, path, &ReadOptions::default())
                .expect("set-up reads its own generated WKT");
            let (features, _) = parse_chunked(comm, &text, &WktLineParser, &pipeline_options())
                .expect("generated WKT parses");
            layers.push(features);
        }
        let sd = decomp::build_global(comm, &[&layers[0], &layers[1]], &decomp_config());
        for (features, path) in layers.into_iter().zip([LEFT, RIGHT]) {
            let pairs: Vec<(u32, Feature)> = features
                .into_iter()
                .flat_map(|f| {
                    sd.cells_for_rect_vec(&f.geometry.envelope())
                        .into_iter()
                        .map(move |c| (c, f.clone()))
                })
                .collect();
            let (owned, _) = exchange_features(comm, pairs, &*sd, &ExchangeOptions::default())
                .expect("set-up routing succeeds");
            write_partitioned(
                comm,
                &fs,
                path,
                &owned,
                &*sd,
                &SnapshotWriteOptions::default(),
            )
            .expect("set-up snapshot write succeeds");
        }
    });
    drop(run);
    let snap = |path| fs.open(path).expect("set-up wrote the snapshot").snapshot();
    Inputs {
        left_snap: snap(LEFT),
        right_snap: snap(RIGHT),
    }
}

pub fn run(p: &Params) -> Measured {
    let mut m = Measured::default();
    let (inputs, setup_s) = repeated_setup(p.size.setup_repeats, || setup(p));
    m.end_to_end.insert("setup_s", setup_s);

    let files = [
        (LEFT, &inputs.left_snap[..]),
        (RIGHT, &inputs.right_snap[..]),
    ];
    let mut ops = layers::OpLog::default();
    let mut breakdown = [Vec::new(), Vec::new(), Vec::new()];
    let mut digests = Vec::new();
    reset_peak_rss();
    let start = host_now();
    while another_op(p, ops.len(), start) {
        let op = ops.len();
        let traced = p.trace && op % 2 == 1;
        let fs = fresh_fs(&files);
        let run = run_world(traced, op, |comm, t| {
            t.span(comm, "sjoin.spatial_join_snapshots", |c| {
                spatial_join_snapshots(c, &fs, LEFT, RIGHT, &SnapshotJoinOptions::default())
            })
            .map_err(|e| format!("spatial_join_snapshots: {e}"))
        });
        m.attempted += 1;
        ops.record(&run, traced);

        let reports: Result<Vec<&JoinReport>, &String> =
            run.ranks.iter().map(|r| r.out.as_ref()).collect();
        let reports = match reports {
            Ok(r) => r,
            Err(e) => {
                m.fail(format!("op {op}: {e}"));
                continue;
            }
        };
        let mut got: Vec<&(String, String)> = reports.iter().flat_map(|r| &r.pairs).collect();
        got.sort_unstable();
        digests.push((op, digest(got.iter().copied())));
        let b = &reports[0].breakdown;
        breakdown[0].push(b.partition);
        breakdown[1].push(b.communication);
        breakdown[2].push(b.compute);
        let cands: u64 = reports.iter().map(|r| r.filter_candidates).sum();
        let tests: u64 = reports.iter().map(|r| r.refine_tests).sum();
        m.count("join.pairs", got.len() as u64);
        m.count("join.filter_candidates", cands);
        m.count("join.refine_tests", tests);
        m.count(
            "join.max_resident_allocs",
            reports
                .iter()
                .map(|r| r.max_resident_allocs)
                .max()
                .unwrap_or(0),
        );
        layers::pfs_counters(&mut m, &fs);
        if op == 0 {
            m.per_layer
                .insert("join.precision", got.len() as f64 / tests.max(1) as f64);
        }
    }

    m.end_to_end.insert("peak_rss_mb", peak_rss_mb());

    // Oracle: every operation that returned must have returned exactly
    // the serial join's pair multiset.
    let left = generate(LAKES, p.size.lakes, p.seed);
    let right = generate(CEMETERY, p.size.cemetery, p.seed);
    let (want, oracle_s) = crate::measure::timed(|| {
        oracle::join_pairs(
            &oracle::parse_all(&left.bytes),
            &oracle::parse_all(&right.bytes),
        )
    });
    m.notes.push(format!(
        "input: Lakes 1/{} ({} B WKT, {} B snapshot) join Cemetery 1/{} ({} B WKT, {} B snapshot); \
         oracle: {} pairs in {oracle_s:.3} s",
        p.size.lakes,
        left.bytes.len(),
        files[0].1.len(),
        p.size.cemetery,
        right.bytes.len(),
        files[1].1.len(),
        want.len(),
    ));
    let want_digest = digest(want.iter());
    for (op, got) in digests {
        if got != want_digest {
            m.fail(format!(
                "op {op}: join returned {} pairs that differ from the oracle's {}",
                got.0, want_digest.0
            ));
        }
    }

    ops.finish(&mut m, want.len() as f64);
    layers::per_op(&mut m, ops.len());
    m.notes
        .push("host_items_per_s counts result pairs per host second".into());
    m.per_layer
        .insert("join.breakdown_partition_virt_s", median(&breakdown[0]));
    m.per_layer
        .insert("join.breakdown_comm_virt_s", median(&breakdown[1]));
    m.per_layer
        .insert("join.breakdown_compute_virt_s", median(&breakdown[2]));
    if p.trace {
        let read_host = read_replay(&files, &mut m);
        let joins: Vec<f64> = collective_durations(&ops.spans, "sjoin.spatial_join_snapshots")
            .iter()
            .map(|d| d.0)
            .collect();
        m.per_layer
            .insert("join.refine_host_s", median(&joins) - read_host);
    }
    m.spans.append(&mut ops.spans);
    m
}

/// Replays the join's two collective snapshot reads (read + routing
/// exchange) through `read_partitioned_frames`, the read path
/// `spatial_join_snapshots` takes under default options, and records
/// the snapshot-read and exchange layer metrics. Returns the host
/// seconds of both reads.
fn read_replay(files: &[(&str, &[u8])], m: &mut Measured) -> f64 {
    let fs = fresh_fs(files);
    let meta = read_meta(&fs, LEFT).expect("set-up wrote a valid snapshot");
    let run = run_world(true, usize::MAX, |comm, t| {
        let grid = UniformGrid::try_new(meta.bounds, meta.spec).expect("snapshot grid is valid");
        let sd = UniformDecomposition::new(grid, CellMap::RoundRobin, comm.size());
        let mut out = Vec::new();
        for path in [LEFT, RIGHT] {
            let (store, report) = t
                .span(comm, "replay.read_partitioned_frames", |c| {
                    read_partitioned_frames(c, &fs, path, &sd, &SnapshotReadOptions::default())
                })
                .expect("replayed read succeeds: the timed join read the same snapshot");
            out.push((store.records(), report.exchange));
        }
        out
    });
    let (mut rounds, mut bytes, mut records) = (0u64, 0u64, Vec::new());
    let (mut wait, mut overlap) = (Vec::new(), Vec::new());
    for r in &run.ranks {
        records.push(r.out.iter().map(|(n, _)| n).sum::<u64>());
        rounds = rounds.max(r.out.iter().map(|(_, ex)| u64::from(ex.rounds)).sum());
        bytes += r.out.iter().map(|(_, ex)| ex.bytes_sent).sum::<u64>();
        wait.push(r.out.iter().map(|(_, ex)| ex.exposed_wait_s).sum::<f64>());
        overlap.push(
            r.out
                .iter()
                .map(|(_, ex)| ex.overlapped_compute_s)
                .sum::<f64>(),
        );
    }
    m.per_layer.insert("exchange.rounds", rounds as f64);
    m.per_layer.insert("exchange.bytes_sent", bytes as f64);
    m.per_layer.insert("exchange.exposed_wait_s", max(&wait));
    m.per_layer.insert("exchange.overlapped_s", max(&overlap));
    m.per_layer
        .insert("decomp.imbalance", imbalance_ratio(&records));
    // Both reads belong to one replay operation: host time runs from the
    // first rank entering the first read to the last leaving the second;
    // virtual time is the max over ranks of the two reads' sum.
    let host = collective_durations(&run.spans, "replay.read_partitioned_frames")
        .first()
        .map_or(0.0, |d| d.0);
    let mut virt = vec![0.0; run.ranks.len()];
    for s in crate::trace::named(&run.spans, "replay.read_partitioned_frames") {
        virt[s.rank] += s.virt_s();
    }
    m.per_layer.insert("snapshot.read_host_s", host);
    m.per_layer.insert("snapshot.read_virt_s", max(&virt));
    m.spans.extend(run.spans);
    host
}
