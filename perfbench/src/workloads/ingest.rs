//! `ingest`: Lakes (Table 3 row 2, heavy-tailed ~1.1 KB polygons) as
//! WKT, read, parsed, partitioned and exchanged by `pipeline::ingest`,
//! then persisted by `IngestOutput::write_partitioned`.
//!
//! Set-up generates the WKT. One timed operation copies it onto a fresh
//! simulated filesystem and runs ingest + write in a fresh world; the
//! copy is outside the timing. A fresh filesystem per operation keeps
//! the simulated servers' queues from carrying over between repeats.

use super::{
    another_op, decomp_config, fresh_fs, generate, pipeline_options, repeated_setup, run_world,
    Measured, Params, LAKES,
};
use crate::layers;
use crate::measure::{host_now, median, peak_rss_mb, reset_peak_rss};
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{self, SnapshotWriteOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::snapshot;

/// Per-layer metric prefixes of layers the timed phase does not reach.
pub const NOT_REACHED: &[&str] = &["snapshot.read_", "join.", "engine.", "rebalance."];

const WKT: &str = "lakes.wkt";
const SNAP: &str = "lakes.snap";

/// What one rank reports back from one operation.
struct RankOut {
    local_features: u64,
    replicas: u64,
    exchange: mvio_core::exchange::ExchangeStats,
}

pub fn run(p: &Params) -> Measured {
    let mut m = Measured::default();
    let (data, setup_s) = repeated_setup(p.size.setup_repeats, || {
        generate(LAKES, p.size.lakes, p.seed)
    });
    m.end_to_end.insert("setup_s", setup_s);
    m.notes.push(format!(
        "input: Lakes 1/{} = {} records, {} bytes of WKT",
        p.size.lakes,
        data.count,
        data.bytes.len()
    ));

    let mut ops = layers::OpLog::default();
    let (mut exposed_wait, mut overlapped) = (Vec::new(), Vec::new());
    reset_peak_rss();
    let start = host_now();
    while another_op(p, ops.len(), start) {
        let op = ops.len();
        let traced = p.trace && op % 2 == 1;
        let fs = fresh_fs(&[(WKT, &data.bytes)]);
        let run = run_world(traced, op, |comm, t| {
            let ingested = t
                .span(comm, "pipeline.ingest", |c| {
                    pipeline::ingest(
                        c,
                        &fs,
                        WKT,
                        &ReadOptions::default(),
                        &WktLineParser,
                        &decomp_config(),
                        &pipeline_options(),
                    )
                })
                .map_err(|e| format!("ingest: {e}"))?;
            t.span(comm, "snapshot.write_partitioned", |c| {
                ingested.write_partitioned(c, &fs, SNAP, &SnapshotWriteOptions::default())
            })
            .map_err(|e| format!("write_partitioned: {e}"))?;
            Ok::<_, String>(RankOut {
                local_features: ingested.local_features,
                replicas: ingested.owned.len() as u64,
                exchange: ingested.exchange,
            })
        });
        m.attempted += 1;
        ops.record(&run, traced);

        // Oracle, outside the timing: every generated record parsed once,
        // and the snapshot header counts every replica the ranks own.
        let outs: Result<Vec<&RankOut>, &String> =
            run.ranks.iter().map(|r| r.out.as_ref()).collect();
        let outs = match outs {
            Ok(o) => o,
            Err(e) => {
                m.fail(format!("op {op}: {e}"));
                continue;
            }
        };
        let records: u64 = outs.iter().map(|o| o.local_features).sum();
        let replicas: u64 = outs.iter().map(|o| o.replicas).sum();
        let header = snapshot::read_meta(&fs, SNAP).map(|meta| meta.total_records);
        if records != data.count {
            m.fail(format!(
                "op {op}: parsed {records} records, generated {}",
                data.count
            ));
        } else if header.as_ref().ok() != Some(&replicas) {
            m.fail(format!(
                "op {op}: snapshot header says {header:?} records, ranks own {replicas}"
            ));
        }

        m.count("pipeline.records", records);
        m.count("pipeline.replicas", replicas);
        layers::exchange_counters(&mut m, outs.iter().map(|o| &o.exchange));
        layers::pfs_counters(&mut m, &fs);
        if op == 0 {
            let per_rank: Vec<u64> = outs.iter().map(|o| o.replicas).collect();
            m.per_layer.insert(
                "decomp.imbalance",
                mvio_core::decomp::imbalance_ratio(&per_rank),
            );
            m.per_layer.insert(
                "pipeline.replication",
                replicas as f64 / records.max(1) as f64,
            );
        }
        let waits: Vec<f64> = outs.iter().map(|o| o.exchange.exposed_wait_s).collect();
        let overlap: Vec<f64> = outs
            .iter()
            .map(|o| o.exchange.overlapped_compute_s)
            .collect();
        exposed_wait.push(crate::measure::max(&waits));
        overlapped.push(crate::measure::max(&overlap));
    }

    m.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    let items = data.count as f64;
    ops.finish(&mut m, items);
    layers::per_op(&mut m, ops.len());
    m.notes
        .push("host_items_per_s counts WKT records ingested per host second".into());
    if p.trace {
        let spans = &ops.spans;
        let writes = crate::trace::collective_durations(spans, "snapshot.write_partitioned");
        m.per_layer.insert(
            "snapshot.write_host_s",
            median(&writes.iter().map(|w| w.0).collect::<Vec<_>>()),
        );
        m.per_layer.insert(
            "snapshot.write_virt_s",
            median(&writes.iter().map(|w| w.1).collect::<Vec<_>>()),
        );
        m.per_layer
            .insert("exchange.exposed_wait_s", median(&exposed_wait));
        m.per_layer
            .insert("exchange.overlapped_s", median(&overlapped));
        let parse = layers::parse_replay(&[(WKT, &data.bytes)], &mut m);
        m.per_layer.insert("geom.parse_host_ns_per_byte", parse);
    }
    m.spans.append(&mut ops.spans);
    m
}
