//! Per-layer bookkeeping shared by the workloads: the per-operation log
//! that turns repeats into end-to-end medians, counters read from the
//! program's returned stats, and the replays that time one layer of a
//! fused public entry point through that layer's own public functions.

use crate::measure::{median, skew, spread, thread_cpu_ns};
use crate::trace::Span;
use crate::workloads::{fresh_fs, pipeline_options, run_world, Measured, WorldRun};
use mvio_core::exchange::ExchangeStats;
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::pipeline::parse_chunked;
use mvio_core::reader::WktLineParser;
use mvio_pfs::SimFs;

/// Host and virtual time of every timed operation of a run.
#[derive(Default)]
pub(crate) struct OpLog {
    /// Host seconds of each operation's `World::run`.
    pub host: Vec<f64>,
    /// Max-over-ranks virtual seconds of each operation.
    pub virt: Vec<f64>,
    /// Whether each operation was traced.
    pub traced: Vec<bool>,
    /// Spawn + join host seconds of each operation.
    pub spawn_join: Vec<f64>,
    /// Max/min per-rank CPU seconds of each traced operation.
    pub rank_skew: Vec<f64>,
    /// Spans of the traced operations.
    pub spans: Vec<Span>,
}

impl OpLog {
    /// Operations logged so far.
    pub fn len(&self) -> usize {
        self.host.len()
    }

    /// Logs one operation's world run.
    pub fn record<T>(&mut self, run: &WorldRun<T>, traced: bool) {
        self.host.push(run.host_s);
        self.virt.push(run.virt_s());
        self.traced.push(traced);
        self.spawn_join.push(run.spawn_join_s());
        if traced {
            self.rank_skew.push(skew(&run.cpu_s()));
        }
        self.spans.extend(run.spans.iter().cloned());
    }

    fn host_where(&self, traced: bool) -> Vec<f64> {
        self.host
            .iter()
            .zip(&self.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(h, _)| *h)
            .collect()
    }

    /// Writes the end-to-end medians and the `msim`/`trace` layer
    /// metrics. `items` is the work one operation completes.
    pub fn finish(&self, m: &mut Measured, items: f64) {
        let untraced = self.host_where(false);
        let traced = self.host_where(true);
        let host_s = median(&untraced);
        m.end_to_end.insert("host_s", host_s);
        m.end_to_end.insert("virt_s", median(&self.virt));
        m.end_to_end
            .insert("host_items_per_s", items / host_s.max(f64::MIN_POSITIVE));
        m.per_layer.insert("msim.virt_spread", spread(&self.virt));
        m.per_layer
            .insert("msim.spawn_join_host_s", median(&self.spawn_join));
        m.per_layer
            .insert("msim.host_rank_skew", median(&self.rank_skew));
        if !traced.is_empty() {
            m.per_layer
                .insert("trace.overhead_host_s", median(&traced) - host_s);
        }
        m.notes.push(format!(
            "ops: {} ({} traced); host_s per op min/median/max {:.4}/{:.4}/{:.4}; \
             virt_s median {:.6}, spread {:.3e}",
            self.len(),
            traced.len(),
            untraced.iter().copied().fold(f64::INFINITY, f64::min),
            host_s,
            crate::measure::max(&untraced),
            median(&self.virt),
            spread(&self.virt),
        ));
    }
}

/// Sets every registered per-layer metric that is a counter to its
/// per-operation value: the counter's total over `ops` operations.
pub fn per_op(m: &mut Measured, ops: usize) {
    for (name, _) in crate::report::PER_LAYER {
        if let Some(total) = m.counters.get(name) {
            m.per_layer.insert(name, *total as f64 / ops.max(1) as f64);
        }
    }
}

/// Exchange counters of one exchange per rank: rounds (max over ranks)
/// and bytes sent (sum over ranks).
pub fn exchange_counters<'a>(m: &mut Measured, per_rank: impl Iterator<Item = &'a ExchangeStats>) {
    let (mut rounds, mut bytes) = (0u64, 0u64);
    for s in per_rank {
        rounds = rounds.max(u64::from(s.rounds));
        bytes += s.bytes_sent;
    }
    m.count("exchange.rounds", rounds);
    m.count("exchange.bytes_sent", bytes);
}

/// The filesystem's counters: operations and bytes, the share of
/// operations not starting on a stripe boundary, and max/mean bytes
/// over the OST slots that served any. `fs` serves one operation.
pub fn pfs_counters(m: &mut Measured, fs: &SimFs) {
    let st = fs.stats();
    m.count("pfs.bytes_read", st.bytes_read());
    m.count("pfs.bytes_written", st.bytes_written());
    m.count("pfs.read_ops", st.read_ops());
    m.count("pfs.write_ops", st.write_ops());
    let ops = st.stripe_aligned_ops() + st.unaligned_ops();
    m.per_layer.insert(
        "pfs.unaligned_share",
        st.unaligned_ops() as f64 / ops.max(1) as f64,
    );
    let used: Vec<f64> = st
        .per_ost_bytes()
        .into_iter()
        .filter(|&b| b > 0)
        .map(|b| b as f64)
        .collect();
    let mean = used.iter().sum::<f64>() / used.len().max(1) as f64;
    m.per_layer.insert(
        "pfs.ost_imbalance",
        if mean > 0.0 {
            crate::measure::max(&used) / mean
        } else {
            1.0
        },
    );
}

/// Replays the text read and the parse stage of `pipeline::ingest` on
/// `files` through `read_partition_text` and `parse_chunked`, and
/// returns parse cost in host nanoseconds per WKT byte: the CPU time of
/// the parse summed over ranks (wall time where the kernel does not
/// report thread CPU time) over the bytes parsed.
pub fn parse_replay(files: &[(&str, &[u8])], m: &mut Measured) -> f64 {
    let (mut ns, mut bytes) = (0.0f64, 0u64);
    let fs = fresh_fs(files);
    for (i, (path, _)) in files.iter().enumerate() {
        let run = run_world(true, usize::MAX - i, |comm, t| {
            let text = t
                .span(comm, "replay.read_partition_text", |c| {
                    read_partition_text(c, &fs, path, &ReadOptions::default())
                })
                .expect("replayed read succeeds: the timed run read the same file");
            let wall0 = crate::measure::host_now();
            let cpu0 = thread_cpu_ns();
            t.span(comm, "replay.parse_chunked", |c| {
                parse_chunked(c, &text, &WktLineParser, &pipeline_options())
            })
            .expect("replayed parse succeeds: the timed run parsed the same text");
            let wall = crate::measure::host_now() - wall0;
            let spent = match (cpu0, thread_cpu_ns()) {
                (Some(a), Some(b)) => b.saturating_sub(a) as f64,
                _ => wall * 1e9,
            };
            (spent, text.len() as u64)
        });
        for r in &run.ranks {
            ns += r.out.0;
            bytes += r.out.1;
        }
        m.spans.extend(run.spans);
    }
    ns / bytes.max(1) as f64
}
