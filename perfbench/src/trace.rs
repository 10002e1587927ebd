//! Spans recorded around each public call the benchmark makes.
//!
//! A [`Tracer`] lives on one rank thread for one operation. With tracing
//! off it only runs the wrapped closure, so traced and untraced
//! operations execute the same program calls in the same order. With it
//! on, every [`Tracer::span`] records the call's name, rank, host and
//! virtual start/end, and the thread CPU time it used. The benchmark
//! wraps only top-level calls, one after the other, so spans never
//! nest. Spans stay in memory and are summarized (or dumped) when the
//! run ends.

use crate::measure::{host_now, thread_cpu_ns};
use mvio_msim::Comm;
use std::collections::BTreeMap;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `pipeline.ingest`.
    pub name: &'static str,
    /// Operation (request) index the span belongs to.
    pub op: usize,
    /// Rank whose thread made the call.
    pub rank: usize,
    /// Host seconds since the process epoch.
    pub host_start: f64,
    /// Host seconds since the process epoch.
    pub host_end: f64,
    /// `Comm::now()` when the call began.
    pub virt_start: f64,
    /// `Comm::now()` when the call returned.
    pub virt_end: f64,
    /// Thread CPU nanoseconds spent inside the span.
    pub cpu_ns: u64,
}

impl Span {
    /// Host seconds from start to end.
    pub fn host_s(&self) -> f64 {
        self.host_end - self.host_start
    }

    /// Virtual seconds from start to end.
    pub fn virt_s(&self) -> f64 {
        self.virt_end - self.virt_start
    }
}

/// Per-rank, per-operation span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    op: usize,
    rank: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `rank`'s part of operation `op`; records nothing
    /// unless `enabled`.
    pub fn new(enabled: bool, op: usize, rank: usize) -> Self {
        Tracer {
            enabled,
            op,
            rank,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Attributes the spans that follow to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<R>(
        &mut self,
        comm: &mut Comm,
        name: &'static str,
        f: impl FnOnce(&mut Comm) -> R,
    ) -> R {
        if !self.enabled {
            return f(comm);
        }
        let (host_start, virt_start) = (host_now(), comm.now());
        let cpu0 = thread_cpu_ns().unwrap_or(0);
        let out = f(comm);
        let cpu_ns = thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
        self.spans.push(Span {
            name,
            op: self.op,
            rank: self.rank,
            host_start,
            host_end: host_now(),
            virt_start,
            virt_end: comm.now(),
            cpu_ns,
        });
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans named `name`, across ranks and operations.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Per-operation duration of the collective call `name`: host time from
/// the first rank entering to the last rank leaving, virtual time as the
/// max over ranks. Returns one `(host_s, virt_s)` per operation that
/// recorded the span, in operation order.
pub fn collective_durations(spans: &[Span], name: &str) -> Vec<(f64, f64)> {
    let mut by_op: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new();
    for s in named(spans, name) {
        let e = by_op
            .entry(s.op)
            .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0.0));
        e.0 = e.0.min(s.host_start);
        e.1 = e.1.max(s.host_end);
        e.2 = e.2.max(s.virt_s());
    }
    by_op.values().map(|&(a, b, v)| (b - a, v)).collect()
}

/// One line per span name: count, total host seconds, total CPU
/// seconds and total virtual seconds.
pub fn summary(spans: &[Span]) -> Vec<String> {
    #[derive(Default)]
    struct Row {
        count: u64,
        host: f64,
        cpu: f64,
        virt: f64,
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for s in spans {
        let r = rows.entry(s.name).or_default();
        r.count += 1;
        r.host += s.host_s();
        r.cpu += s.cpu_ns as f64 * 1e-9;
        r.virt += s.virt_s();
    }
    let mut out = vec![format!(
        "{:<28} {:>7} {:>12} {:>12} {:>12}",
        "span", "count", "host_s", "cpu_s", "virt_s"
    )];
    for (name, r) in rows {
        out.push(format!(
            "{:<28} {:>7} {:>12.6} {:>12.6} {:>12.6}",
            name, r.count, r.host, r.cpu, r.virt
        ));
    }
    out
}

/// Spans as JSON lines (one object per span), for external tools.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"op\":{},\"rank\":{},\
             \"host_start\":{},\"host_end\":{},\"virt_start\":{},\"virt_end\":{},\"cpu_ns\":{}}}\n",
            s.name, s.op, s.rank, s.host_start, s.host_end, s.virt_start, s.virt_end, s.cpu_ns
        ));
    }
    out
}
