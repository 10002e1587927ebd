//! `serve`: Roads (Table 3 row 3, small polygons) resident in a
//! `QueryEngine` that answers query batches while a moving hotspot
//! inserts and deletes points.
//!
//! Set-up generates the WKT, ingests it and builds the engine with an
//! LRU cache of 1024 entries and rebalancing at imbalance 1.5. Set-up
//! repeats run in worlds of their own and then make the timed loop's
//! first call once more, untimed, so `msim.virt_spread` compares the
//! virtual time of identical work. The last set-up continues into the
//! timed loop in the same world, because the engine lives on the rank
//! threads. One timed call is: every rank serves one batch from its own
//! Zipf stream of range, point and kNN queries (the default mix), then
//! every rank applies its shard of one `MovingHotspot` step and the
//! engine checks the balance. After each call rank 0 decides whether
//! the run goes on, and an allreduce carries the decision to all ranks.

use super::{
    decomp_config, fresh_fs, generate, pipeline_options, run_world, Measured, Params, RANKS, ROADS,
};
use crate::layers;
use crate::measure::{
    host_now, max, median, peak_rss_mb, quantile, reset_peak_rss, skew, spread, thread_cpu_ns,
};
use crate::oracle;
use crate::trace::Tracer;
use mvio_core::decomp::imbalance_ratio;
use mvio_core::partition::ReadOptions;
use mvio_core::pipeline::{self, IngestOutput};
use mvio_core::reader::WktLineParser;
use mvio_core::Feature;
use mvio_datagen::{generate_queries, MovingHotspot, QueryShape, QueryWorkload};
use mvio_geom::{Geometry, Point};
use mvio_msim::Comm;
use mvio_pfs::SimFs;
use mvio_sjoin::{
    EngineOptions, Query, QueryAnswer, QueryEngine, RebalancePolicy, ServeCache, Update,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-layer metric prefixes of layers the timed phase does not reach.
pub const NOT_REACHED: &[&str] = &["pfs.", "snapshot.", "join."];

const WKT: &str = "roads.wkt";

/// Calls per run at most: the hotspot crosses the world in this many
/// steps, so a run never replays a step.
const MAX_CALLS: usize = 256;

/// Steps an inserted hotspot point lives before the stream deletes it.
/// The `rebalance` experiment sizes its live hotspot (inserts per step
/// times window) at ~20% of the total weight; 1024 inserts × 16 steps
/// is 16,384 live points beside Roads' 72,129 replicas (19%). Its
/// 2-step window would need ~9,000 inserts per step for the same
/// weight, which makes the update step dominate every call.
const WINDOW: usize = 16;

/// Fraction of each world dimension the hotspot box covers. Round-robin
/// declustering of the 16×16 grid over 4 ranks gives each rank every
/// 4th column, so the box must be narrower than one column (6.25%) to
/// pile onto one or two ranks; the `rebalance` experiment's 18% box
/// spans three columns and never triggers a rebalance here. The live
/// trail (~10% per side after 16 steps) stays well under the per-rank
/// mean weight, so a re-bisection has cuts available.
const HOTSPOT_SPREAD: f64 = 0.04;

/// Every `SAMPLE_EVERY`-th call is checked against the mirror.
const SAMPLE_EVERY: usize = 32;

/// Calls replayed, split by query kind, for `engine.knn_host_share`.
const KNN_REPLAY_CALLS: usize = 4;

fn engine_options() -> EngineOptions {
    EngineOptions {
        cache: ServeCache::Entries(1024),
        rebalance: RebalancePolicy::Threshold(1.5),
        ..Default::default()
    }
}

fn ingest(comm: &mut Comm, fs: &Arc<SimFs>) -> IngestOutput {
    pipeline::ingest(
        comm,
        fs,
        WKT,
        &ReadOptions::default(),
        &WktLineParser,
        &decomp_config(),
        &pipeline_options(),
    )
    .expect("set-up ingests its own generated WKT")
}

fn to_query(s: &QueryShape) -> Query {
    match *s {
        QueryShape::Range(r) => Query::Range(r),
        QueryShape::Point(p) => Query::Point(p),
        QueryShape::Knn { at, k } => Query::Knn { at, k },
    }
}

/// The set-up's filesystem: the generated WKT and nothing else. The
/// WKT itself is not kept; the oracle generates it again from the seed
/// after the timed loop.
fn setup_fs(p: &Params) -> (Arc<SimFs>, u64) {
    let data = generate(ROADS, p.size.roads, p.seed);
    (fresh_fs(&[(WKT, &data.bytes)]), data.count)
}

/// Builds this rank's engine from the set-up filesystem and ends the
/// set-up: once every rank has its engine, rank 0 removes the WKT from
/// the filesystem and resets the process's peak RSS, so `peak_rss_mb`
/// covers the calls only. Returns the engine, the rank's parsed records
/// and owned replicas, and the host time set-up ended.
fn build_engine(comm: &mut Comm, fs: &Arc<SimFs>) -> (QueryEngine, u64, u64, f64) {
    let ingested = ingest(comm, fs);
    let (records, replicas) = (ingested.local_features, ingested.owned.len() as u64);
    let eng = QueryEngine::from_ingest(comm, ingested, &engine_options());
    comm.barrier();
    if comm.rank() == 0 {
        fs.remove(WKT).expect("set-up wrote the WKT");
        reset_peak_rss();
    }
    (eng, records, replicas, host_now())
}

/// Rank `rank`'s batch for call `k`. Each rank is a frontend with its
/// own Zipf pool, redrawn every call so one run averages over many
/// pools.
fn batch(bounds: mvio_geom::Rect, p: &Params, rank: usize, k: usize) -> Vec<Query> {
    let seed = p.seed ^ ((rank as u64 + 1) << 32) ^ (k as u64).wrapping_mul(0x9E37_79B9);
    generate_queries(
        bounds,
        &QueryWorkload::default(),
        p.size.queries_per_rank,
        seed,
    )
    .iter()
    .map(to_query)
    .collect()
}

/// The hotspot stream of a run.
fn hotspot(bounds: mvio_geom::Rect, p: &Params) -> MovingHotspot {
    MovingHotspot {
        world: bounds,
        steps: MAX_CALLS,
        inserts_per_step: p.size.hotspot_inserts,
        window: WINDOW,
        spread: HOTSPOT_SPREAD,
        seed: p.seed ^ 0x5E4E_0000,
    }
}

fn point(p: &Point, id: &str) -> Feature {
    Feature::with_userdata(Geometry::Point(*p), id)
}

/// This rank's shard of step `step`: every `RANKS`-th delete and insert.
fn updates_for(spec: &MovingHotspot, step: usize, rank: usize) -> Vec<Update> {
    let s = spec.step(step);
    let mine = |i: &usize| i % RANKS == rank;
    let deletes = s.deletes.iter().enumerate().filter(|(i, _)| mine(i));
    let inserts = s.inserts.iter().enumerate().filter(|(i, _)| mine(i));
    deletes
        .map(|(_, (p, id))| Update::Delete(point(p, id)))
        .chain(inserts.map(|(_, (p, id))| Update::Insert(point(p, id))))
        .collect()
}

/// One rank's record of one call.
#[derive(Default)]
struct Call {
    traced: bool,
    query_host: f64,
    update_host: f64,
    query_virt: f64,
    update_virt: f64,
    serve_error: Option<String>,
    update_error: Option<String>,
    queries: u64,
    from_cache: u64,
    shipped: u64,
    answers: u64,
    rounds: u64,
    bytes_sent: u64,
    exposed_wait: f64,
    overlapped: f64,
    inserted: u64,
    deleted: u64,
    missing_deletes: u64,
    rebalanced: bool,
    imbalance: f64,
    migrated_records: u64,
    migrated_bytes: u64,
    resident: u64,
    /// Queries and answers of a sampled call, for the mirror check.
    sample: Option<(Vec<Query>, Vec<QueryAnswer>)>,
}

/// One rank's record of the whole run.
struct RankOut {
    setup_end: f64,
    bounds: mvio_geom::Rect,
    records: u64,
    replicas: u64,
    calls: Vec<Call>,
    loop_cpu_s: f64,
    /// Peak RSS of the calls in MiB (rank 0 only; 0 elsewhere).
    peak_rss: f64,
    knn_host: f64,
    other_host: f64,
    final_resident: u64,
}

/// One timed call on one rank.
fn call(
    comm: &mut Comm,
    t: &mut Tracer,
    eng: &mut QueryEngine,
    qs: &[Query],
    updates: &[Update],
    sampled: bool,
) -> Call {
    let mut c = Call::default();
    let (h0, v0) = (host_now(), comm.now());
    match t.span(comm, "engine.serve", |cm| eng.serve(cm, qs)) {
        Ok(rep) => {
            let s = &rep.stats;
            c.queries = s.queries;
            c.from_cache = s.answered_from_cache;
            c.shipped = s.shipped_records;
            c.answers = rep.answers.iter().map(|a| a.len() as u64).sum();
            c.rounds = u64::from(s.query_exchange.rounds + s.result_exchange.rounds);
            c.bytes_sent = s.query_exchange.bytes_sent + s.result_exchange.bytes_sent;
            c.exposed_wait = s.query_exchange.exposed_wait_s + s.result_exchange.exposed_wait_s;
            c.overlapped =
                s.query_exchange.overlapped_compute_s + s.result_exchange.overlapped_compute_s;
            if sampled {
                c.sample = Some((qs.to_vec(), rep.answers));
            }
        }
        Err(e) => c.serve_error = Some(format!("serve: {e}")),
    }
    let (h1, v1) = (host_now(), comm.now());
    match t.span(comm, "engine.apply_updates", |cm| {
        eng.apply_updates(cm, updates)
    }) {
        Ok(u) => {
            c.inserted = u.inserted_replicas;
            c.deleted = u.deleted_replicas;
            c.missing_deletes = u.missing_deletes;
        }
        Err(e) => c.update_error = Some(format!("apply_updates: {e}")),
    }
    match t.span(comm, "engine.maybe_rebalance", |cm| eng.maybe_rebalance(cm)) {
        Ok(r) => {
            c.rebalanced = r.rebalanced;
            c.imbalance = r.imbalance_before;
            c.migrated_records = r.migration.shipped_records;
            c.migrated_bytes = r.migration.shipped_bytes;
        }
        Err(e) => c.update_error = Some(format!("maybe_rebalance: {e}")),
    }
    let (h2, v2) = (host_now(), comm.now());
    c.resident = eng.resident_replicas() as u64;
    c.query_host = h1 - h0;
    c.update_host = h2 - h1;
    c.query_virt = v1 - v0;
    c.update_virt = v2 - v1;
    c
}

/// Host seconds of serving `qs` split into its kNN and other queries:
/// `(knn, other)`.
fn knn_split(comm: &mut Comm, eng: &mut QueryEngine, qs: &[Query]) -> (f64, f64) {
    let (knn, other): (Vec<Query>, Vec<Query>) =
        qs.iter().partition(|q| matches!(q, Query::Knn { .. }));
    let mut time = |batch: &[Query]| {
        let t = host_now();
        eng.serve(comm, batch).expect("replayed queries are valid");
        host_now() - t
    };
    let other_s = time(&other);
    (time(&knn), other_s)
}

pub fn run(p: &Params) -> Measured {
    let mut m = Measured::default();
    let mut setup_secs = Vec::new();
    // Virtual seconds of the first call, once per world.
    let mut first_call_virt = Vec::new();
    for _ in 1..p.size.setup_repeats.max(1) {
        let t0 = host_now();
        let (fs, _) = setup_fs(p);
        let run = run_world(false, 0, |comm, t| {
            let rank = comm.rank();
            let (mut eng, _, _, setup_end) = build_engine(comm, &fs);
            let bounds = eng.decomposition().bounds();
            let (qs, updates) = (
                batch(bounds, p, rank, 0),
                updates_for(&hotspot(bounds, p), 0, rank),
            );
            let c = call(comm, t, &mut eng, &qs, &updates, false);
            (setup_end, c.query_virt + c.update_virt)
        });
        let setup_end = run.ranks.iter().map(|r| r.out.0).fold(0.0, f64::max);
        setup_secs.push(setup_end - t0);
        first_call_virt.push(run.ranks.iter().map(|r| r.out.1).fold(0.0, f64::max));
    }

    let t0 = host_now();
    let (fs, generated) = setup_fs(p);
    let run = run_world(p.trace, 0, |comm, t| {
        let rank = comm.rank();
        let (mut eng, records, replicas, setup_end) = build_engine(comm, &fs);
        let bounds = eng.decomposition().bounds();
        let batch = |k: usize| batch(bounds, p, rank, k);
        let spec = hotspot(bounds, p);

        let cpu0 = thread_cpu_ns();
        let start = host_now();
        let mut calls = Vec::new();
        loop {
            let k = calls.len();
            let traced = p.trace && k % 2 == 1;
            t.set_op(k);
            t.set_enabled(traced);
            let (queries, updates) = (batch(k), updates_for(&spec, k, rank));
            let mut c = call(comm, t, &mut eng, &queries, &updates, k % SAMPLE_EVERY == 0);
            c.traced = traced;
            calls.push(c);
            let more =
                rank == 0 && super::another_op(p, calls.len(), start) && calls.len() < MAX_CALLS;
            if comm.allreduce_u64(u64::from(more), |a, b| *a.max(b)) == 0 {
                break;
            }
        }
        let peak_rss = if rank == 0 { peak_rss_mb() } else { 0.0 };
        let loop_cpu_s = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
            _ => 0.0,
        };
        let (mut knn_host, mut other_host) = (0.0, 0.0);
        if p.trace {
            for k in MAX_CALLS..MAX_CALLS + KNN_REPLAY_CALLS {
                let (a, b) = knn_split(comm, &mut eng, &batch(k));
                knn_host += a;
                other_host += b;
            }
        }
        RankOut {
            setup_end,
            bounds,
            records,
            replicas,
            calls,
            loop_cpu_s,
            peak_rss,
            knn_host,
            other_host,
            final_resident: eng.resident_replicas() as u64,
        }
    });
    drop(fs);
    let setup_end = run
        .ranks
        .iter()
        .map(|r| r.out.setup_end)
        .fold(0.0, f64::max);
    setup_secs.push(setup_end - t0);
    m.end_to_end.insert("setup_s", median(&setup_secs));
    let outs: Vec<&RankOut> = run.ranks.iter().map(|r| &r.out).collect();
    m.end_to_end.insert(
        "peak_rss_mb",
        max(&outs.iter().map(|o| o.peak_rss).collect::<Vec<_>>()),
    );
    let calls = outs[0].calls.len();
    let data = generate(ROADS, p.size.roads, p.seed);
    assert_eq!(data.count, generated, "the seed regenerates the same WKT");
    m.notes.push(format!(
        "input: Roads 1/{} = {} records, {} bytes of WKT; {} queries per rank per call; \
         hotspot: {} inserts per step, window {WINDOW} steps, box {HOTSPOT_SPREAD} of each \
         dimension",
        p.size.roads,
        data.count,
        data.bytes.len(),
        p.size.queries_per_rank,
        p.size.hotspot_inserts
    ));

    // Per-call figures: max over ranks of each rank's own duration.
    let per_call = |f: &dyn Fn(&Call) -> f64| -> Vec<f64> {
        (0..calls)
            .map(|k| outs.iter().map(|o| f(&o.calls[k])).fold(0.0, f64::max))
            .collect()
    };
    let query_host = per_call(&|c| c.query_host);
    let update_host = per_call(&|c| c.update_host);
    let total_host = per_call(&|c| c.query_host + c.update_host);
    let query_virt = per_call(&|c| c.query_virt);
    let update_virt = per_call(&|c| c.update_virt);
    let total_virt = per_call(&|c| c.query_virt + c.update_virt);
    first_call_virt.push(total_virt[0]);
    let traced: Vec<bool> = outs[0].calls.iter().map(|c| c.traced).collect();
    let pick = |v: &[f64], want: bool| -> Vec<f64> {
        v.iter()
            .zip(&traced)
            .filter(|(_, t)| **t == want)
            .map(|(x, _)| *x)
            .collect()
    };
    let host_s = median(&pick(&total_host, false));
    let queries: u64 = outs.iter().flat_map(|o| &o.calls).map(|c| c.queries).sum();
    let query_host_total: f64 = query_host.iter().sum();
    m.end_to_end.insert("host_s", host_s);
    m.end_to_end.insert("virt_s", median(&total_virt));
    m.end_to_end.insert(
        "host_items_per_s",
        queries as f64 / query_host_total.max(f64::MIN_POSITIVE),
    );
    m.notes.push(format!(
        "calls: {calls} ({} traced); host_items_per_s counts queries per host second of \
         serve calls",
        traced.iter().filter(|t| **t).count()
    ));
    let ms = |v: &[f64], q: f64| quantile(v, q) * 1e3;
    m.notes.push(format!(
        "latency over {calls} calls (p90 has {} samples beyond it): query p50 {:.3} ms, \
         p90 {:.3} ms, virt p90 {:.3} ms; update p50 {:.3} ms, p90 {:.3} ms, virt p90 {:.3} ms",
        calls / 10,
        ms(&query_host, 0.5),
        ms(&query_host, 0.9),
        ms(&query_virt, 0.9),
        ms(&update_host, 0.5),
        ms(&update_host, 0.9),
        ms(&update_virt, 0.9),
    ));
    for (name, v) in [
        ("engine.query_p50_ms", ms(&query_host, 0.5)),
        ("engine.query_p90_ms", ms(&query_host, 0.9)),
        ("engine.virt_query_p90_ms", ms(&query_virt, 0.9)),
        ("engine.update_p50_ms", ms(&update_host, 0.5)),
        ("engine.update_p90_ms", ms(&update_host, 0.9)),
        ("engine.virt_update_p90_ms", ms(&update_virt, 0.9)),
        ("engine.serve_host_s", median(&query_host)),
        ("engine.update_host_s", median(&update_host)),
        ("engine.latency_samples", calls as f64),
    ] {
        m.per_layer.insert(name, v);
    }

    // Correctness: errors and missing deletes fail their call; sampled
    // calls are checked against a mirror of the live dataset.
    let spec = hotspot(outs[0].bounds, p);
    let (checked, oracle_s) = crate::measure::timed(|| check(&mut m, &outs, &data.bytes, &spec));
    m.notes.push(format!(
        "oracle: checked {checked} sampled calls against the mirror in {oracle_s:.3} s"
    ));

    let sum = |f: &dyn Fn(&Call) -> u64| -> u64 { outs.iter().flat_map(|o| &o.calls).map(f).sum() };
    m.count("pipeline.records", outs.iter().map(|o| o.records).sum());
    m.count("pipeline.replicas", outs.iter().map(|o| o.replicas).sum());
    m.count("engine.queries", queries);
    m.count("engine.answered_from_cache", sum(&|c| c.from_cache));
    m.count("engine.shipped_records_total", sum(&|c| c.shipped));
    m.count("engine.answers", sum(&|c| c.answers));
    m.count("engine.exchange_bytes_sent", sum(&|c| c.bytes_sent));
    m.count("engine.inserted_replicas", sum(&|c| c.inserted));
    m.count("engine.deleted_replicas", sum(&|c| c.deleted));
    let rebalances = outs[0].calls.iter().filter(|c| c.rebalanced).count() as u64;
    m.count("rebalance.count", rebalances);
    m.count("rebalance.migrated_bytes", sum(&|c| c.migrated_bytes));
    let migrated = sum(&|c| c.migrated_records);
    let resident_at_rebalance: u64 = (0..calls)
        .filter(|&k| outs[0].calls[k].rebalanced)
        .map(|k| outs.iter().map(|o| o.calls[k].resident).sum::<u64>())
        .sum();
    let n = calls.max(1) as f64;
    m.per_layer.insert(
        "pipeline.replication",
        m.counters["pipeline.replicas"] as f64 / m.counters["pipeline.records"].max(1) as f64,
    );
    m.per_layer.insert(
        "rebalance.migrated_fraction",
        migrated as f64 / resident_at_rebalance.max(1) as f64,
    );
    m.per_layer.insert(
        "rebalance.imbalance_peak",
        outs[0]
            .calls
            .iter()
            .map(|c| c.imbalance)
            .fold(0.0, f64::max),
    );
    m.per_layer
        .insert("engine.shipped_records", sum(&|c| c.shipped) as f64 / n);
    m.per_layer.insert(
        "engine.answers_per_query",
        sum(&|c| c.answers) as f64 / queries.max(1) as f64,
    );
    m.per_layer.insert(
        "engine.cache_hit_rate",
        sum(&|c| c.from_cache) as f64 / queries.max(1) as f64,
    );
    let per_call_rounds = per_call(&|c| c.rounds as f64);
    m.per_layer
        .insert("exchange.rounds", median(&per_call_rounds));
    m.per_layer
        .insert("exchange.bytes_sent", sum(&|c| c.bytes_sent) as f64 / n);
    m.per_layer.insert(
        "exchange.exposed_wait_s",
        median(&per_call(&|c| c.exposed_wait)),
    );
    m.per_layer.insert(
        "exchange.overlapped_s",
        median(&per_call(&|c| c.overlapped)),
    );
    let resident: Vec<u64> = outs.iter().map(|o| o.final_resident).collect();
    m.per_layer
        .insert("decomp.imbalance", imbalance_ratio(&resident));
    m.per_layer
        .insert("msim.virt_spread", spread(&first_call_virt));
    m.per_layer
        .insert("msim.spawn_join_host_s", run.spawn_join_s());

    if p.trace {
        let cpu: Vec<f64> = outs.iter().map(|o| o.loop_cpu_s).collect();
        m.per_layer.insert("msim.host_rank_skew", skew(&cpu));
        m.per_layer.insert(
            "trace.overhead_host_s",
            median(&pick(&total_host, true)) - host_s,
        );
        let knn: f64 = max(&outs.iter().map(|o| o.knn_host).collect::<Vec<_>>());
        let other: f64 = max(&outs.iter().map(|o| o.other_host).collect::<Vec<_>>());
        m.per_layer.insert(
            "engine.knn_host_share",
            knn / (knn + other).max(f64::MIN_POSITIVE),
        );
        let parse = layers::parse_replay(&[(WKT, &data.bytes)], &mut m);
        m.per_layer.insert("geom.parse_host_ns_per_byte", parse);
    }
    let mut spans = run.spans;
    spans.append(&mut m.spans);
    m.spans = spans;
    m
}

/// Counts failures of every call and checks the sampled calls against a
/// mirror of the live dataset: the generated base plus the hotspot
/// points still alive at that call. Returns the number of calls checked.
fn check(m: &mut Measured, outs: &[&RankOut], wkt: &[u8], spec: &MovingHotspot) -> usize {
    let calls = outs[0].calls.len();
    let base = oracle::parse_all(wkt);
    let mut live: BTreeMap<String, Feature> = BTreeMap::new();
    let mut checked = 0;
    for k in 0..calls {
        // Two operations per call: the serve and the update step.
        m.attempted += 2;
        let first =
            |f: &dyn Fn(&Call) -> &Option<String>| outs.iter().find_map(|o| f(&o.calls[k]).clone());
        let mut serve_failure = first(&|c| &c.serve_error);
        if serve_failure.is_none() && outs.iter().any(|o| o.calls[k].sample.is_some()) {
            checked += 1;
            let mirror: Vec<Feature> = base.iter().chain(live.values()).cloned().collect();
            let wrong = outs
                .iter()
                .filter_map(|o| o.calls[k].sample.as_ref())
                .flat_map(|(qs, answers)| qs.iter().zip(answers))
                .filter(|(q, a)| !oracle::same_answer(a, &oracle::answer(&mirror, q)))
                .count();
            if wrong > 0 {
                serve_failure = Some(format!("{wrong} answers differ from the mirror"));
            }
        }
        let missing: u64 = outs.iter().map(|o| o.calls[k].missing_deletes).sum();
        let update_failure = first(&|c| &c.update_error)
            .or_else(|| (missing > 0).then(|| format!("{missing} deletes matched nothing")));
        for failure in [serve_failure, update_failure].into_iter().flatten() {
            m.fail(format!("call {k}: {failure}"));
        }
        let step = spec.step(k);
        for (_, id) in &step.deletes {
            live.remove(id);
        }
        for (pt, id) in &step.inserts {
            live.insert(id.clone(), point(pt, id));
        }
    }
    checked
}
