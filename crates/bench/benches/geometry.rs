//! Criterion micro-benchmarks of the geometry engine: the real-CPU hot
//! paths behind Table 3's parsing and the join's refine phase.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mvio_datagen::{ShapeGen, SpatialDistribution};
use mvio_geom::index::RTree;
use mvio_geom::{algo, wkb, wkt, Geometry, Rect};

fn sample_polygons(n: usize) -> Vec<Geometry> {
    let mut sampler = SpatialDistribution::Uniform.sampler(Rect::new(0.0, 0.0, 100.0, 100.0), 42);
    let gen = ShapeGen::lake_polygons();
    (0..n)
        .map(|_| Geometry::Polygon(gen.polygon(&mut sampler)))
        .collect()
}

fn bench_wkt(c: &mut Criterion) {
    let geoms = sample_polygons(200);
    let text: String = geoms
        .iter()
        .map(|g| {
            let mut s = wkt::write(g);
            s.push('\n');
            s
        })
        .collect();
    let bytes = text.len() as u64;

    let mut group = c.benchmark_group("wkt");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("parse_polygons", |b| {
        b.iter(|| {
            let parsed = wkt::parse_many(black_box(&text)).unwrap();
            black_box(parsed.len())
        })
    });
    group.bench_function("write_polygons", |b| {
        b.iter(|| {
            let mut out = String::with_capacity(text.len());
            for g in &geoms {
                wkt::write_to(black_box(g), &mut out);
                out.push('\n');
            }
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_wkb(c: &mut Criterion) {
    let geoms = sample_polygons(200);
    let encoded: Vec<Vec<u8>> = geoms.iter().map(wkb::encode).collect();
    let bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();

    let mut group = c.benchmark_group("wkb");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut total = 0;
            for g in &geoms {
                total += wkb::encode(black_box(g)).len();
            }
            black_box(total)
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let mut total = 0;
            for e in &encoded {
                total += wkb::decode(black_box(e)).unwrap().0.num_points();
            }
            black_box(total)
        })
    });
    group.finish();
}

/// Lakes × Cemetery shaped like the join's refine input: heavy-tailed
/// lake polygons and small footprints, all centred within a few
/// footprint radii of each other so that every pair survives the MBR
/// filter and reaches the exact test.
fn join_candidates() -> (Vec<Geometry>, Vec<Geometry>, Vec<(usize, usize)>) {
    let lake_gen = ShapeGen::lake_polygons();
    let mut lake_at = SpatialDistribution::Uniform.sampler(Rect::new(0.0, 0.0, 0.01, 0.01), 7);
    let lakes: Vec<Geometry> = (0..96)
        .map(|_| Geometry::Polygon(lake_gen.polygon(&mut lake_at)))
        .collect();
    // The fixed seed draws heavy-tail lakes; the case is meant to include
    // them.
    assert!(lakes
        .iter()
        .any(|g| g.num_points() > 2 * lake_gen.base_vertices));
    let small_gen = ShapeGen::small_polygons();
    let mut small_at =
        SpatialDistribution::Uniform.sampler(Rect::new(-0.03, -0.03, 0.04, 0.04), 11);
    let cemeteries: Vec<Geometry> = (0..96)
        .map(|_| Geometry::Polygon(small_gen.polygon(&mut small_at)))
        .collect();
    let pairs: Vec<(usize, usize)> = (0..lakes.len())
        .flat_map(|li| (0..cemeteries.len()).map(move |ci| (li, ci)))
        .filter(|&(li, ci)| lakes[li].envelope().intersects(&cemeteries[ci].envelope()))
        .collect();
    // The placement makes every pair an MBR candidate.
    assert_eq!(pairs.len(), lakes.len() * cemeteries.len());
    (lakes, cemeteries, pairs)
}

fn bench_refine(c: &mut Criterion) {
    let geoms = sample_polygons(64);
    let mut group = c.benchmark_group("refine");
    group.bench_function("intersects_all_pairs", |b| {
        b.iter(|| {
            let mut hits = 0;
            for a in &geoms {
                for bb in &geoms {
                    if algo::intersects(black_box(a), black_box(bb)) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    // Per-iteration time over `pairs.len()` gives ns per refine test.
    let (lakes, cemeteries, pairs) = join_candidates();
    group.throughput(Throughput::Elements(pairs.len() as u64));
    group.bench_function("lakes_x_cemetery_candidates", |b| {
        b.iter(|| {
            let mut hits = 0;
            for &(li, ci) in &pairs {
                if algo::intersects(black_box(&lakes[li]), black_box(&cemeteries[ci])) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_rtree(c: &mut Criterion) {
    let items: Vec<(Rect, usize)> = sample_polygons(2000)
        .iter()
        .enumerate()
        .map(|(i, g)| (g.envelope(), i))
        .collect();
    let tree = RTree::bulk_load(items.clone());
    let probes: Vec<Rect> = items
        .iter()
        .map(|(r, _)| r.buffered(0.5))
        .take(256)
        .collect();

    let mut group = c.benchmark_group("rtree");
    group.bench_function("bulk_load_2000", |b| {
        b.iter(|| black_box(RTree::bulk_load(black_box(items.clone())).len()))
    });
    group.bench_function("query_256_probes", |b| {
        b.iter(|| {
            let mut n = 0;
            for p in &probes {
                n += tree.count(black_box(p));
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wkt, bench_wkb, bench_refine, bench_rtree);
criterion_main!(benches);
