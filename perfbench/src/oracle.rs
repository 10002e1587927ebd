//! Serial reference answers. They run outside every timed metric and
//! share no code path with the distributed program beyond the geometry
//! predicates: a plain R-tree over envelopes plus `geom::algo` for the
//! join, and a full scan for queries.

use mvio_core::reader::{GeometryParser, WktLineParser};
use mvio_core::Feature;
use mvio_geom::algo::{intersects, point_geometry_distance, rect_intersects_geometry};
use mvio_geom::index::rtree::RTree;
use mvio_sjoin::{Query, QueryAnswer};

/// Parses every line of a WKT dataset on one thread.
pub fn parse_all(bytes: &[u8]) -> Vec<Feature> {
    let text = std::str::from_utf8(bytes).expect("generated WKT is UTF-8");
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| WktLineParser.parse(l).expect("generated WKT parses"))
        .collect()
}

/// Every intersecting `(left userdata, right userdata)` pair, sorted.
pub fn join_pairs(left: &[Feature], right: &[Feature]) -> Vec<(String, String)> {
    let tree = RTree::bulk_load(
        right
            .iter()
            .enumerate()
            .map(|(i, f)| (f.geometry.envelope(), i))
            .collect(),
    );
    let mut pairs = Vec::new();
    for l in left {
        let mut hits: Vec<usize> = tree
            .query(&l.geometry.envelope())
            .into_iter()
            .copied()
            .collect();
        hits.sort_unstable();
        for i in hits {
            if intersects(&l.geometry, &right[i].geometry) {
                pairs.push((l.userdata.clone(), right[i].userdata.clone()));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// The answer to `q` by a full scan of `features`: intersection per
/// feature for range and point queries; for kNN the `k` smallest
/// `(distance, userdata)`.
pub fn answer(features: &[Feature], q: &Query) -> QueryAnswer {
    match *q {
        Query::Range(r) => {
            let mut m: Vec<String> = features
                .iter()
                .filter(|f| rect_intersects_geometry(&r, &f.geometry))
                .map(|f| f.userdata.clone())
                .collect();
            m.sort_unstable();
            QueryAnswer::Matches(m)
        }
        Query::Point(p) => answer(features, &Query::Range(p.envelope())),
        Query::Knn { at, k } => {
            let mut d: Vec<(f64, &str)> = features
                .iter()
                .map(|f| {
                    (
                        point_geometry_distance(&at, &f.geometry),
                        f.userdata.as_str(),
                    )
                })
                .collect();
            d.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
            d.truncate(k as usize);
            QueryAnswer::Neighbors(
                d.into_iter()
                    .map(|(distance, u)| mvio_sjoin::Neighbor {
                        distance,
                        userdata: u.to_string(),
                    })
                    .collect(),
            )
        }
    }
}

/// Whether the engine's answer equals the oracle's: identical match
/// lists; identical neighbour lists with distances equal to 1e-9.
pub fn same_answer(got: &QueryAnswer, want: &QueryAnswer) -> bool {
    match (got, want) {
        (QueryAnswer::Matches(a), QueryAnswer::Matches(b)) => a == b,
        (QueryAnswer::Neighbors(a), QueryAnswer::Neighbors(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.userdata == y.userdata
                        && (x.distance - y.distance).abs() <= 1e-9 * y.distance.abs().max(1.0)
                })
        }
        _ => false,
    }
}
