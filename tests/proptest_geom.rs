//! Property-based tests over the geometry engine: serialization round
//! trips, rectangle algebra, and index-vs-brute-force equivalence.

use mpi_vector_io::geom::algo::{point_in_polygon, segments_intersect, PointLocation};
use mpi_vector_io::geom::index::{QuadTree, RTree};
use mpi_vector_io::geom::{wkb, wkt, Geometry, LineString, Point, Polygon, Rect};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    // Geographic-ish magnitudes, quantized to avoid pathological
    // shortest-representation blowups in WKT text.
    (-1_800_000i32..1_800_000).prop_map(|v| v as f64 / 10_000.0)
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

fn arb_linestring() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..20)
        .prop_filter_map("valid linestring", |pts| LineString::new(pts).ok())
}

fn arb_polygon() -> impl Strategy<Value = Polygon> {
    // Star-shaped construction guarantees validity for arbitrary inputs.
    (arb_point(), 3usize..24, 1u64..u64::MAX).prop_map(|(center, k, seed)| {
        let mut pts = Vec::with_capacity(k + 1);
        let mut s = seed;
        for i in 0..k {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = 0.1 + (s >> 33) as f64 / u32::MAX as f64 * 5.0;
            let a = i as f64 / k as f64 * std::f64::consts::TAU;
            pts.push(Point::new(center.x + r * a.cos(), center.y + r * a.sin()));
        }
        pts.push(pts[0]);
        Polygon::from_coords(pts, vec![]).expect("star polygon valid")
    })
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_linestring().prop_map(Geometry::LineString),
        arb_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 0..8)
            .prop_map(|v| Geometry::MultiPoint(mpi_vector_io::geom::MultiPoint(v))),
        proptest::collection::vec(arb_polygon(), 1..4)
            .prop_map(|v| Geometry::MultiPolygon(mpi_vector_io::geom::MultiPolygon(v))),
    ]
}

fn arb_polygon_holed() -> impl Strategy<Value = Polygon> {
    // Exterior star plus an interior ring scaled toward the center, so
    // the oracle covers multi-ring polygon bodies.
    (arb_point(), 4usize..12, 1u64..u64::MAX).prop_map(|(center, k, seed)| {
        let mut outer = Vec::with_capacity(k + 1);
        let mut s = seed;
        for i in 0..k {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = 1.0 + (s >> 33) as f64 / u32::MAX as f64 * 5.0;
            let a = i as f64 / k as f64 * std::f64::consts::TAU;
            outer.push(Point::new(center.x + r * a.cos(), center.y + r * a.sin()));
        }
        outer.push(outer[0]);
        let hole: Vec<Point> = outer
            .iter()
            .map(|p| {
                Point::new(
                    center.x + (p.x - center.x) * 0.25,
                    center.y + (p.y - center.y) * 0.25,
                )
            })
            .collect();
        Polygon::from_coords(outer, vec![hole]).expect("holed star polygon valid")
    })
}

/// Every WKB variant the codec knows: the five shapes above plus
/// multi-linestrings, holed polygons, and (possibly empty, possibly
/// nested) heterogeneous collections.
fn arb_geometry_full() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_geometry(),
        arb_polygon_holed().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_linestring(), 1..4)
            .prop_map(|v| Geometry::MultiLineString(mpi_vector_io::geom::MultiLineString(v))),
        proptest::collection::vec(arb_geometry(), 0..4).prop_map(|v| {
            Geometry::GeometryCollection(mpi_vector_io::geom::GeometryCollection(v))
        }),
    ]
}

proptest! {
    // Seed pinned so CI failures are reproducible; override with
    // PROPTEST_SEED to explore a different stream.
    #![proptest_config(ProptestConfig::with_cases(256).with_seed(0x6d76_696f_6765_6f6d))]

    #[test]
    fn wkt_round_trips_exactly(g in arb_geometry()) {
        let text = wkt::write(&g);
        let back = wkt::parse(&text).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn wkb_round_trips_exactly(g in arb_geometry()) {
        let bytes = wkb::encode(&g);
        let (back, used) = wkb::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, g);
    }

    #[test]
    fn wkb_never_panics_on_corruption(g in arb_geometry(), cut in 0usize..64, flip in 0usize..64) {
        let mut bytes = wkb::encode(&g);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= 0xA5;
        }
        // Must return Ok or Err, never panic or loop.
        let _ = wkb::decode(&bytes);
    }

    // ---- decode_ref ≡ decode oracle -------------------------------
    //
    // The zero-copy borrowed decoder must be observationally identical
    // to the owned decoder: same acceptance set, same rejection set
    // with the same diagnostics, and views that materialize, measure,
    // and bound exactly like the owned geometry.

    #[test]
    fn decode_ref_matches_decode(g in arb_geometry_full()) {
        let bytes = wkb::encode(&g);
        let (owned, used_o) = wkb::decode(&bytes).unwrap();
        let (view, used_r) = wkb::decode_ref(&bytes).unwrap();
        prop_assert_eq!(used_o, bytes.len());
        prop_assert_eq!(used_r, bytes.len());
        prop_assert_eq!(view.geometry_type(), owned.geometry_type());
        prop_assert_eq!(view.num_points(), owned.num_points());
        prop_assert_eq!(view.envelope(), owned.envelope());
        prop_assert_eq!(view.to_geometry(), owned.clone());
        prop_assert_eq!(owned, g);
    }

    #[test]
    fn decode_ref_truncation_parity_at_every_cut(g in arb_geometry_full()) {
        let bytes = wkb::encode(&g);
        for cut in 0..bytes.len() {
            let owned = wkb::decode(&bytes[..cut]);
            let view = wkb::decode_ref(&bytes[..cut]);
            match (owned, view) {
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (Ok((og, ou)), Ok((vg, vu))) => {
                    prop_assert_eq!(ou, vu);
                    prop_assert_eq!(og, vg.to_geometry());
                }
                (a, b) => prop_assert!(
                    false,
                    "cut {} disagreement: owned ok={} view ok={}",
                    cut,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    #[test]
    fn decode_ref_agrees_with_decode_on_corruption(
        g in arb_geometry_full(),
        cut in 0usize..64,
        flip in 0usize..64,
    ) {
        let mut bytes = wkb::encode(&g);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= 0xA5;
        }
        match (wkb::decode(&bytes), wkb::decode_ref(&bytes)) {
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (Ok((og, ou)), Ok((vg, vu))) => {
                prop_assert_eq!(ou, vu);
                prop_assert_eq!(og, vg.to_geometry());
            }
            (a, b) => prop_assert!(
                false,
                "corruption disagreement: owned ok={} view ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    #[test]
    fn decode_ref_walks_concatenated_streams(
        gs in proptest::collection::vec(arb_geometry_full(), 1..6),
    ) {
        let mut buf = Vec::new();
        for g in &gs {
            buf.extend_from_slice(&wkb::encode(g));
        }
        let mut pos = 0;
        for g in &gs {
            let (owned, used_o) = wkb::decode(&buf[pos..]).unwrap();
            let (view, used_r) = wkb::decode_ref(&buf[pos..]).unwrap();
            prop_assert_eq!(used_o, used_r);
            prop_assert_eq!(&view.to_geometry(), &owned);
            prop_assert_eq!(&owned, g);
            prop_assert_eq!(view.envelope(), g.envelope());
            prop_assert_eq!(view.num_points(), g.num_points());
            pos += used_o;
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn union_is_commutative_associative_and_covering(a in arb_rect(), b in arb_rect(), c in arb_rect()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        prop_assert_eq!(a.union(&Rect::EMPTY), a);
    }

    #[test]
    fn intersection_is_contained_and_symmetric(a in arb_rect(), b in arb_rect()) {
        let i = a.intersection(&b);
        prop_assert_eq!(i, b.intersection(&a));
        if !i.is_empty() {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b) || a.is_empty() || b.is_empty());
        }
    }

    #[test]
    fn envelope_contains_every_vertex(g in arb_geometry()) {
        let env = g.envelope();
        match &g {
            Geometry::LineString(l) => {
                for p in l.points() {
                    prop_assert!(env.contains_point(p));
                }
            }
            Geometry::Polygon(p) => {
                for q in p.exterior().points() {
                    prop_assert!(env.contains_point(q));
                }
            }
            Geometry::Point(p) => prop_assert!(env.contains_point(p)),
            _ => {}
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()) {
        prop_assert_eq!(
            segments_intersect(a, b, c, d),
            segments_intersect(c, d, a, b)
        );
        // A segment always intersects itself.
        prop_assert!(segments_intersect(a, b, a, b));
    }

    #[test]
    fn polygon_vertices_are_on_boundary(poly in arb_polygon()) {
        for &v in poly.exterior().points() {
            prop_assert_eq!(point_in_polygon(v, &poly), PointLocation::OnBoundary);
        }
    }

    #[test]
    fn polygon_centroid_of_star_is_inside(poly in arb_polygon()) {
        // The construction is star-shaped around its generation center,
        // whose nearest proxy is the envelope center — not guaranteed
        // inside for all stars, so test the weaker invariant: a point
        // reported Inside is also inside the envelope.
        let c = poly.envelope().center();
        if point_in_polygon(c, &poly) == PointLocation::Inside {
            prop_assert!(poly.envelope().contains_point(&c));
        }
    }

    #[test]
    fn rtree_matches_brute_force(
        items in proptest::collection::vec(arb_rect(), 1..150),
        probe in arb_rect(),
    ) {
        let keyed: Vec<(Rect, usize)> =
            items.iter().cloned().zip(0usize..).collect();
        let tree = RTree::bulk_load(keyed.clone());
        let mut expect: Vec<usize> = keyed
            .iter()
            .filter(|(r, _)| r.intersects(&probe))
            .map(|&(_, i)| i)
            .collect();
        let mut got: Vec<usize> = tree.query(&probe).into_iter().copied().collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_insert_matches_bulk_load_semantics(
        items in proptest::collection::vec(arb_rect(), 1..80),
        probe in arb_rect(),
    ) {
        let bulk = RTree::bulk_load(items.iter().cloned().zip(0usize..).collect());
        let mut inc = RTree::new();
        for (i, r) in items.iter().enumerate() {
            inc.insert(*r, i);
        }
        let mut a: Vec<usize> = bulk.query(&probe).into_iter().copied().collect();
        let mut b: Vec<usize> = inc.query(&probe).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn quadtree_matches_brute_force(
        items in proptest::collection::vec(arb_rect(), 1..100),
        probe in arb_rect(),
    ) {
        let bounds = items.iter().fold(Rect::EMPTY, |a, r| a.union(r));
        prop_assume!(!bounds.is_empty());
        let bounds = bounds.buffered(1.0);
        let mut qt = QuadTree::new(bounds);
        for (i, r) in items.iter().enumerate() {
            qt.insert(*r, i);
        }
        let mut expect: Vec<usize> = items
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&probe))
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = qt.query(&probe).into_iter().copied().collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn intersects_implies_envelope_overlap(a in arb_geometry(), b in arb_geometry()) {
        if mpi_vector_io::geom::algo::intersects(&a, &b) {
            prop_assert!(a.envelope().intersects(&b.envelope()));
        }
    }

    #[test]
    fn intersects_is_symmetric(a in arb_geometry(), b in arb_geometry()) {
        prop_assert_eq!(
            mpi_vector_io::geom::algo::intersects(&a, &b),
            mpi_vector_io::geom::algo::intersects(&b, &a)
        );
    }
}

/// Rects on a coarse lattice, so duplicates and distance ties are common;
/// about one in ten is `Rect::EMPTY`.
fn lattice_rect() -> impl Strategy<Value = Rect> {
    let corner = || (0i32..16, 0i32..16).prop_map(|(x, y)| Point::new(x as f64, y as f64));
    prop_oneof![
        1 => Just(Rect::EMPTY),
        9 => (corner(), corner()).prop_map(|(a, b)| Rect::from_corners(a, b)),
    ]
}

/// Query points on a half-step lattice reaching past the data on every
/// side.
fn lattice_probe_point() -> impl Strategy<Value = Point> {
    (-4i32..40, -4i32..40).prop_map(|(x, y)| Point::new(x as f64 * 0.5, y as f64 * 0.5))
}

/// Euclidean distance from `p` to the closed rect (`+∞` when empty).
fn rect_distance(p: &Point, r: &Rect) -> f64 {
    if r.is_empty() {
        return f64::INFINITY;
    }
    let dx = (r.min_x - p.x).max(p.x - r.max_x).max(0.0);
    let dy = (r.min_y - p.y).max(p.y - r.max_y).max(0.0);
    dx.hypot(dy)
}

/// Top-`k` `(distance bits, id)` pairs by a best-first walk. Distances
/// are non-negative, so their bit patterns order like the values.
fn knn_best_first(tree: &RTree<usize>, rects: &[Rect], at: &Point, k: usize) -> Vec<(u64, usize)> {
    let mut best = std::collections::BinaryHeap::new();
    tree.best_first(
        |r| rect_distance(at, r),
        |&id| {
            best.push((rect_distance(at, &rects[id]).to_bits(), id));
            if best.len() > k {
                best.pop();
            }
            match best.peek() {
                Some(&(d, _)) if best.len() == k => f64::from_bits(d),
                _ => f64::INFINITY,
            }
        },
    );
    best.into_sorted_vec()
}

/// One step of an insert/remove sequence: `(kind, rect, pick)`; kind 0
/// removes the `pick`-th live entry, kind 1 tries to remove an id that is
/// not stored, anything else inserts `rect`.
fn tree_op() -> impl Strategy<Value = (u8, Rect, usize)> {
    (0u8..5, lattice_rect(), 0usize..10_000)
}

proptest! {
    // Trees up to 2,000 entries span several levels; fewer cases keep
    // the run short.
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x6d76_696f_6b6e_6e21))]

    #[test]
    fn best_first_knn_matches_brute_force_bit_exactly(
        rects in proptest::collection::vec(lattice_rect(), 0..2000),
        at in lattice_probe_point(),
        k in 1usize..2100,
        bulk in any::<bool>(),
    ) {
        let tree = if bulk {
            RTree::bulk_load(rects.iter().cloned().zip(0usize..).collect())
        } else {
            let mut t = RTree::new();
            for (i, r) in rects.iter().enumerate() {
                t.insert(*r, i);
            }
            t
        };
        let mut expect: Vec<(u64, usize)> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| (rect_distance(&at, r).to_bits(), i))
            .collect();
        expect.sort_unstable();
        expect.truncate(k);
        prop_assert_eq!(knn_best_first(&tree, &rects, &at, k), expect);
    }

    #[test]
    fn rtree_insert_remove_matches_a_vec_model(
        initial in proptest::collection::vec(lattice_rect(), 0..600),
        ops in proptest::collection::vec(tree_op(), 0..1500),
        probes in proptest::collection::vec(lattice_rect(), 4),
    ) {
        let mut model: Vec<(Rect, usize)> = initial.iter().cloned().zip(0usize..).collect();
        let mut tree = RTree::bulk_load(model.clone());
        let mut next_id = model.len();
        for (kind, rect, pick) in ops {
            match kind {
                0 if !model.is_empty() => {
                    let (r, id) = model.swap_remove(pick % model.len());
                    prop_assert_eq!(tree.remove(&r, |&v| v == id), Some(id));
                }
                1 => {
                    prop_assert_eq!(tree.remove(&rect, |&v| v == usize::MAX), None);
                }
                _ => {
                    tree.insert(rect, next_id);
                    model.push((rect, next_id));
                    next_id += 1;
                }
            }
        }
        // Compare, then drain down to a handful of entries (so the MBRs
        // must shrink) and compare again.
        for keep in [usize::MAX, 3] {
            while model.len() > keep {
                let (r, id) = model.swap_remove(0);
                prop_assert_eq!(tree.remove(&r, |&v| v == id), Some(id));
            }
            prop_assert_eq!(tree.len(), model.len());
            prop_assert_eq!(tree.is_empty(), model.is_empty());
            prop_assert_eq!(tree.mbr(), model.iter().fold(Rect::EMPTY, |a, (r, _)| a.union(r)));
            for probe in probes.iter().chain([Rect::new(-1.0, -1.0, 20.0, 20.0)].iter()) {
                let mut expect: Vec<usize> = model
                    .iter()
                    .filter(|(r, _)| r.intersects(probe))
                    .map(|&(_, id)| id)
                    .collect();
                let mut got: Vec<usize> = tree.query(probe).into_iter().copied().collect();
                expect.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(tree.count(probe), expect.len());
                prop_assert_eq!(got, expect);
            }
        }
    }
}

/// The exact predicates as they stood before envelope-once refine, kept
/// verbatim as the reference: every segment pair, `b`'s envelope
/// recomputed per segment, orientation-first point-in-ring, and a cloned
/// `Geometry` per multi-geometry member.
mod reference {
    use mpi_vector_io::geom::algo::{orientation, segments_intersect, Orientation, PointLocation};
    use mpi_vector_io::geom::polygon::Ring;
    use mpi_vector_io::geom::{Geometry, LineString, Point, Polygon, Rect};

    pub fn point_in_ring(q: Point, ring: &Ring) -> PointLocation {
        let pts = ring.points();
        let mut inside = false;
        for w in pts.windows(2) {
            let (a, b) = (w[0], w[1]);

            // Boundary: q collinear with the edge and within its box.
            if orientation(a, b, q) == Orientation::Collinear
                && q.x >= a.x.min(b.x)
                && q.x <= a.x.max(b.x)
                && q.y >= a.y.min(b.y)
                && q.y <= a.y.max(b.y)
            {
                return PointLocation::OnBoundary;
            }

            // Crossing test: does the horizontal ray from q to +inf cross edge
            // (a, b)? The half-open test (one endpoint strictly above, the other
            // at-or-below) counts vertex crossings exactly once.
            let crosses = (a.y > q.y) != (b.y > q.y);
            if crosses {
                let x_at = a.x + (q.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if q.x < x_at {
                    inside = !inside;
                }
            }
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }

    pub fn point_in_polygon(q: Point, poly: &Polygon) -> PointLocation {
        // Envelope rejection: the common case for filter survivors.
        if !poly.envelope().contains_point(&q) {
            return PointLocation::Outside;
        }
        match point_in_ring(q, poly.exterior()) {
            PointLocation::Outside => PointLocation::Outside,
            PointLocation::OnBoundary => PointLocation::OnBoundary,
            PointLocation::Inside => {
                for hole in poly.interiors() {
                    match point_in_ring(q, hole) {
                        PointLocation::Inside => return PointLocation::Outside,
                        PointLocation::OnBoundary => return PointLocation::OnBoundary,
                        PointLocation::Outside => {}
                    }
                }
                PointLocation::Inside
            }
        }
    }

    pub fn point_in_geometry(p: Point, g: &Geometry) -> bool {
        match g {
            Geometry::Point(q) => p == *q,
            Geometry::LineString(l) => point_on_linestring(p, l),
            Geometry::Polygon(poly) => point_in_polygon(p, poly) != PointLocation::Outside,
            Geometry::MultiPoint(m) => m.0.contains(&p),
            Geometry::MultiLineString(m) => m.0.iter().any(|l| point_on_linestring(p, l)),
            Geometry::MultiPolygon(m) => {
                m.0.iter()
                    .any(|poly| point_in_polygon(p, poly) != PointLocation::Outside)
            }
            Geometry::GeometryCollection(c) => c.0.iter().any(|g| point_in_geometry(p, g)),
        }
    }

    fn point_on_linestring(p: Point, l: &LineString) -> bool {
        l.segments().any(|(a, b)| segments_intersect(a, b, p, p))
    }

    pub fn line_intersects_line(a: &LineString, b: &LineString) -> bool {
        if !a.envelope().intersects(&b.envelope()) {
            return false;
        }
        for (p1, p2) in a.segments() {
            let seg_env = Rect::from_corners(p1, p2);
            if !seg_env.intersects(&b.envelope()) {
                continue;
            }
            for (q1, q2) in b.segments() {
                if segments_intersect(p1, p2, q1, q2) {
                    return true;
                }
            }
        }
        false
    }

    pub fn line_intersects_polygon(l: &LineString, poly: &Polygon) -> bool {
        if !l.envelope().intersects(&poly.envelope()) {
            return false;
        }
        // Any boundary crossing?
        for (p1, p2) in l.segments() {
            for (q1, q2) in poly.all_segments() {
                if segments_intersect(p1, p2, q1, q2) {
                    return true;
                }
            }
        }
        // No crossing: the line is wholly inside or wholly outside; one vertex
        // decides.
        point_in_polygon(l.points()[0], poly) != PointLocation::Outside
    }

    pub fn polygon_intersects_polygon(a: &Polygon, b: &Polygon) -> bool {
        if !a.envelope().intersects(&b.envelope()) {
            return false;
        }
        for (p1, p2) in a.all_segments() {
            let seg_env = Rect::from_corners(p1, p2);
            if !seg_env.intersects(&b.envelope()) {
                continue;
            }
            for (q1, q2) in b.all_segments() {
                if segments_intersect(p1, p2, q1, q2) {
                    return true;
                }
            }
        }
        // No boundary crossing: either disjoint or one contains the other.
        point_in_polygon(a.exterior().points()[0], b) != PointLocation::Outside
            || point_in_polygon(b.exterior().points()[0], a) != PointLocation::Outside
    }

    pub fn rect_intersects_geometry(r: &Rect, g: &Geometry) -> bool {
        if !r.intersects(&g.envelope()) {
            return false;
        }
        let rect_poly = rect_to_polygon(r);
        match g {
            Geometry::Point(p) => r.contains_point(p),
            Geometry::LineString(l) => line_intersects_polygon(l, &rect_poly),
            Geometry::Polygon(p) => polygon_intersects_polygon(p, &rect_poly),
            Geometry::MultiPoint(m) => m.0.iter().any(|p| r.contains_point(p)),
            Geometry::MultiLineString(m) => {
                m.0.iter().any(|l| line_intersects_polygon(l, &rect_poly))
            }
            Geometry::MultiPolygon(m) => {
                m.0.iter()
                    .any(|p| polygon_intersects_polygon(p, &rect_poly))
            }
            Geometry::GeometryCollection(c) => c.0.iter().any(|g| rect_intersects_geometry(r, g)),
        }
    }

    fn rect_to_polygon(r: &Rect) -> Polygon {
        Polygon::from_coords(
            vec![
                Point::new(r.min_x, r.min_y),
                Point::new(r.max_x, r.min_y),
                Point::new(r.max_x, r.max_y),
                Point::new(r.min_x, r.max_y),
                Point::new(r.min_x, r.min_y),
            ],
            vec![],
        )
        .expect("rect corners always form a valid ring")
    }

    pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
        // MBR filter first — mirrors the library's own filter-refine discipline
        // and keeps the worst case cheap.
        if !a.envelope().intersects(&b.envelope()) {
            return false;
        }
        use Geometry as G;
        match (a, b) {
            (G::Point(p), _) => point_in_geometry(*p, b),
            (_, G::Point(p)) => point_in_geometry(*p, a),
            (G::MultiPoint(m), _) => m.0.iter().any(|p| point_in_geometry(*p, b)),
            (_, G::MultiPoint(m)) => m.0.iter().any(|p| point_in_geometry(*p, a)),
            (G::GeometryCollection(c), _) => c.0.iter().any(|g| intersects(g, b)),
            (_, G::GeometryCollection(c)) => c.0.iter().any(|g| intersects(g, a)),
            (G::MultiLineString(m), _) => {
                m.0.iter().any(|l| intersects(&G::LineString(l.clone()), b))
            }
            (_, G::MultiLineString(m)) => {
                m.0.iter().any(|l| intersects(&G::LineString(l.clone()), a))
            }
            (G::MultiPolygon(m), _) => m.0.iter().any(|p| intersects(&G::Polygon(p.clone()), b)),
            (_, G::MultiPolygon(m)) => m.0.iter().any(|p| intersects(&G::Polygon(p.clone()), a)),
            (G::LineString(l1), G::LineString(l2)) => line_intersects_line(l1, l2),
            (G::LineString(l), G::Polygon(p)) => line_intersects_polygon(l, p),
            (G::Polygon(p), G::LineString(l)) => line_intersects_polygon(l, p),
            (G::Polygon(p1), G::Polygon(p2)) => polygon_intersects_polygon(p1, p2),
        }
    }
}

/// A point on a coarse integer lattice: shared vertices, collinear
/// overlapping edges and vertices exactly on edges are all common.
fn lattice_vertex() -> impl Strategy<Value = Point> {
    (0i32..9, 0i32..9).prop_map(|(x, y)| Point::new(x as f64, y as f64))
}

/// A closed lattice ring: an axis-aligned box (collinear edges with its
/// neighbours) or 3–6 arbitrary lattice vertices, which may self-touch
/// or self-cross — the refine kernels must agree on any input.
fn lattice_ring() -> impl Strategy<Value = Vec<Point>> {
    prop_oneof![
        (lattice_vertex(), lattice_vertex()).prop_map(|(a, b)| {
            let r = Rect::from_corners(a, b);
            vec![
                Point::new(r.min_x, r.min_y),
                Point::new(r.max_x, r.min_y),
                Point::new(r.max_x, r.max_y),
                Point::new(r.min_x, r.max_y),
                Point::new(r.min_x, r.min_y),
            ]
        }),
        proptest::collection::vec(lattice_vertex(), 3..7).prop_map(|mut pts| {
            pts.push(pts[0]);
            pts
        }),
    ]
}

/// A lattice polygon with 0–2 holes placed anywhere on the lattice, so a
/// hole may lie inside, across, or wholly outside its shell.
fn lattice_polygon() -> impl Strategy<Value = Polygon> {
    (
        lattice_ring(),
        proptest::collection::vec(lattice_ring(), 0..3),
    )
        .prop_map(|(shell, holes)| {
            Polygon::from_coords(shell, holes).expect("closed lattice rings have 4+ points")
        })
}

fn lattice_line() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(lattice_vertex(), 2..6)
        .prop_map(|pts| LineString::new(pts).expect("2+ vertices form a line"))
}

fn lattice_member() -> impl Strategy<Value = Geometry> {
    use mpi_vector_io::geom::{MultiLineString, MultiPoint, MultiPolygon};
    prop_oneof![
        lattice_vertex().prop_map(Geometry::Point),
        proptest::collection::vec(lattice_vertex(), 1..4)
            .prop_map(|v| Geometry::MultiPoint(MultiPoint(v))),
        lattice_line().prop_map(Geometry::LineString),
        lattice_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(lattice_line(), 1..4)
            .prop_map(|v| Geometry::MultiLineString(MultiLineString(v))),
        proptest::collection::vec(lattice_polygon(), 1..4)
            .prop_map(|v| Geometry::MultiPolygon(MultiPolygon(v))),
    ]
}

fn lattice_geometry() -> impl Strategy<Value = Geometry> {
    use mpi_vector_io::geom::GeometryCollection;
    prop_oneof![
        6 => lattice_member(),
        1 => proptest::collection::vec(lattice_member(), 1..3)
            .prop_map(|v| Geometry::GeometryCollection(GeometryCollection(v))),
    ]
}

/// The MBR the zero-copy join computes for `g`: `envelope_batch` over the
/// borrowed WKB view.
fn wire_mbr(g: &Geometry) -> Rect {
    let bytes = wkb::encode(g);
    let view = wkb::decode_ref(&bytes).unwrap().0;
    let mut out = Vec::new();
    mpi_vector_io::geom::refkernel::envelope_batch(&[view], &mut out);
    out[0]
}

proptest! {
    // ---- envelope-once refine ≡ the reference algorithm -------------
    #![proptest_config(ProptestConfig::with_cases(1024).with_seed(0x6d76_696f_7265_666e))]

    #[test]
    fn intersects_matches_reference(a in lattice_geometry(), b in lattice_geometry()) {
        use mpi_vector_io::geom::algo::{intersects, intersects_enveloped};
        let expect = reference::intersects(&a, &b);
        prop_assert_eq!(intersects(&a, &b), expect);
        let (a_env, b_env) = (a.envelope(), b.envelope());
        prop_assert_eq!(intersects_enveloped(&a, &a_env, &b, &b_env), expect);
        let (a_wire, b_wire) = (wire_mbr(&a), wire_mbr(&b));
        prop_assert_eq!(a_wire, a_env);
        prop_assert_eq!(b_wire, b_env);
        prop_assert_eq!(intersects_enveloped(&a, &a_wire, &b, &b_wire), expect);
    }

    #[test]
    fn pairwise_kernels_match_reference(
        l1 in lattice_line(),
        l2 in lattice_line(),
        p1 in lattice_polygon(),
        p2 in lattice_polygon(),
        cell in (lattice_vertex(), lattice_vertex()),
    ) {
        use mpi_vector_io::geom::algo as new;
        prop_assert_eq!(new::line_intersects_line(&l1, &l2), reference::line_intersects_line(&l1, &l2));
        for l in [&l1, &l2] {
            for p in [&p1, &p2] {
                prop_assert_eq!(
                    new::line_intersects_polygon(l, p),
                    reference::line_intersects_polygon(l, p)
                );
            }
        }
        prop_assert_eq!(
            new::polygon_intersects_polygon(&p1, &p2),
            reference::polygon_intersects_polygon(&p1, &p2)
        );
        prop_assert_eq!(
            new::polygon_intersects_polygon(&p2, &p1),
            reference::polygon_intersects_polygon(&p2, &p1)
        );
        let r = Rect::from_corners(cell.0, cell.1);
        for g in [Geometry::LineString(l1), Geometry::Polygon(p1)] {
            prop_assert_eq!(
                new::rect_intersects_geometry(&r, &g),
                reference::rect_intersects_geometry(&r, &g)
            );
        }
    }

    #[test]
    fn point_location_matches_reference(
        poly in lattice_polygon(),
        q in (-1i32..19, -1i32..19).prop_map(|(x, y)| Point::new(x as f64 * 0.5, y as f64 * 0.5)),
    ) {
        use mpi_vector_io::geom::algo::point_in_ring;
        for ring in std::iter::once(poly.exterior()).chain(poly.interiors()) {
            prop_assert_eq!(point_in_ring(q, ring), reference::point_in_ring(q, ring));
        }
        prop_assert_eq!(point_in_polygon(q, &poly), reference::point_in_polygon(q, &poly));
    }
}
