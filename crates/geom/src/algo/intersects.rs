//! The OGC `intersects` predicate — the refine-phase test of the paper's
//! spatial join ("returns true iff the geometries share any portion of
//! space").
//!
//! Envelope once: [`intersects_enveloped`] takes each operand's envelope
//! from the caller and every kernel below reuses it, so one test folds
//! over each operand's vertices for its MBR at most once (the join passes
//! the MBRs its filter already computed and folds none). Multi-geometry
//! members are dispatched by reference, never cloned.

use super::pip::{point_in_polygon, point_in_polygon_enveloped, PointLocation};
use super::segint::segments_intersect;
use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;

/// A borrowed [`Geometry`], so that the dispatch below can recurse into
/// multi-geometry members without building an owned `Geometry` per member.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Point(Point),
    LineString(&'a LineString),
    Polygon(&'a Polygon),
    MultiPoint(&'a [Point]),
    MultiLineString(&'a [LineString]),
    MultiPolygon(&'a [Polygon]),
    Collection(&'a [Geometry]),
}

impl<'a> From<&'a Geometry> for Operand<'a> {
    fn from(g: &'a Geometry) -> Self {
        match g {
            Geometry::Point(p) => Operand::Point(*p),
            Geometry::LineString(l) => Operand::LineString(l),
            Geometry::Polygon(p) => Operand::Polygon(p),
            Geometry::MultiPoint(m) => Operand::MultiPoint(&m.0),
            Geometry::MultiLineString(m) => Operand::MultiLineString(&m.0),
            Geometry::MultiPolygon(m) => Operand::MultiPolygon(&m.0),
            Geometry::GeometryCollection(c) => Operand::Collection(&c.0),
        }
    }
}

/// `true` if the point lies on/in the geometry.
pub fn point_in_geometry(p: Point, g: &Geometry) -> bool {
    point_in_operand(p, g.into(), &g.envelope())
}

/// [`point_in_geometry`] over a borrowed operand whose envelope is `g_env`.
fn point_in_operand(p: Point, g: Operand<'_>, g_env: &Rect) -> bool {
    match g {
        Operand::Point(q) => p == q,
        Operand::LineString(l) => point_on_linestring(p, l),
        Operand::Polygon(poly) => {
            point_in_polygon_enveloped(p, poly, g_env) != PointLocation::Outside
        }
        Operand::MultiPoint(m) => m.contains(&p),
        Operand::MultiLineString(m) => m.iter().any(|l| point_on_linestring(p, l)),
        Operand::MultiPolygon(m) => m
            .iter()
            .any(|poly| point_in_polygon(p, poly) != PointLocation::Outside),
        Operand::Collection(c) => c.iter().any(|g| point_in_geometry(p, g)),
    }
}

fn point_on_linestring(p: Point, l: &LineString) -> bool {
    l.segments().any(|(a, b)| segments_intersect(a, b, p, p))
}

/// `true` if any segment of `a` intersects any segment of `b`.
pub fn line_intersects_line(a: &LineString, b: &LineString) -> bool {
    line_line(a, &a.envelope(), b, &b.envelope())
}

fn line_line(a: &LineString, a_env: &Rect, b: &LineString, b_env: &Rect) -> bool {
    if !a_env.intersects(b_env) {
        return false;
    }
    for (p1, p2) in a.segments() {
        let seg_env = Rect::from_corners(p1, p2);
        if !seg_env.intersects(b_env) {
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

/// `true` if the line touches/crosses the polygon boundary or lies inside.
pub fn line_intersects_polygon(l: &LineString, poly: &Polygon) -> bool {
    line_polygon(l, &l.envelope(), poly, &poly.envelope())
}

fn line_polygon(l: &LineString, l_env: &Rect, poly: &Polygon, poly_env: &Rect) -> bool {
    if !l_env.intersects(poly_env) {
        return false;
    }
    // Any boundary crossing? No per-segment envelope prune here: a hole
    // outside its shell lies outside `poly_env`, and its edges still count.
    for (p1, p2) in l.segments() {
        for (q1, q2) in poly.all_segments() {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    // No crossing: the line is wholly inside or wholly outside; one vertex
    // decides.
    point_in_polygon_enveloped(l.points()[0], poly, poly_env) != PointLocation::Outside
}

/// `true` if two polygons share any portion of space: boundary crossing or
/// full containment of one in the other.
pub fn polygon_intersects_polygon(a: &Polygon, b: &Polygon) -> bool {
    polygon_polygon(a, &a.envelope(), b, &b.envelope())
}

fn polygon_polygon(a: &Polygon, a_env: &Rect, b: &Polygon, b_env: &Rect) -> bool {
    if !a_env.intersects(b_env) {
        return false;
    }
    for (p1, p2) in a.all_segments() {
        let seg_env = Rect::from_corners(p1, p2);
        if !seg_env.intersects(b_env) {
            continue;
        }
        for (q1, q2) in b.all_segments() {
            if segments_intersect(p1, p2, q1, q2) {
                return true;
            }
        }
    }
    // No boundary crossing: either disjoint or one contains the other.
    point_in_polygon_enveloped(a.exterior().points()[0], b, b_env) != PointLocation::Outside
        || point_in_polygon_enveloped(b.exterior().points()[0], a, a_env) != PointLocation::Outside
}

/// `true` if the rectangle intersects the geometry exactly (not just its
/// envelope) — used by grid-cell population when precise cell membership is
/// requested.
pub fn rect_intersects_geometry(r: &Rect, g: &Geometry) -> bool {
    let g_env = g.envelope();
    if !r.intersects(&g_env) {
        return false;
    }
    // `r` is non-empty here, so it is exactly the envelope of its polygon.
    let rect_poly = rect_to_polygon(r);
    match g {
        Geometry::Point(p) => r.contains_point(p),
        Geometry::LineString(l) => line_polygon(l, &g_env, &rect_poly, r),
        Geometry::Polygon(p) => polygon_polygon(p, &g_env, &rect_poly, r),
        Geometry::MultiPoint(m) => m.0.iter().any(|p| r.contains_point(p)),
        Geometry::MultiLineString(m) => {
            m.0.iter()
                .any(|l| line_polygon(l, &l.envelope(), &rect_poly, r))
        }
        Geometry::MultiPolygon(m) => {
            m.0.iter()
                .any(|p| polygon_polygon(p, &p.envelope(), &rect_poly, r))
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
    // audit: four rectangle corners always form a valid closed ring.
    .expect("rect corners always form a valid ring")
}

/// The symmetric `intersects` predicate over any pair of geometries.
///
/// Dispatches on both shape classes; multi-geometries distribute over their
/// members. This is the exact test invoked by the refine phase of the
/// spatial join exemplar. Equivalent to [`intersects_enveloped`] with
/// `a.envelope()` and `b.envelope()`.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    intersects_enveloped(a, &a.envelope(), b, &b.envelope())
}

/// [`intersects`] with each operand's envelope supplied by the caller.
///
/// Contract: `a_env == a.envelope()` and `b_env == b.envelope()`. The
/// kernels reuse these for the MBR rejection, the per-segment prune and
/// the containment fallback instead of refolding the vertices; a refine
/// loop that already holds its filter's MBRs (for example from
/// [`crate::refkernel::envelope_batch`]) passes them here and computes no
/// envelope at all. Any other rectangle can change the answer.
pub fn intersects_enveloped(a: &Geometry, a_env: &Rect, b: &Geometry, b_env: &Rect) -> bool {
    operands_intersect(a.into(), a_env, b.into(), b_env)
}

fn operands_intersect(a: Operand<'_>, a_env: &Rect, b: Operand<'_>, b_env: &Rect) -> bool {
    // MBR filter first — mirrors the library's own filter-refine discipline
    // and keeps the worst case cheap.
    if !a_env.intersects(b_env) {
        return false;
    }
    use Operand as O;
    match (a, b) {
        (O::Point(p), _) => point_in_operand(p, b, b_env),
        (_, O::Point(p)) => point_in_operand(p, a, a_env),
        (O::MultiPoint(m), _) => m.iter().any(|&p| point_in_operand(p, b, b_env)),
        (_, O::MultiPoint(m)) => m.iter().any(|&p| point_in_operand(p, a, a_env)),
        (O::Collection(c), _) => c
            .iter()
            .any(|g| operands_intersect(g.into(), &g.envelope(), b, b_env)),
        (_, O::Collection(c)) => c
            .iter()
            .any(|g| operands_intersect(g.into(), &g.envelope(), a, a_env)),
        (O::MultiLineString(m), _) => m
            .iter()
            .any(|l| operands_intersect(O::LineString(l), &l.envelope(), b, b_env)),
        (_, O::MultiLineString(m)) => m
            .iter()
            .any(|l| operands_intersect(O::LineString(l), &l.envelope(), a, a_env)),
        (O::MultiPolygon(m), _) => m
            .iter()
            .any(|p| operands_intersect(O::Polygon(p), &p.envelope(), b, b_env)),
        (_, O::MultiPolygon(m)) => m
            .iter()
            .any(|p| operands_intersect(O::Polygon(p), &p.envelope(), a, a_env)),
        (O::LineString(l1), O::LineString(l2)) => line_line(l1, a_env, l2, b_env),
        (O::LineString(l), O::Polygon(p)) => line_polygon(l, a_env, p, b_env),
        (O::Polygon(p), O::LineString(l)) => line_polygon(l, b_env, p, a_env),
        (O::Polygon(p1), O::Polygon(p2)) => polygon_polygon(p1, a_env, p2, b_env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{MultiPoint, MultiPolygon};

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::from_coords(
            pts(&[
                (x0, y0),
                (x0 + side, y0),
                (x0 + side, y0 + side),
                (x0, y0 + side),
                (x0, y0),
            ]),
            vec![],
        )
        .unwrap()
    }

    fn line(coords: &[(f64, f64)]) -> LineString {
        LineString::new(pts(coords)).unwrap()
    }

    #[test]
    fn overlapping_squares_intersect() {
        let a: Geometry = square(0.0, 0.0, 2.0).into();
        let b: Geometry = square(1.0, 1.0, 2.0).into();
        assert!(intersects(&a, &b));
        assert!(intersects(&b, &a));
    }

    #[test]
    fn disjoint_squares_do_not_intersect() {
        let a: Geometry = square(0.0, 0.0, 1.0).into();
        let b: Geometry = square(5.0, 5.0, 1.0).into();
        assert!(!intersects(&a, &b));
    }

    #[test]
    fn nested_squares_intersect_despite_no_boundary_crossing() {
        let outer: Geometry = square(0.0, 0.0, 10.0).into();
        let inner: Geometry = square(4.0, 4.0, 1.0).into();
        assert!(intersects(&outer, &inner));
        assert!(intersects(&inner, &outer));
    }

    #[test]
    fn envelope_overlap_is_not_sufficient() {
        // Two L-shaped-adjacent squares whose MBRs overlap but whose actual
        // shapes do not: a thin diagonal strip vs a far corner square.
        let diag: Geometry = Geometry::LineString(line(&[(0.0, 0.0), (10.0, 10.0)]));
        let corner: Geometry = square(8.0, 0.0, 1.0).into();
        // Envelopes overlap:
        assert!(diag.envelope().intersects(&corner.envelope()));
        // But the refine test rejects:
        assert!(!intersects(&diag, &corner));
    }

    #[test]
    fn line_crossing_polygon() {
        let sq: Geometry = square(0.0, 0.0, 2.0).into();
        let crossing: Geometry = Geometry::LineString(line(&[(-1.0, 1.0), (3.0, 1.0)]));
        assert!(intersects(&sq, &crossing));
        let inside: Geometry = Geometry::LineString(line(&[(0.5, 0.5), (1.5, 1.5)]));
        assert!(intersects(&sq, &inside));
        let outside: Geometry = Geometry::LineString(line(&[(5.0, 5.0), (6.0, 6.0)]));
        assert!(!intersects(&sq, &outside));
    }

    #[test]
    fn point_predicates() {
        let sq: Geometry = square(0.0, 0.0, 2.0).into();
        assert!(intersects(&Geometry::Point(Point::new(1.0, 1.0)), &sq));
        assert!(intersects(&Geometry::Point(Point::new(0.0, 0.0)), &sq)); // boundary
        assert!(!intersects(&Geometry::Point(Point::new(9.0, 9.0)), &sq));
        let l = Geometry::LineString(line(&[(0.0, 0.0), (2.0, 2.0)]));
        assert!(intersects(&Geometry::Point(Point::new(1.0, 1.0)), &l));
        assert!(!intersects(&Geometry::Point(Point::new(1.0, 1.1)), &l));
    }

    #[test]
    fn multi_geometries_distribute() {
        let mp = Geometry::MultiPoint(MultiPoint(vec![
            Point::new(50.0, 50.0),
            Point::new(0.5, 0.5),
        ]));
        let sq: Geometry = square(0.0, 0.0, 1.0).into();
        assert!(intersects(&mp, &sq));

        let mpoly = Geometry::MultiPolygon(MultiPolygon(vec![
            square(100.0, 100.0, 1.0),
            square(0.0, 0.0, 1.0),
        ]));
        let target: Geometry = square(0.5, 0.5, 3.0).into();
        assert!(intersects(&mpoly, &target));
    }

    #[test]
    fn rect_intersects_geometry_is_exact() {
        // A diagonal line whose envelope covers the cell but which misses it.
        let l = Geometry::LineString(line(&[(0.0, 0.0), (10.0, 10.0)]));
        let cell_hit = Rect::new(4.0, 4.0, 6.0, 6.0);
        let cell_miss = Rect::new(8.0, 0.0, 9.0, 1.0);
        assert!(rect_intersects_geometry(&cell_hit, &l));
        assert!(!rect_intersects_geometry(&cell_miss, &l));
    }

    #[test]
    fn polygon_touching_at_edge_intersects() {
        let a: Geometry = square(0.0, 0.0, 1.0).into();
        let b: Geometry = square(1.0, 0.0, 1.0).into();
        assert!(intersects(&a, &b));
    }
}
