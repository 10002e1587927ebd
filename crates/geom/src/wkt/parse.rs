//! Recursive-descent WKT parser.

use crate::geometry::Geometry;
use crate::linestring::LineString;
use crate::multi::{GeometryCollection, MultiLineString, MultiPoint, MultiPolygon};
use crate::point::Point;
use crate::polygon::{Polygon, Ring};
use crate::{GeomError, Result, MAX_NESTING_DEPTH};

/// Parses a single WKT geometry from `input`, requiring that nothing but
/// whitespace follows it.
///
/// ```
/// use mvio_geom::wkt;
/// let g = wkt::parse("POINT (30 10)").unwrap();
/// assert_eq!(g.num_points(), 1);
/// ```
pub fn parse(input: &str) -> Result<Geometry> {
    let mut p = Parser::new(input);
    let g = p.parse_geometry()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("trailing characters after geometry"));
    }
    Ok(g)
}

/// Parses a newline-delimited sequence of WKT geometries (the layout of the
/// paper's datasets: one geometry per line). Blank lines are skipped.
/// Returns the geometries in input order.
pub fn parse_many(input: &str) -> Result<Vec<Geometry>> {
    let mut out = Vec::new();
    for line in input.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        out.push(parse(trimmed)?);
    }
    Ok(out)
}

/// A resumable WKT parser over a string slice.
///
/// Exposed publicly so the I/O layer can parse geometries one-by-one out of
/// a file partition buffer without materializing per-line `String`s.
pub struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Parser {
            src: input.as_bytes(),
            pos: 0,
        }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// `true` once the cursor has consumed all input.
    pub fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// Skips ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn error(&self, msg: impl Into<String>) -> GeomError {
        GeomError::Wkt {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{}', found {:?}",
                byte as char,
                self.peek().map(|b| b as char)
            )))
        }
    }

    /// Consumes `byte` if it is next (after whitespace); returns whether it
    /// was consumed.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Reads an ASCII keyword (letters only), uppercased.
    fn keyword(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a geometry keyword"));
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            // audit: the scanned bytes are ASCII letters, always valid UTF-8.
            .expect("ASCII letters are valid UTF-8")
            .to_ascii_uppercase())
    }

    /// Peeks whether the next token is the keyword `EMPTY`, consuming it if so.
    fn eat_empty(&mut self) -> bool {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest.len() >= 5 && rest[..5].eq_ignore_ascii_case(b"EMPTY") {
            self.pos += 5;
            true
        } else {
            false
        }
    }

    /// Reads one coordinate. Plain decimals (`[-+]?digits(.digits)?`, the
    /// form every coordinate in the paper's datasets takes) are lexed and
    /// converted in one pass by [`lex_decimal`]; any token it cannot
    /// convert exactly goes to [`Parser::number_slow`], so the result and
    /// every error are those of `str::parse::<f64>` either way.
    fn number(&mut self) -> Result<f64> {
        self.skip_ws();
        match lex_decimal(&self.src[self.pos..]) {
            Some((v, len)) => {
                self.pos += len;
                Ok(v)
            }
            None => self.number_slow(),
        }
    }

    /// The general number path: scans the maximal run of number bytes and
    /// hands it to `str::parse::<f64>`, which validates and converts it.
    fn number_slow(&mut self) -> Result<f64> {
        let start = self.pos;
        // Sign, digits, dot, exponent — scan the maximal plausible slice and
        // let f64::parse validate it.
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if is_number_byte(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.error("non-UTF8 number"))?;
        text.parse::<f64>().map_err(|e| GeomError::Wkt {
            msg: format!("bad number {text:?}: {e}"),
            offset: start,
        })
    }

    /// Parses `x y` as a coordinate pair.
    fn coord(&mut self) -> Result<Point> {
        let x = self.number()?;
        let y = self.number()?;
        Ok(Point::new(x, y))
    }

    /// Parses `( x y, x y, ... )`.
    fn coord_list(&mut self) -> Result<Vec<Point>> {
        self.expect(b'(')?;
        let mut pts = vec![self.coord()?];
        while self.eat(b',') {
            pts.push(self.coord()?);
        }
        self.expect(b')')?;
        Ok(pts)
    }

    /// Parses `( ring, ring, ... )` where each ring is a coord list.
    fn ring_list(&mut self) -> Result<(Ring, Vec<Ring>)> {
        self.expect(b'(')?;
        let exterior = Ring::new(self.coord_list()?)?;
        let mut holes = Vec::new();
        while self.eat(b',') {
            holes.push(Ring::new(self.coord_list()?)?);
        }
        self.expect(b')')?;
        Ok((exterior, holes))
    }

    /// Parses one complete geometry starting at the cursor.
    ///
    /// Input nesting deeper than [`MAX_NESTING_DEPTH`] is an error.
    pub fn parse_geometry(&mut self) -> Result<Geometry> {
        self.geometry(1)
    }

    /// The depth of the members of a container at `depth`, or an error
    /// when they would nest deeper than [`MAX_NESTING_DEPTH`].
    fn member_depth(&self, depth: usize) -> Result<usize> {
        if depth < MAX_NESTING_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.error(format!(
                "geometry nests deeper than {MAX_NESTING_DEPTH} levels"
            )))
        }
    }

    /// Parses one geometry at nesting level `depth`.
    fn geometry(&mut self, depth: usize) -> Result<Geometry> {
        let kw = self.keyword()?;
        match kw.as_str() {
            "POINT" => {
                if self.eat_empty() {
                    // Represent POINT EMPTY as an empty multipoint, the
                    // conventional lossless choice.
                    return Ok(Geometry::MultiPoint(MultiPoint(vec![])));
                }
                self.expect(b'(')?;
                let p = self.coord()?;
                self.expect(b')')?;
                Ok(Geometry::Point(p))
            }
            "LINESTRING" => {
                if self.eat_empty() {
                    return Ok(Geometry::MultiLineString(MultiLineString(vec![])));
                }
                Ok(Geometry::LineString(LineString::new(self.coord_list()?)?))
            }
            "POLYGON" => {
                if self.eat_empty() {
                    return Ok(Geometry::MultiPolygon(MultiPolygon(vec![])));
                }
                let (ext, holes) = self.ring_list()?;
                Ok(Geometry::Polygon(Polygon::new(ext, holes)))
            }
            "MULTIPOINT" => {
                if self.eat_empty() {
                    return Ok(Geometry::MultiPoint(MultiPoint(vec![])));
                }
                self.member_depth(depth)?;
                self.expect(b'(')?;
                let mut pts = vec![self.multipoint_member()?];
                while self.eat(b',') {
                    pts.push(self.multipoint_member()?);
                }
                self.expect(b')')?;
                Ok(Geometry::MultiPoint(MultiPoint(pts)))
            }
            "MULTILINESTRING" => {
                if self.eat_empty() {
                    return Ok(Geometry::MultiLineString(MultiLineString(vec![])));
                }
                self.member_depth(depth)?;
                self.expect(b'(')?;
                let mut lines = vec![LineString::new(self.coord_list()?)?];
                while self.eat(b',') {
                    lines.push(LineString::new(self.coord_list()?)?);
                }
                self.expect(b')')?;
                Ok(Geometry::MultiLineString(MultiLineString(lines)))
            }
            "MULTIPOLYGON" => {
                if self.eat_empty() {
                    return Ok(Geometry::MultiPolygon(MultiPolygon(vec![])));
                }
                self.member_depth(depth)?;
                self.expect(b'(')?;
                let mut polys = Vec::new();
                loop {
                    let (ext, holes) = self.ring_list()?;
                    polys.push(Polygon::new(ext, holes));
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b')')?;
                Ok(Geometry::MultiPolygon(MultiPolygon(polys)))
            }
            "GEOMETRYCOLLECTION" => {
                if self.eat_empty() {
                    return Ok(Geometry::GeometryCollection(GeometryCollection(vec![])));
                }
                let inner = self.member_depth(depth)?;
                self.expect(b'(')?;
                let mut members = vec![self.geometry(inner)?];
                while self.eat(b',') {
                    members.push(self.geometry(inner)?);
                }
                self.expect(b')')?;
                Ok(Geometry::GeometryCollection(GeometryCollection(members)))
            }
            other => Err(self.error(format!("unknown geometry keyword {other:?}"))),
        }
    }

    /// A MULTIPOINT member: either `(x y)` (OGC canonical) or bare `x y`
    /// (widely produced in the wild, including OSM extracts).
    fn multipoint_member(&mut self) -> Result<Point> {
        if self.eat(b'(') {
            let p = self.coord()?;
            self.expect(b')')?;
            Ok(p)
        } else {
            self.coord()
        }
    }
}

/// Bytes the general number path scans as part of a number token.
#[inline]
fn is_number_byte(b: u8) -> bool {
    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
}

/// `10^k` for `k <= 22`; each is exact in `f64` because `5^22 < 2^53`.
const POW10: [f64; 23] = {
    let mut t = [1.0; 23];
    let mut k = 1;
    while k < 23 {
        t[k] = t[k - 1] * 10.0;
        k += 1;
    }
    t
};

/// `5^k` for `k <= 22`, the odd part of `10^k`.
const POW5: [u64; 23] = {
    let mut t = [1; 23];
    let mut k = 1;
    while k < 23 {
        t[k] = t[k - 1] * 5;
        k += 1;
    }
    t
};

/// Lexes a plain decimal `[-+]?digits(.digits)?` at the front of `s` and
/// converts it exactly, returning the value and the token length.
///
/// Returns `None` — leaving the token to `str::parse` — when the token
/// has an exponent or any other shape, is followed by another number
/// byte, carries more than 19 significant digits or more than 22
/// fraction digits, or [`decimal_to_f64`] cannot prove its candidate.
#[inline]
fn lex_decimal(s: &[u8]) -> Option<(f64, usize)> {
    let (neg, mut i) = match s.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        _ => (false, 0),
    };
    // All digits, integer and fraction part alike, as one integer. It
    // wraps only past 19 significant digits, and such tokens are handed
    // back below.
    let mut m: u64 = 0;
    let mut sig = 0usize;
    let mut digits = |i: &mut usize| {
        let from = *i;
        while let Some(&b) = s.get(*i) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            m = m.wrapping_mul(10).wrapping_add(u64::from(d));
            // Leading zeros are not significant.
            sig += usize::from(sig > 0 || d != 0);
            *i += 1;
        }
        *i - from
    };
    if digits(&mut i) == 0 {
        return None;
    }
    let mut frac = 0;
    if s.get(i) == Some(&b'.') {
        i += 1;
        frac = digits(&mut i);
        if frac == 0 {
            return None;
        }
    }
    if s.get(i).is_some_and(|&b| is_number_byte(b)) || sig > 19 || frac > 22 {
        return None;
    }
    let v = decimal_to_f64(m, frac)?;
    Some((if neg { -v } else { v }, i))
}

/// The correctly rounded (nearest, ties to even) `f64` of `m / 10^frac`,
/// for `m < 2^64` and `frac <= 22`, or `None` when this cannot decide it.
///
/// Clinger's fast path: for `m <= 2^53` both `m` and `10^frac` are exact
/// doubles, so their IEEE quotient is the one correctly rounded result.
/// Above `2^53`, `m as f64` rounds once more, so the quotient `r = M·2^e`
/// is only a candidate. It is accepted when an exact integer comparison
/// puts `m / 10^frac` strictly between `r`'s rounding midpoints
/// `(2M ± 1)·2^(e-1)`, i.e. `(2M - 1)·5^frac < m·2^(1-e-frac) < (2M + 1)·5^frac`
/// with the power of two moved to whichever side keeps it non-negative.
/// An exact tie, `M = 2^52` (whose lower midpoint is closer), a
/// subnormal `r`, a shift that does not fit in `u128` and a candidate
/// outside its midpoints all return `None`.
#[inline]
fn decimal_to_f64(m: u64, frac: usize) -> Option<f64> {
    let r = m as f64 / POW10[frac];
    if m <= 1 << 53 {
        return Some(r);
    }
    let bits = r.to_bits();
    // `r` is positive and finite: no sign bit, exponent below 0x7ff.
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 || fraction == 0 {
        return None;
    }
    let big_m = u128::from(fraction | 1 << 52);
    let shift = 1 - (biased - 1075) - frac as i32;
    let p5 = u128::from(POW5[frac]);
    let (mut x, mut lo, mut hi) = (u128::from(m), (2 * big_m - 1) * p5, (2 * big_m + 1) * p5);
    if shift >= 0 {
        x = shl_exact(x, shift.unsigned_abs())?;
    } else {
        lo = shl_exact(lo, shift.unsigned_abs())?;
        hi = shl_exact(hi, shift.unsigned_abs())?;
    }
    (lo < x && x < hi).then_some(r)
}

/// `x << s` when no set bit is shifted out (`x` is non-zero).
#[inline]
fn shl_exact(x: u128, s: u32) -> Option<u128> {
    (s <= x.leading_zeros()).then(|| x << s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    #[test]
    fn parses_the_papers_example() {
        // The exact example from paper §2.
        let g = parse("POLYGON ((30 10, 40 40, 20 40, 30 10))").unwrap();
        match &g {
            Geometry::Polygon(p) => {
                assert_eq!(p.exterior().num_points(), 4);
                assert_eq!(p.area(), 300.0);
            }
            _ => panic!("expected polygon"),
        }
        assert_eq!(g.envelope(), Rect::new(20.0, 10.0, 40.0, 40.0));
    }

    #[test]
    fn parses_point() {
        let g = parse("POINT (30 10)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(30.0, 10.0)));
        // Case-insensitive, flexible whitespace.
        let g2 = parse("point(30    10)").unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_negative_and_scientific_numbers() {
        let g = parse("POINT (-1.5e2 +0.25)").unwrap();
        assert_eq!(g, Geometry::Point(Point::new(-150.0, 0.25)));
    }

    #[test]
    fn parses_linestring() {
        let g = parse("LINESTRING (30 10, 10 30, 40 40)").unwrap();
        assert_eq!(g.num_points(), 3);
        assert_eq!(g.geometry_type().wkt_keyword(), "LINESTRING");
    }

    #[test]
    fn parses_polygon_with_hole() {
        let g =
            parse("POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))")
                .unwrap();
        match g {
            Geometry::Polygon(p) => {
                assert_eq!(p.interiors().len(), 1);
                assert_eq!(p.num_points(), 5 + 4);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_multipoint_both_syntaxes() {
        let canonical = parse("MULTIPOINT ((10 40), (40 30), (20 20), (30 10))").unwrap();
        let bare = parse("MULTIPOINT (10 40, 40 30, 20 20, 30 10)").unwrap();
        assert_eq!(canonical, bare);
        assert_eq!(canonical.num_points(), 4);
    }

    #[test]
    fn parses_multilinestring() {
        let g =
            parse("MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30, 40 20, 30 10))").unwrap();
        assert_eq!(g.num_points(), 7);
    }

    #[test]
    fn parses_multipolygon() {
        let g = parse(
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), \
             ((15 5, 40 10, 10 20, 5 10, 15 5)))",
        )
        .unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => assert_eq!(mp.0.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_multipolygon_with_holes() {
        let g = parse(
            "MULTIPOLYGON (((40 40, 20 45, 45 30, 40 40)), \
             ((20 35, 10 30, 10 10, 30 5, 45 20, 20 35), (30 20, 20 15, 20 25, 30 20)))",
        )
        .unwrap();
        match &g {
            Geometry::MultiPolygon(mp) => {
                assert_eq!(mp.0.len(), 2);
                assert_eq!(mp.0[1].interiors().len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_geometrycollection() {
        let g =
            parse("GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20, 10 40))").unwrap();
        match &g {
            Geometry::GeometryCollection(c) => assert_eq!(c.0.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn parses_empty_geometries() {
        assert_eq!(parse("POINT EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("LINESTRING EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("POLYGON EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("MULTIPOLYGON EMPTY").unwrap().num_points(), 0);
        assert_eq!(parse("GEOMETRYCOLLECTION EMPTY").unwrap().num_points(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("POLYGON").is_err());
        assert!(parse("POLYGON (30 10)").is_err()); // missing ring parens
        assert!(parse("POINT (30)").is_err());
        assert!(parse("POINT (30 10").is_err());
        assert!(parse("CIRCLE (0 0, 5)").is_err());
        assert!(parse("POINT (30 10) garbage").is_err());
        assert!(parse("POINT (a b)").is_err());
    }

    #[test]
    fn error_carries_offset() {
        match parse("POINT (30 x)") {
            Err(GeomError::Wkt { offset, .. }) => assert!(offset >= 9),
            other => panic!("expected Wkt error, got {other:?}"),
        }
    }

    #[test]
    fn parse_many_splits_lines() {
        let input = "POINT (1 2)\n\nLINESTRING (0 0, 1 1)\nPOINT (3 4)\n";
        let geoms = parse_many(input).unwrap();
        assert_eq!(geoms.len(), 3);
        assert_eq!(geoms[0], Geometry::Point(Point::new(1.0, 2.0)));
        assert_eq!(geoms[2], Geometry::Point(Point::new(3.0, 4.0)));
    }

    /// The fast lexer's verdict on a whole token: `Some` when it converted
    /// the token itself, `None` when it handed it to `str::parse`.
    fn fast(token: &str) -> Option<f64> {
        lex_decimal(token.as_bytes()).map(|(v, len)| {
            assert_eq!(len, token.len(), "{token:?} lexed only in part");
            v
        })
    }

    /// Parses `token` as a coordinate through the full parser and checks
    /// it is bit-identical to `str::parse`, and so is the fast path's
    /// value when it took the token.
    fn assert_exact(token: &str) {
        let want = token.parse::<f64>().unwrap().to_bits();
        if let Some(v) = fast(token) {
            assert_eq!(v.to_bits(), want, "fast path on {token:?}");
        }
        let Geometry::Point(p) = parse(&format!("POINT ({token} {token})")).unwrap() else {
            panic!("expected a point for {token:?}");
        };
        assert_eq!((p.x.to_bits(), p.y.to_bits()), (want, want), "{token:?}");
    }

    #[test]
    fn two_to_the_53_is_fast_and_the_tie_above_it_falls_back() {
        assert_eq!(fast("9007199254740992"), Some(9007199254740992.0));
        // 2^53 + 1 is a tie whose candidate 2^53 has M = 2^52.
        assert_eq!(fast("9007199254740993"), None);
        // The same tie written with a fraction digit: the double-rounded
        // candidate is 2^53 + 2, and the exact check sees the tie.
        assert_eq!(fast("9007199254740993.0"), None);
        for t in [
            "9007199254740992",
            "9007199254740993",
            "9007199254740993.0",
            "9007199254740994.9",
            "18014398509481989",
        ] {
            assert_exact(t);
        }
        // Just off the tie, the exact check decides it.
        assert_eq!(fast("9007199254740993.1"), Some(9007199254740994.0));
        assert_eq!(fast("18014398509481989"), Some(18014398509481988.0));
        // Rounding m to a double first moves this candidate one ulp up,
        // outside its midpoints, so it is left to `str::parse`.
        assert_eq!(fast("9007199254740994.9"), None);
        // The candidate 2^53 has M = 2^52, so it is left to `str::parse`.
        assert_eq!(fast("9007199254740992.9"), None);
    }

    #[test]
    fn nineteen_significant_digits_are_fast_and_twenty_fall_back() {
        assert!(fast("1234567890123456789").is_some());
        assert!(fast("0.001234567890123456789").is_some());
        assert_eq!(fast("12345678901234567891"), None);
        assert_eq!(fast("1.2345678901234567891"), None);
        // Leading zeros are not significant digits.
        assert!(fast("000000001234567890123456789").is_some());
        for t in [
            "1234567890123456789",
            "9999999999999999999",
            "12345678901234567891",
            "18446744073709551615",
            "18446744073709551616",
            "000000001234567890123456789",
            "-179.12345678901234",
            "-89.999999999999999",
        ] {
            assert_exact(t);
        }
    }

    #[test]
    fn twenty_two_fraction_digits_are_fast_and_twenty_three_fall_back() {
        assert!(fast("0.0000000000000000000001").is_some());
        assert_eq!(fast("0.00000000000000000000001"), None);
        for t in [
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.0000000000000000000000123",
            "1.0000000000000000000001",
        ] {
            assert_exact(t);
        }
    }

    #[test]
    fn signs_zeros_and_subnormals_match_str_parse() {
        assert_eq!(fast("-0.0").map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(fast("+1.5"), Some(1.5));
        // Subnormals need an exponent or hundreds of fraction digits;
        // either way `str::parse` converts them.
        let tiny = format!("0.{}49", "0".repeat(323));
        for t in [
            "-0.0",
            "-0",
            "+0",
            "+1.5",
            "4.9e-324",
            "2.2250738585072e-308",
            &tiny,
        ] {
            assert_exact(t);
        }
        assert_eq!(fast(&tiny), None);
    }

    #[test]
    fn other_forms_fall_back_to_str_parse() {
        // Error messages and offsets for malformed tokens are compared
        // with the previous parser in `tests/proptest_geom.rs`.
        for t in ["1.", ".5", "-.5", "1e3", "1E+3", "2.5e-3"] {
            assert_eq!(fast(t), None, "{t}");
            assert_exact(t);
        }
    }

    /// `depth` nested `GEOMETRYCOLLECTION`s around one point.
    fn nested_collections(depth: usize) -> String {
        let mut s = "GEOMETRYCOLLECTION (".repeat(depth - 1);
        s.push_str("POINT (1 2)");
        s.push_str(&")".repeat(depth - 1));
        s
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(parse(&nested_collections(MAX_NESTING_DEPTH)).is_ok());
        let deep = nested_collections(MAX_NESTING_DEPTH + 1);
        match parse(&deep) {
            Err(GeomError::Wkt { msg, offset }) => {
                assert!(msg.contains("nests deeper"), "{msg}");
                assert_eq!(offset, deep.find("POINT").unwrap() - 1);
            }
            other => panic!("expected a nesting error, got {other:?}"),
        }
        // Multi* members count as a level too.
        let multi = |kw: &str, body: &str| {
            let inner = format!("{kw} ({body})");
            let mut s = "GEOMETRYCOLLECTION (".repeat(MAX_NESTING_DEPTH - 1);
            s.push_str(&inner);
            s.push_str(&")".repeat(MAX_NESTING_DEPTH - 1));
            s
        };
        for (kw, body) in [
            ("MULTIPOINT", "1 2"),
            ("MULTILINESTRING", "(0 0, 1 1)"),
            ("MULTIPOLYGON", "((0 0, 1 0, 1 1, 0 0))"),
        ] {
            assert!(parse(&multi(kw, body)).is_err(), "{kw}");
            assert!(parse(&multi(kw, "").replace("()", "EMPTY")).is_ok(), "{kw}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_on_a_small_stack() {
        let text = nested_collections(100_000);
        let res = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(move || parse(&text).map(|_| ()))
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert!(res.is_err());
    }

    #[test]
    fn resumable_parser_tracks_offsets() {
        let src = "POINT (1 2)  POINT (3 4)";
        let mut p = Parser::new(src);
        let g1 = p.parse_geometry().unwrap();
        assert_eq!(g1, Geometry::Point(Point::new(1.0, 2.0)));
        let g2 = p.parse_geometry().unwrap();
        assert_eq!(g2, Geometry::Point(Point::new(3.0, 4.0)));
        p.skip_ws();
        assert!(p.at_end());
    }
}
