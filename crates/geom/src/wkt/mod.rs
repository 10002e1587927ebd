//! Well-Known Text (WKT) reading and writing.
//!
//! WKT is the formatted text representation the paper's I/O layer
//! partitions, reads and parses (e.g. `POLYGON ((30 10, 40 40, 20 40,
//! 30 10))`). The parser is a hand-written recursive-descent parser over a
//! byte cursor — no regex, no allocation beyond the output geometry — since
//! parsing throughput is part of the evaluation (Table 3, Figure 14).
//!
//! ## Coordinates: exact in one pass
//!
//! Every coordinate [`parse`] returns is bit-identical to what
//! `str::parse::<f64>` returns for the same token, and every malformed
//! token gets `str::parse`'s error at the same offset. A plain decimal
//! `[-+]?digits(.digits)?` is lexed and converted in a single pass: its
//! digits accumulate into a `u64` mantissa `m` with `frac` fraction
//! digits, and
//!
//! 1. for `m <= 2^53` and `frac <= 22`, the value is `m / 10^frac` in one
//!    IEEE division of two exact doubles, which is correctly rounded
//!    (Clinger, "How to Read Floating Point Numbers Accurately", 1990);
//! 2. for larger `m` of at most 19 significant digits, that quotient is
//!    a candidate, accepted only when an exact `u128` comparison puts
//!    `m / 10^frac` strictly between the candidate's rounding midpoints.
//!
//! Every other token falls back to scanning the maximal run of
//! `[0-9+-.eE]` and calling `str::parse`, as a fast path with a fallback
//! does in Lemire's "Number Parsing at a Gigabyte per Second" (2021). It
//! falls back on an exponent, a missing digit on either side of the dot
//! (`.5`, `1.`), more than 19 significant digits, more than 22 fraction
//! digits, an exact tie between two doubles, a candidate with the
//! smallest significand of its binade (`M = 2^52`) or below the normal
//! range, a comparison that would not fit in `u128`, a candidate outside
//! its midpoints, and a token followed by another number byte (`1-2`,
//! `1..2`). On the paper's shapes about nine in ten coordinates take one
//! of the two fast paths.
//!
//! ## Nesting
//!
//! Input nesting deeper than [`crate::MAX_NESTING_DEPTH`] levels (a
//! collection's members are one level below it) is an error, not a stack
//! overflow.
//!
//! ## Virtual time
//!
//! The cost model charges parsing by bytes and shape class
//! (`Work::ParseWkt`: 49, 20 and 38 ns/B for polygons, lines and points,
//! fit to the paper's Table 3), not by how fast this parser runs, so the
//! lexer leaves virtual time unchanged. On a 2-core host this parser
//! takes 4–7 ns/B for the Lakes polygons: about 4 on one thread, 6–7 as
//! `geom.parse_host_ns_per_byte` with four rank threads.

mod parse;
mod write;

pub use parse::{parse, parse_many, Parser};
pub use write::{write, write_to};

#[cfg(test)]
mod tests {
    //! Round-trip tests across the parse/write pair as a whole: writing
    //! is a fixed point (`write ∘ parse ∘ write = write`) and parsing
    //! recovers the exact geometry for every OGC type this crate models.

    use super::{parse, parse_many, write};

    /// parse → write → parse must reproduce the geometry exactly, and a
    /// second write must reproduce the first text exactly (fixed point).
    fn assert_round_trip(input: &str) {
        let g = parse(input).unwrap_or_else(|e| panic!("parse {input:?}: {e:?}"));
        let text = write(&g);
        let g2 = parse(&text).unwrap_or_else(|e| panic!("reparse {text:?}: {e:?}"));
        assert_eq!(g, g2, "geometry changed across round trip of {input:?}");
        assert_eq!(write(&g2), text, "writer not a fixed point for {input:?}");
    }

    #[test]
    fn every_geometry_kind_round_trips() {
        for s in [
            "POINT (30 10)",
            "LINESTRING (30 10, 10 30, 40 40)",
            "POLYGON ((30 10, 40 40, 20 40, 10 20, 30 10))",
            "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
            "MULTIPOINT (10 40, 40 30, 20 20, 30 10)",
            "MULTILINESTRING ((10 10, 20 20, 10 40), (40 40, 30 30, 40 20, 30 10))",
            "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))",
            "GEOMETRYCOLLECTION (POINT (40 10), LINESTRING (10 10, 20 20, 10 40))",
        ] {
            assert_round_trip(s);
        }
    }

    #[test]
    fn empty_geometries_round_trip() {
        for s in [
            "POINT EMPTY",
            "LINESTRING EMPTY",
            "POLYGON EMPTY",
            "MULTIPOINT EMPTY",
            "MULTILINESTRING EMPTY",
            "MULTIPOLYGON EMPTY",
            "GEOMETRYCOLLECTION EMPTY",
        ] {
            assert_round_trip(s);
        }
    }

    #[test]
    fn awkward_coordinates_round_trip() {
        // Negative, fractional, high-precision and very large magnitudes:
        // the writer must emit a shortest representation that reparses to
        // bit-identical doubles.
        for s in [
            "POINT (-0.25 1e-9)",
            "POINT (179.99999999 -89.99999999)",
            "LINESTRING (-1.5 -2.5, 0 0, 1234567890.125 -0.000001)",
            "POLYGON ((0.1 0.1, 0.30000000000000004 0.1, 0.2 0.9, 0.1 0.1))",
        ] {
            assert_round_trip(s);
        }
    }

    #[test]
    fn parse_many_round_trips_line_by_line() {
        let text = "POINT (1 2)\nLINESTRING (0 0, 3 4)\nPOLYGON ((0 0, 1 0, 1 1, 0 0))\n";
        let geoms = parse_many(text).unwrap();
        assert_eq!(geoms.len(), 3);
        let rebuilt: String = geoms.iter().map(|g| write(g) + "\n").collect();
        assert_eq!(parse_many(&rebuilt).unwrap(), geoms);
    }
}
