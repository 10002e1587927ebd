//! Failure injection: corrupted inputs and failing ranks must produce
//! clean errors (or a clean job abort) — never hangs, never silent
//! corruption.

use mpi_vector_io::core::CoreError;
use mpi_vector_io::prelude::*;
use std::sync::Arc;

fn fs_with(path: &str, text: &str) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::gpfs_roger());
    fs.create(path, None).unwrap().append(text.as_bytes());
    fs
}

#[test]
fn corrupted_wkt_record_fails_cleanly_on_every_rank() {
    // A malformed record in the middle of an otherwise fine file: the
    // rank that owns it reports a Parse error naming the record; other
    // ranks parse their shares fine. No rank hangs.
    let mut text = String::new();
    for i in 0..40 {
        if i == 17 {
            text.push_str("POLYGON ((botched\n");
        } else {
            text.push_str(&format!("POINT ({i} {i})\tp{i}\n"));
        }
    }
    let fs = fs_with("bad.wkt", &text);
    let results = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        read_features(
            comm,
            &fs,
            "bad.wkt",
            &ReadOptions::default().with_block_size(128),
            &WktLineParser,
        )
        .map(|v| v.len())
        .map_err(|e| e.to_string())
    });
    let errs: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(
        errs.len(),
        1,
        "exactly one rank owns the bad record: {results:?}"
    );
    assert!(errs[0].contains("parse error"), "{}", errs[0]);
    assert!(
        errs[0].contains("botched"),
        "error names the record: {}",
        errs[0]
    );
    // Other ranks deliver their clean shares; the failing rank's share
    // (including its good records) is reported through its error.
    let parsed: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .sum();
    assert!(
        (1..=39).contains(&parsed),
        "clean shares delivered: {parsed}"
    );
}

#[test]
fn hostile_nesting_fails_cleanly_on_one_rank() {
    // 100k nested GEOMETRYCOLLECTION levels: a 2.1 MB record, well under
    // the record-size cap, that once overflowed the 1 MiB rank stack and
    // aborted the process. It must fail like any malformed record: a
    // Parse error on the rank that owns it, clean shares elsewhere. The
    // other records carry 100 KB of userdata each, so every rank's
    // partition (about 3 MB) is larger than the deep record.
    const LEVELS: usize = 100_000;
    let pad = "u".repeat(100_000);
    let mut text = String::new();
    for i in 0..100 {
        if i == 35 {
            text.push_str(&"GEOMETRYCOLLECTION (".repeat(LEVELS));
            text.push_str("POINT (1 1)");
            text.push_str(&")".repeat(LEVELS));
            text.push_str("\tdeep\n");
        } else {
            text.push_str(&format!("POINT ({i} {i})\t{pad}\n"));
        }
    }
    let fs = fs_with("deep.wkt", &text);
    let results = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        read_features(
            comm,
            &fs,
            "deep.wkt",
            &ReadOptions::default(),
            &WktLineParser,
        )
        .map(|v| v.len())
        .map_err(|e| match e {
            CoreError::Parse { source, .. } => Ok(source.to_string()),
            other => Err(other.to_string()),
        })
    });
    let errs: Vec<_> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(errs.len(), 1, "exactly one rank owns the deep record");
    let msg = errs[0].as_ref().expect("a Parse error");
    assert!(msg.contains("nests deeper"), "{msg}");
    let parsed: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .sum();
    assert!(
        (1..=98).contains(&parsed),
        "clean shares delivered: {parsed}"
    );
}

#[test]
fn rank_death_mid_pipeline_aborts_whole_job() {
    // A rank panics between the exchange rounds; the rest are blocked in
    // collectives. MPI_Abort semantics must bring the job down rather
    // than deadlock.
    let fs = fs_with(
        "ok.wkt",
        &(0..32)
            .map(|i| format!("POINT ({i} 0)\tp{i}\n"))
            .collect::<String>(),
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let feats = read_features(
                comm,
                &fs,
                "ok.wkt",
                &ReadOptions::default().with_block_size(1024),
                &WktLineParser,
            )
            .unwrap();
            if comm.rank() == 2 {
                panic!("injected rank death");
            }
            // Survivors head into a collective that can never complete.
            comm.allreduce_u64(feats.len() as u64, |a, b| a + b)
        })
    }));
    let payload = result.expect_err("job must abort");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("injected rank death"),
        "originating panic surfaces: {msg}"
    );
}

#[test]
fn truncated_file_yields_short_final_record_not_a_crash() {
    // A file cut mid-record (e.g. interrupted transfer): the partial tail
    // is delivered as a record and fails at *parse* time with a clear
    // error, rather than corrupting neighbours.
    let full = "POINT (1 1)\tp1\nPOINT (2 2)\tp2\nPOLYGON ((3 3, 4 3, 4";
    let fs = fs_with("cut.wkt", full);
    let results = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
        read_features(
            comm,
            &fs,
            "cut.wkt",
            &ReadOptions::default(),
            &WktLineParser,
        )
        .map(|v| v.len())
        .map_err(|e| matches!(e, CoreError::Parse { .. }))
    });
    // The rank owning the tail sees a parse error (flagged true); the
    // other delivers its complete points.
    assert!(results.contains(&Err(true)), "{results:?}");
    assert!(
        results.iter().any(|r| matches!(r, Ok(n) if *n >= 1)),
        "{results:?}"
    );
}

#[test]
fn oversized_geometry_is_reported_not_mangled() {
    // One record bigger than both the block and the configured maximum:
    // Algorithm 1 reports a Partition error telling the user which knob
    // to raise.
    let mut text = String::new();
    text.push_str("POINT (0 0)\tsmall\n");
    text.push_str(&format!("LINESTRING ({})\thuge\n", {
        let coords: Vec<String> = (0..4000).map(|i| format!("{i} {i}")).collect();
        coords.join(", ")
    }));
    let fs = fs_with("huge.wkt", &text);
    let results = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
        read_features(
            comm,
            &fs,
            "huge.wkt",
            &ReadOptions::default()
                .with_block_size(512)
                .with_max_geometry_bytes(1024),
            &WktLineParser,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    });
    let errs: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!errs.is_empty());
    assert!(
        errs.iter()
            .any(|e| e.contains("block_size") || e.contains("max_geometry_bytes")),
        "error guides the user: {errs:?}"
    );
}

#[test]
fn empty_and_whitespace_files_are_harmless() {
    for content in ["", "\n\n\n", "   \n  \n"] {
        let fs = fs_with("empty.wkt", content);
        let results = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            // Block above the longest (whitespace) record, as always.
            let opts = ReadOptions::default().with_block_size(8);
            read_features(comm, &fs, "empty.wkt", &opts, &WktLineParser)
                .unwrap()
                .len()
        });
        assert!(results.iter().all(|&n| n == 0), "content {content:?}");
    }
}

#[test]
fn malformed_queries_are_rejected_symmetrically_and_engine_survives() {
    // NaN rects, inverted rects and k = 0 kNN probes must be rejected
    // with a typed `InvalidOptions` on EVERY rank — the validation
    // allreduce runs before any exchange, so no rank is stranded in a
    // collective — and the engine must keep answering afterwards.
    use mpi_vector_io::core::decomp::{SpatialDecomposition, UniformDecomposition};
    use mpi_vector_io::sjoin::{EngineOptions, Query, QueryAnswer, QueryEngine};

    let bad_batches: Vec<Vec<Query>> = vec![
        vec![Query::Range(Rect::new(f64::NAN, 0.0, 1.0, 1.0))],
        vec![
            Query::Range(Rect::new(0.0, 0.0, 4.0, 4.0)), // fine
            Query::Range(Rect::new(3.0, 3.0, 1.0, 4.0)), // inverted x
        ],
        vec![Query::Point(Point::new(0.0, f64::INFINITY))],
        vec![Query::Knn {
            at: Point::new(2.0, 2.0),
            k: 0,
        }],
    ];
    let n_bad = bad_batches.len();

    let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        // A 6×6 lattice of labelled points, resident under a uniform
        // round-robin decomposition.
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 6.0, 6.0), GridSpec::square(3));
        let sd: Box<dyn SpatialDecomposition> = Box::new(UniformDecomposition::new(
            grid,
            CellMap::RoundRobin,
            comm.size(),
        ));
        let mut owned = Vec::new();
        for y in 0..6 {
            for x in 0..6 {
                let p = Point::new(x as f64, y as f64);
                for cell in sd.cells_for_rect_vec(&p.envelope()) {
                    if sd.cell_to_rank(cell) == comm.rank() {
                        owned.push((
                            cell,
                            Feature::with_userdata(Geometry::Point(p), format!("p{x}_{y}")),
                        ));
                    }
                }
            }
        }
        let mut eng = QueryEngine::from_parts(comm, sd, owned, &EngineOptions::default());

        let mut rejections = Vec::new();
        for batch in &bad_batches {
            match eng.serve(comm, batch) {
                Ok(_) => rejections.push(None),
                Err(e) => rejections.push(Some(matches!(e, CoreError::InvalidOptions(_)))),
            }
        }
        // The engine is not poisoned: the next (valid) batch answers.
        let rep = eng
            .serve(comm, &[Query::Range(Rect::new(0.5, 0.5, 2.5, 2.5))])
            .unwrap();
        let survived = match &rep.answers[0] {
            QueryAnswer::Matches(m) => m.clone(),
            _ => unreachable!("range answers with matches"),
        };
        (rejections, survived)
    });

    for (rank, (rejections, survived)) in out.iter().enumerate() {
        assert_eq!(rejections.len(), n_bad);
        for (i, r) in rejections.iter().enumerate() {
            assert_eq!(
                *r,
                Some(true),
                "rank {rank}: bad batch {i} must be InvalidOptions, got {r:?}"
            );
        }
        assert_eq!(
            survived,
            &vec!["p1_1", "p1_2", "p2_1", "p2_2"],
            "rank {rank}: engine unusable after rejected batches"
        );
    }
}
