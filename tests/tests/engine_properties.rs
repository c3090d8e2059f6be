//! Engine-level property tests: the paper's central correctness claim
//! is that associative (parallel, speculative) execution is *exact* —
//! any block count, thread count, mode or grid cell size must produce
//! byte-identical results.

use atgis::{Dataset, Engine, FilterStrategy, Metric, Query};
use atgis_datagen::{write_geojson, write_wkt, OsmGenerator, SynthConfig};
use atgis_formats::{Format, Mode};
use atgis_geometry::{DistanceModel, Mbr};
use atgis_tests::{assert_agrees_with_oracle, oracle_answers, RunExt};
use proptest::prelude::*;

fn geojson_dataset(seed: u64, n: usize) -> Dataset {
    Dataset::from_bytes(
        write_geojson(&OsmGenerator::new(seed).generate(n)),
        Format::GeoJson,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn containment_invariant_under_execution_config(
        seed in 0u64..50,
        threads in 1usize..5,
        mult in 1usize..7,
        fat in proptest::bool::ANY,
    ) {
        let ds = geojson_dataset(seed, 60);
        let region = Mbr::new(-8.0, 42.0, 4.0, 56.0);
        let q = Query::containment(region);
        let reference = Engine::builder().build().exec1(&q, &ds).unwrap();
        let engine = Engine::builder()
            .threads(threads)
            .block_multiplier(mult)
            .mode(if fat { Mode::Fat } else { Mode::Pat })
            .build();
        let got = engine.exec1(&q, &ds).unwrap();
        prop_assert_eq!(got.matches(), reference.matches());
    }

    #[test]
    fn aggregation_invariant_under_strategy_and_blocks(
        seed in 0u64..30,
        mult in 1usize..9,
        streaming in proptest::bool::ANY,
    ) {
        let ds = geojson_dataset(seed + 100, 50);
        let region = Mbr::new(-8.0, 42.0, 4.0, 56.0);
        let strategy = if streaming {
            FilterStrategy::Streaming
        } else {
            FilterStrategy::Buffered
        };
        let q = Query::aggregation_with(
            region,
            vec![Metric::Area, Metric::Perimeter, Metric::Count],
            DistanceModel::Spherical,
            strategy,
        );
        let reference = Engine::builder()
            .build()
            .exec1(&Query::aggregation_with(
                region,
                vec![Metric::Area, Metric::Perimeter, Metric::Count],
                DistanceModel::Spherical,
                FilterStrategy::Buffered,
            ), &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        let got = Engine::builder()
            .block_multiplier(mult)
            .build()
            .exec1(&q, &ds)
            .unwrap()
            .aggregate()
            .unwrap();
        prop_assert_eq!(got.count, reference.count);
        prop_assert!((got.total_area - reference.total_area).abs()
            <= 1e-6 * reference.total_area.abs().max(1.0));
        prop_assert!((got.total_perimeter - reference.total_perimeter).abs()
            <= 1e-6 * reference.total_perimeter.abs().max(1.0));
    }

    #[test]
    fn join_invariant_under_grid_and_store(
        seed in 0u64..20,
        cell in prop::sample::select(vec![0.5f64, 1.0, 2.0, 4.0]),
    ) {
        let ds = geojson_dataset(seed + 200, 40);
        let q = Query::join(20);
        let reference = Engine::builder()
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(1.0)
            .build()
            .exec1(&q, &ds)
            .unwrap();
        let engine = Engine::builder()
            .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
            .cell_size(cell)
            .build();
        let got = engine.exec1(&q, &ds).unwrap();
        prop_assert_eq!(got.joined(), reference.joined());
        let oracle = oracle_answers(&ds, std::slice::from_ref(&q));
        assert_agrees_with_oracle(&oracle, &[got], &format!("seed {seed} cell {cell}"));
    }

    #[test]
    fn wkt_fat_block_counts_agree(seed in 0u64..20, mult in 1usize..10) {
        // WKT's one split (newlines) at any block count.
        let gen = OsmGenerator::new(seed + 300).generate(30);
        let ds = Dataset::from_bytes(write_wkt(&gen), Format::Wkt);
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let got = Engine::builder()
            .block_multiplier(mult)
            .build()
            .exec1(&q, &ds)
            .unwrap();
        prop_assert_eq!(got.matches().len(), 30);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Split-invariance of the vectorised bulk scanner: for random
    /// GeoJSON-shaped inputs and random block boundaries, the merged
    /// fragments' token tapes are byte-identical to a single-threaded
    /// reference scan of the whole input — and to the seed's
    /// byte-at-a-time lexing path.
    #[test]
    fn bulk_scanner_split_invariance(
        seed in 0u64..40,
        objects in 1usize..20,
        nblocks in 1usize..12,
    ) {
        use atgis_formats::geojson::lexer;
        use atgis_transducer::merge::merge_tree;

        let input = write_geojson(&OsmGenerator::new(seed + 7000).generate(objects));
        let chunk = input.len().div_ceil(nblocks).max(1);

        // Parallel-shaped: vectorised speculative scan per block,
        // fragments merged as a tree (the executor's merge shape).
        let frags: Vec<_> = input
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| lexer::lex_block(c, (i * chunk) as u64))
            .collect();
        let merged = merge_tree(frags);
        let (fin, tokens) = merged.resolve(lexer::STATE_OUT).unwrap();

        // Reference: one sequential scan of the whole input.
        let (fin_seq, tokens_seq) = lexer::lex_known(&input, 0, lexer::STATE_OUT);
        prop_assert_eq!(fin, fin_seq);
        prop_assert_eq!(&tokens, &tokens_seq);

        // And the seed byte-loop produces the same fragment per block.
        let frags_bytewise: Vec<_> = input
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| lexer::lex_block_bytewise(c, (i * chunk) as u64))
            .collect();
        let merged_bytewise = merge_tree(frags_bytewise);
        let (fin_b, tokens_b) = merged_bytewise.resolve(lexer::STATE_OUT).unwrap();
        prop_assert_eq!(fin, fin_b);
        prop_assert_eq!(&tokens, &tokens_b);
    }

    /// Random cut points (not just equal chunks) across random raw
    /// bytes drawn from the JSON structural alphabet.
    #[test]
    fn bulk_scanner_random_cut_invariance(
        input in prop::collection::vec(
            prop::sample::select(br#"{}[],:"\ab1.5 e-"#.to_vec()), 0..300),
        cut in 0usize..300,
    ) {
        use atgis_formats::geojson::lexer;
        use atgis_transducer::Mergeable;

        let cut = cut.min(input.len());
        let merged = lexer::lex_block(&input[..cut], 0)
            .merge(lexer::lex_block(&input[cut..], cut as u64));
        let whole = lexer::lex_block(&input, 0);
        prop_assert_eq!(merged, whole);
    }
}

#[test]
fn synth_skew_datasets_parse_in_both_modes() {
    for sigma in [0.5, 2.0, 4.0] {
        let ds = SynthConfig {
            objects: 40,
            sigma,
            mu: 3.0,
            seed: 77,
            multipolygon_fraction: 0.2,
        }
        .generate();
        let data = Dataset::from_bytes(write_geojson(&ds), Format::GeoJson);
        let q = Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0));
        let pat = Engine::builder()
            .mode(Mode::Pat)
            .build()
            .exec1(&q, &data)
            .unwrap();
        let fat = Engine::builder()
            .mode(Mode::Fat)
            .threads(3)
            .build()
            .exec1(&q, &data)
            .unwrap();
        assert_eq!(pat.matches(), fat.matches(), "sigma={sigma}");
        assert_eq!(pat.matches().len(), 40);
    }
}

#[test]
fn empty_dataset_is_handled_everywhere() {
    let empty_json = Dataset::from_bytes(
        br#"{"type":"FeatureCollection","features":[]}"#.to_vec(),
        Format::GeoJson,
    );
    let empty_wkt = Dataset::from_bytes(Vec::new(), Format::Wkt);
    let e = Engine::builder().threads(2).build();
    let region = Mbr::new(-180.0, -90.0, 180.0, 90.0);
    for ds in [&empty_json, &empty_wkt] {
        assert!(e
            .exec1(&Query::containment(region), ds)
            .unwrap()
            .matches()
            .is_empty());
        assert_eq!(
            e.exec1(&Query::aggregation(region), ds)
                .unwrap()
                .aggregate()
                .unwrap()
                .count,
            0
        );
        assert!(e.exec1(&Query::join(10), ds).unwrap().joined().is_empty());
    }
}

#[test]
fn malformed_input_reports_errors_not_panics() {
    let garbage = Dataset::from_bytes(b"this is not geojson at all {{{".to_vec(), Format::GeoJson);
    let e = Engine::builder().threads(2).build();
    let q = Query::containment(Mbr::new(-1.0, -1.0, 1.0, 1.0));
    // Garbage contains no feature marker: PAT yields zero features
    // (nothing to parse); truncated real features must error.
    let _ = e.exec1(&q, &garbage);
    let truncated = Dataset::from_bytes(
        br#"{"type":"FeatureCollection","features":[{"type":"Feature","geometry":{"type":"Point","coordi"#.to_vec(),
        Format::GeoJson,
    );
    let r = e.exec1(&q, &truncated);
    assert!(r.is_err(), "truncated feature must surface an error");
    let bad_wkt = Dataset::from_bytes(b"1\tPOLYGON((broken\t\n".to_vec(), Format::Wkt);
    assert!(e.exec1(&q, &bad_wkt).is_err());
}

#[test]
fn combined_query_upper_bounded_by_plain_join() {
    let ds = geojson_dataset(901, 80);
    let e = Engine::builder()
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .build();
    let join_pairs = e.exec1(&Query::join(40), &ds).unwrap().joined().len() as u64;
    match e
        .exec1(&Query::combined(40, 0.0, f64::INFINITY), &ds)
        .unwrap()
    {
        atgis::QueryResult::Combined { pairs, .. } => {
            assert_eq!(pairs, join_pairs, "no-op filters keep all pairs")
        }
        other => panic!("{other:?}"),
    }
}
