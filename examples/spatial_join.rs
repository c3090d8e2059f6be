//! Spatial join walkthrough: the two-pipeline PBSM join of §4.5 —
//! partition pass, join pass, duplicate elimination — plus the
//! combined query that wraps the join with filters and an aggregation.
//!
//! ```sh
//! cargo run --release --example spatial_join
//! ```

use atgis::{Dataset, Engine, ExecOptions, Query, QueryResult};
use atgis_datagen::{write_geojson, OsmGenerator};
use atgis_formats::Format;
use atgis_geometry::Mbr;

fn main() {
    let objects = OsmGenerator::new(99).generate(8_000);
    let dataset = Dataset::from_bytes(write_geojson(&objects), Format::GeoJson);
    let threshold = 4_000u64; // id < 4000 joins against id >= 4000.

    let engine = Engine::builder()
        .threads(4)
        .grid_extent(Mbr::new(-11.0, 39.0, 11.0, 61.0))
        .cell_size(1.0) // The paper's sweet spot is 0.5-1 degree (§5.6).
        .build();

    // Plain join: all intersecting (left, right) pairs.
    let out = engine
        .run(
            &[Query::join(threshold)],
            &dataset,
            &ExecOptions::new().timed(),
        )
        .expect("join failed");
    let stats = out.batch.clone().expect("timed run reports stats");
    let result = out.into_single().expect("join failed");
    let join_stats = stats.per_query[0].join.expect("join timings");
    println!("join: {} intersecting pairs", result.joined().len());
    println!(
        "  partition pipeline: {:?} (process {:?}, merge {:?})",
        join_stats.partition.total(),
        join_stats.partition.process,
        join_stats.partition.merge,
    );
    println!("  join pipeline:      {:?}", join_stats.join.total());
    println!("  dedup:              {:?}", join_stats.dedup);
    for pair in result.joined().iter().take(5) {
        println!(
            "  e.g. object {} intersects object {}",
            pair.left_id, pair.right_id
        );
    }

    // Combined query (Table 3): perimeter filters on both sides,
    // join, then SUM(ST_Area(ST_Union(d1, d2))) over the pairs.
    let q = Query::combined(threshold, 50.0, 1.0e6);
    let result = engine
        .run(std::slice::from_ref(&q), &dataset, &ExecOptions::new())
        .expect("combined failed")
        .into_single()
        .expect("combined failed");
    if let QueryResult::Combined {
        pairs,
        total_union_area,
    } = result
    {
        println!(
            "\ncombined: {pairs} filtered pairs, union area {:.3} km^2",
            total_union_area / 1e6
        );
    }
}
