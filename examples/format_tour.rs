//! Format tour: the same dataset serialised as GeoJSON, WKT and OSM
//! XML — the paper's claim that AT-GIS "operates efficiently on
//! multiple data formats" (§5.3). Every format splits at its record
//! marker; GeoJSON alone is also queried FAT, handling arbitrary
//! splits, since WKT and OSM XML always split at newlines.
//!
//! ```sh
//! cargo run --release --example format_tour
//! ```

use atgis::{Dataset, Engine, ExecOptions, Query};
use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator};
use atgis_formats::{Format, Mode};
use atgis_geometry::Mbr;

fn main() {
    let objects = OsmGenerator::new(3).generate(5_000);
    let datasets = [
        (
            "GeoJSON",
            Dataset::from_bytes(write_geojson(&objects), Format::GeoJson),
        ),
        ("WKT", Dataset::from_bytes(write_wkt(&objects), Format::Wkt)),
        (
            "OSM XML",
            Dataset::from_bytes(write_osm_xml(&objects), Format::OsmXml),
        ),
    ];
    let region = Mbr::new(-10.0, 40.0, 0.0, 50.0);
    let query = Query::containment(region);

    println!(
        "{:<8} {:>10} {:>15} {:>12} {:>10}",
        "format", "size(KB)", "marker (MB/s)", "FAT (MB/s)", "matches"
    );
    for (name, ds) in &datasets {
        let modes: &[Mode] = match ds.format() {
            Format::GeoJson => &[Mode::Pat, Mode::Fat],
            _ => &[Mode::Pat],
        };
        let mut row = Vec::new();
        let mut matches = 0;
        for &mode in modes {
            let engine = Engine::builder().threads(4).mode(mode).build();
            let started = std::time::Instant::now();
            let result = engine
                .run(std::slice::from_ref(&query), ds, &ExecOptions::new())
                .expect("query failed")
                .into_single()
                .expect("query failed");
            let elapsed = started.elapsed();
            matches = result.matches().len();
            row.push(ds.len() as f64 / 1e6 / elapsed.as_secs_f64().max(1e-9));
        }
        let fat = row.get(1).map_or("-".to_string(), |v| format!("{v:.1}"));
        println!(
            "{:<8} {:>10} {:>15.1} {:>12} {:>10}",
            name,
            ds.len() / 1024,
            row[0],
            fat,
            matches
        );
    }

    // The two GeoJSON splits must agree exactly — associativity is
    // correctness, not approximation.
    let g = &datasets[0].1;
    let pat = Engine::builder().mode(Mode::Pat).threads(3).build();
    let fat = Engine::builder().mode(Mode::Fat).threads(3).build();
    let opts = ExecOptions::new();
    let a = pat
        .run(std::slice::from_ref(&query), g, &opts)
        .and_then(|o| o.into_single())
        .expect("pat");
    let b = fat
        .run(std::slice::from_ref(&query), g, &opts)
        .and_then(|o| o.into_single())
        .expect("fat");
    assert_eq!(a.matches(), b.matches());
    println!(
        "\nGeoJSON PAT and FAT agree on {} matches — speculation is exact.",
        a.matches().len()
    );
}
