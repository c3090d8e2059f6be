//! `relate::intersects` and `PreparedRegion::intersects` allocate
//! nothing on points, linestrings, polygons, multipolygons and flat
//! collections: a counting `#[global_allocator]` sees no allocation
//! while they run. Only a collection that nests another needs memory,
//! for the stack of the vertex-run walk.
//!
//! The count is per thread, so the test harness's own allocations on
//! other threads do not reach it.

use atgis_geometry::relate::intersects;
use atgis_geometry::{Geometry, LineString, Mbr, MultiPolygon, Point, Polygon, PreparedRegion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn star(cx: f64, cy: f64, r: f64, n: usize) -> Polygon {
    Polygon::from_exterior(
        (0..n)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / n as f64;
                let r = if i % 2 == 0 { r } else { r * 0.5 };
                Point::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect(),
    )
}

fn shapes() -> Vec<Geometry> {
    let holed = Polygon::new(
        star(0.0, 0.0, 3.0, 12).exterior,
        vec![Polygon::from_mbr(&Mbr::new(-0.5, -0.5, 0.5, 0.5))
            .exterior
            .normalised_cw()],
    );
    vec![
        Geometry::Point(Point::new(0.25, 0.25)),
        Geometry::Point(Point::new(9.0, 9.0)),
        Geometry::LineString(LineString::new(vec![
            Point::new(-4.0, 0.1),
            Point::new(4.0, 0.2),
            Point::new(4.0, 4.0),
        ])),
        Geometry::LineString(LineString::new(vec![
            Point::new(0.1, 0.1),
            Point::new(0.2, 0.3),
        ])),
        Geometry::Polygon(star(1.0, 1.0, 2.0, 10)),
        Geometry::Polygon(holed),
        Geometry::Polygon(Polygon::from_mbr(&Mbr::new(-1.0, -1.0, 1.0, 1.0))),
        // A far member first and a member inside the others second,
        // so that every vertex run is probed.
        Geometry::MultiPolygon(MultiPolygon::new(vec![
            star(20.0, 20.0, 1.0, 6),
            star(0.0, 0.0, 0.2, 6),
        ])),
        Geometry::MultiPolygon(MultiPolygon::new(vec![
            star(-2.0, 2.0, 1.0, 8),
            star(2.0, -2.0, 1.0, 8),
        ])),
        Geometry::Collection(vec![
            Geometry::Point(Point::new(30.0, 30.0)),
            Geometry::Polygon(star(0.0, 0.5, 0.3, 6)),
            Geometry::LineString(LineString::new(vec![
                Point::new(-3.0, -3.0),
                Point::new(-2.0, -3.5),
            ])),
        ]),
    ]
}

#[test]
fn predicates_allocate_nothing_without_nested_collections() {
    let shapes = shapes();
    let regions: Vec<PreparedRegion> = shapes
        .iter()
        .filter_map(|g| match g {
            Geometry::Polygon(p) => Some(PreparedRegion::new(p.clone())),
            _ => None,
        })
        .chain([PreparedRegion::new(star(0.5, 0.0, 2.5, 9))])
        .collect();
    let mbrs: Vec<Mbr> = shapes.iter().map(Geometry::mbr).collect();
    let (hits, n) = allocations(|| {
        let mut hits = 0usize;
        for a in &shapes {
            for b in &shapes {
                hits += intersects(a, b) as usize;
            }
        }
        for region in &regions {
            for (g, mbr) in shapes.iter().zip(&mbrs) {
                hits += region.intersects(g, mbr) as usize;
            }
        }
        hits
    });
    assert_eq!(n, 0, "allocations during {hits} true answers");
    // Both answers occur, so both paths ran.
    let pairs = shapes.len() * shapes.len() + regions.len() * shapes.len();
    assert!(hits > 0 && hits < pairs, "{hits} of {pairs}");

    // The harness does see allocations: a nested collection needs one.
    let nested = Geometry::Collection(vec![Geometry::Collection(vec![shapes[0].clone()])]);
    let (_, n) = allocations(|| intersects(&nested, &shapes[4]));
    assert!(n > 0);
}
