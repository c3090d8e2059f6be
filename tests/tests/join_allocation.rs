//! A cold join's partition index costs memory in proportion to its
//! entries, not to its grid: a counting `#[global_allocator]` bounds
//! what one cold `QuerySession` join over 200 WKT objects allocates on
//! the default 1° world grid (64 800 cells, a few dozen of them
//! occupied).
//!
//! The count is per thread and the engine runs on one thread, so every
//! block scan, the seal and the join stage run inline on the test
//! thread, and the test harness's own allocations on other threads do
//! not reach it.

use atgis::{Dataset, Engine, ExecOptions, Query, QuerySession};
use atgis_datagen::{write_wkt, OsmGenerator};
use atgis_formats::Format;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a
// const-initialised thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and allocated bytes on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (n0, bytes0) = ALLOCATED.with(Cell::get);
    let out = f();
    let (n1, bytes1) = ALLOCATED.with(Cell::get);
    (out, n1 - n0, bytes1 - bytes0)
}

fn wkt(seed: u64, objects: usize) -> Dataset {
    Dataset::from_bytes(
        write_wkt(&OsmGenerator::new(seed).generate(objects)),
        Format::Wkt,
    )
}

fn cold_join(dataset: &Dataset, objects: u64) -> usize {
    let session = QuerySession::new(Engine::builder().threads(1).build(), dataset.clone());
    let out = session
        .run(&[Query::join(objects / 2)], &ExecOptions::new())
        .and_then(|o| o.collapse())
        .expect("join runs");
    out[0].joined().len()
}

#[test]
fn a_cold_join_allocates_in_proportion_to_its_entries() {
    // Lazily built process state (the worker pool, the scanner's
    // tables) is paid by a first join over other bytes.
    cold_join(&wkt(7, 50), 50);

    const OBJECTS: usize = 200;
    let dataset = wkt(2016, OBJECTS);
    let (pairs, n, bytes) = allocations(|| cold_join(&dataset, OBJECTS as u64));
    println!(
        "{} bytes of WKT, {pairs} pairs: {n} allocations, {bytes} bytes",
        dataset.len()
    );
    assert!(pairs > 0, "the join must do work");
    assert!(
        bytes < 1 << 20,
        "a cold join over {OBJECTS} objects allocated {bytes} bytes in {n} allocations"
    );
}
