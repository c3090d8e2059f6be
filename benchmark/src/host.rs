//! The host record printed with every output: numbers from different
//! machines, SIMD levels or compilers must never be compared silently.

use crate::json::Value;
use crate::spec;
use std::process::Command;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host, build and frozen-size record for one invocation.
pub fn record(seed: u64, smoke: bool) -> Value {
    let sizes = Value::obj(spec::WORKLOADS.iter().map(|w| {
        let objects = if smoke { w.smoke_objects } else { w.objects };
        (
            w.name,
            Value::obj([
                ("objects", Value::Num(objects as f64)),
                (
                    "min_ops",
                    Value::Num(if smoke {
                        spec::SMOKE_MIN_OPS
                    } else {
                        w.min_ops
                    } as f64),
                ),
            ]),
        )
    }));
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        (
            "simd_kernel",
            Value::str(atgis_transducer::simd::kernel().name()),
        ),
        (
            "ATGIS_NO_SIMD",
            std::env::var("ATGIS_NO_SIMD").map_or(Value::Null, Value::Str),
        ),
        ("rustc", Value::str(first_line_of("rustc", &["--version"]))),
        // The driver's checkout is not a git repository: "unknown" there.
        (
            "git_commit",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("engine_threads", Value::Num(spec::ENGINE_THREADS as f64)),
        ("seed", Value::Num(seed as f64)),
        ("smoke", Value::Bool(smoke)),
        ("sizes", sizes),
    ])
}

/// Concurrent numbers on a one-core host say nothing about
/// parallelism; say so instead of publishing them quietly.
pub fn warn_if_undersized() {
    if nproc() < 2 {
        eprintln!(
            "WARNING: nproc = {} < 2 — every concurrent number in this output (serve_closed, \
             core.engine.run_2t_mbps, core.engine.speedup_2t) is UNFALSIFIABLE on this host.",
            nproc()
        );
    }
}
