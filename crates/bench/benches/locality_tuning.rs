//! Large-statement bench: one communication-free fused f64 statement
//! over a 4M-element section on p = 2 (16 MiB per node ≫ any L2), timed
//! as the production path runs it, through [`assign_expr`]. Each node
//! reads its operand in place and writes its LHS image once, so the
//! statement streams 64 MiB per epoch and its latency tracks the host's
//! memory bandwidth. The latency is reported for tracking; no gate binds
//! on it.
//!
//! The report (`BENCH_tune.json`, schema `bcag-tune/v3`) carries the
//! median latency. Flags: `--quick`, `--json <path>`; unknown flags
//! ignored.

use std::hint::black_box;
use std::time::Instant;

use bcag_core::section::RegularSection;
use bcag_core::tune;
use bcag_harness::bench::default_report_dir;
use bcag_harness::json::Json;
use bcag_spmd::{assign_expr, pool, DistArray};

const P: i64 = 2;
const K: i64 = 64;

fn body(v: &[f64]) -> f64 {
    v[0] * 1.0001 + 0.5
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = args.next().map(Into::into),
            "--bench" => {}
            other => eprintln!("locality_tuning: ignoring unknown argument {other:?}"),
        }
    }
    let (warmup, iters) = if quick { (1, 5) } else { (3, 30) };

    let nn = 4i64 << 20;
    pool::warm(P);
    let sec = RegularSection::new(0, nn - 1, 1).unwrap();
    let data: Vec<f64> = (0..nn).map(|i| (i % 8191) as f64).collect();
    let src = DistArray::from_global(P, K, &data).unwrap();
    let mut dst = DistArray::from_global(P, K, &data).unwrap();
    let mut run = || {
        assign_expr(&mut dst, &sec, &[(&src, sec)], body).unwrap();
        black_box(dst.local(0).len());
    };
    for _ in 0..warmup {
        run();
    }
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let epoch_ns = samples[iters / 2];

    println!("locality_tuning: p={P} k={K} n={nn} iters={iters} (median ns)");
    println!("  xfer_gt_l2 epoch {epoch_ns:>10}");

    let report = Json::obj(vec![
        ("schema", Json::Str("bcag-tune/v3".into())),
        ("bench", Json::Str("locality_tuning".into())),
        ("quick", Json::Bool(quick)),
        ("p", Json::Int(P)),
        ("k", Json::Int(K)),
        ("iters", Json::Int(iters as i64)),
        ("l2_kb", Json::Int((tune::l2_bytes() / 1024) as i64)),
        (
            "xfer_gt_l2",
            Json::obj(vec![
                ("elements", Json::Int(nn)),
                ("epoch_ns", Json::Int(epoch_ns as i64)),
            ]),
        ),
    ]);
    let path = json_path.unwrap_or_else(|| default_report_dir().join("locality_tuning.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&path, report.to_pretty_string()).expect("write report");
    println!("locality_tuning: report -> {}", path.display());
}
