//! L2 blocking A/B bench: blocked vs unblocked fused epochs.
//!
//! One communication-free fused f64 statement over a 4M-element section
//! on p = 2 (16 MiB per node ≫ any L2). The blocked arm is the production
//! path, `assign_expr`, whose program pipelines stage→apply through
//! L2-sized blocks ([`fuse::epoch_block_elems`]). The unblocked arm runs
//! the same statement's block-0 program (`fuse::cached_program(.., 0)` +
//! [`FusedStatement::execute`]), which stages the whole section per
//! epoch. The arms are sampled round-robin. Blocked must win
//! (`MIN_BLOCKED_OVER_UNBLOCKED`).
//!
//! The report (`BENCH_tune.json`, schema `bcag-tune/v2`) carries median
//! latencies, the derived ratio and an `slo` block `ci.sh` gates merges
//! on. Flags: `--quick`, `--json <path>`; unknown flags ignored.
//!
//! [`FusedStatement::execute`]: bcag_spmd::fuse::FusedStatement::execute

use std::hint::black_box;
use std::time::Instant;

use bcag_core::section::RegularSection;
use bcag_core::tune;
use bcag_harness::bench::default_report_dir;
use bcag_harness::json::Json;
use bcag_spmd::{assign_expr, fuse, pool, transport, DistArray, ExecMode};

/// Committed SLO for the full profile (see module docs).
const MIN_BLOCKED_OVER_UNBLOCKED: f64 = 1.0;

const P: i64 = 2;
const K: i64 = 64;

/// Round-robin A/B sampler: one timed sample per variant per round, so
/// slow drift on a shared host (frequency scaling, neighbors) lands on
/// every variant alike instead of biasing whichever measured last.
/// Returns per-variant median ns.
fn interleaved_median_ns<const V: usize>(
    warmup: usize,
    iters: usize,
    mut f: impl FnMut(usize),
) -> [u64; V] {
    for _ in 0..warmup {
        for v in 0..V {
            f(v);
        }
    }
    let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(iters); V];
    for _ in 0..iters {
        for (v, lane) in samples.iter_mut().enumerate() {
            let t = Instant::now();
            f(v);
            lane.push(t.elapsed().as_nanos() as u64);
        }
    }
    std::array::from_fn(|v| {
        samples[v].sort_unstable();
        samples[v][iters / 2]
    })
}

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
    let block = fuse::epoch_block_elems::<f64>(&sec);
    let unblocked = fuse::cached_program::<f64>(
        P,
        K,
        &sec,
        &[(K, sec)],
        ExecMode::Batched,
        transport::active_transport(),
        0,
    )
    .unwrap();
    let [blocked_ns, unblocked_ns] = interleaved_median_ns::<2>(warmup, iters, |v| {
        if v == 0 {
            assign_expr(&mut dst, &sec, &[(&src, sec)], body).unwrap();
        } else {
            unblocked.execute(
                &mut dst,
                &[&src],
                body,
                pool::default_launch(),
                transport::active_transport(),
            );
        }
        black_box(dst.local(0).len());
    });
    let blocked_over_unblocked = unblocked_ns as f64 / blocked_ns.max(1) as f64;

    println!(
        "locality_tuning: p={P} k={K} n={nn} iters={iters} l2={}KiB block={block} (median ns)",
        tune::l2_bytes() / 1024
    );
    println!("  xfer_gt_l2 blocked {blocked_ns:>10}  unblocked {unblocked_ns:>10}");
    println!(
        "  blocked_over_unblocked = {blocked_over_unblocked:.2}x (floor {MIN_BLOCKED_OVER_UNBLOCKED:.1}x)"
    );

    let report = Json::obj(vec![
        ("schema", Json::Str("bcag-tune/v2".into())),
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
                ("block_elems", Json::Int(block as i64)),
                ("blocked_ns", Json::Int(blocked_ns as i64)),
                ("unblocked_ns", Json::Int(unblocked_ns as i64)),
            ]),
        ),
        ("blocked_over_unblocked", Json::Num(blocked_over_unblocked)),
        (
            "slo",
            Json::obj(vec![
                (
                    "min_blocked_over_unblocked",
                    Json::Num(MIN_BLOCKED_OVER_UNBLOCKED),
                ),
                (
                    "blocked_within_slo",
                    Json::Bool(blocked_over_unblocked >= MIN_BLOCKED_OVER_UNBLOCKED),
                ),
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
