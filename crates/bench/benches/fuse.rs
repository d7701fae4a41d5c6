//! Fused-epoch bench: the statement path against hand-coded BLAS-1.
//!
//! Two shapes, both on the interpreter-facing [`assign_expr`] surface:
//!
//! * **triad** — `A(0:357:3) = B(2:240:2)·α + C(10:129:1) - D(1:239:2)`
//!   with four distinct blockings, the general mixed-layout statement:
//!   gather + exchange + apply compiled into one epoch. Reported for
//!   tracking; no gate binds on it.
//! * **axpy** — `Y(sec) = α·X(sec) + Y(sec)` on identical layouts, the
//!   shape [`bcag_spmd::blas1::axpy`] hand-codes as a pure local loop.
//!   The fused statement must stay within a small factor of it: that
//!   gap is the whole price of interpreting a script instead of calling
//!   the library. It runs twice: at n = 400 on p = 4, where dispatch
//!   dominates, and at n = 256K on p = 2 (the `large` row), past L2,
//!   where the statement's own memory traffic decides the ratio. The
//!   large row samples the two arms alternately, so host drift lands on
//!   both.
//!
//! The report (`BENCH_fuse.json`, schema `bcag-fuse/v2`) carries median
//! latencies for every measurement and an `slo` block `ci.sh` gates
//! merges on: both fused axpy rows must stay within
//! `MAX_FUSED_VS_BLAS1`× of hand-coded axpy. Flags: `--quick`,
//! `--json <path>`; unknown flags are ignored.

use std::hint::black_box;
use std::time::Instant;

use bcag_core::section::RegularSection;
use bcag_harness::bench::default_report_dir;
use bcag_harness::json::Json;
use bcag_spmd::{assign_expr, blas1, pool, DistArray};

/// Committed SLO for the full profile (see module docs).
const MAX_FUSED_VS_BLAS1: f64 = 2.0;

/// Two-arm round-robin sampler: one timed sample per arm per round, so
/// slow drift on a shared host lands on both arms alike. Returns each
/// arm's median ns.
fn interleaved_median_ns(warmup: usize, iters: usize, mut f: impl FnMut(usize)) -> [u64; 2] {
    for _ in 0..warmup {
        f(0);
        f(1);
    }
    let mut samples = [Vec::with_capacity(iters), Vec::with_capacity(iters)];
    for _ in 0..iters {
        for (arm, lane) in samples.iter_mut().enumerate() {
            let t = Instant::now();
            f(arm);
            lane.push(t.elapsed().as_nanos() as u64);
        }
    }
    samples.map(|mut lane| {
        lane.sort_unstable();
        lane[lane.len() / 2]
    })
}

fn median_ns(warmup: usize, iters: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
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
            other => eprintln!("fuse: ignoring unknown argument {other:?}"),
        }
    }
    let (warmup, iters) = if quick { (5, 40) } else { (60, 600) };
    let p = 4i64;
    let n = 400i64;
    let alpha = 3.0f64;
    pool::warm(p);

    // Triad: the mixed-layout statement of the statement tests.
    let sec_a = RegularSection::new(0, 357, 3).unwrap();
    let sec_b = RegularSection::new(2, 240, 2).unwrap();
    let sec_c = RegularSection::new(10, 129, 1).unwrap();
    let sec_d = RegularSection::new(1, 239, 2).unwrap();
    let bg: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let cg: Vec<f64> = (0..n).map(|i| (i * i % 97) as f64).collect();
    let b = DistArray::from_global(p, 5, &bg).unwrap();
    let c = DistArray::from_global(p, 16, &cg).unwrap();
    let d = DistArray::from_global(p, 7, &cg).unwrap();
    let mut a = DistArray::new(p, 8, n, 0.0f64).unwrap();
    let triad_fused_ns = median_ns(warmup, iters, || {
        assign_expr(
            &mut a,
            &sec_a,
            &[(&b, sec_b), (&c, sec_c), (&d, sec_d)],
            |v| v[0] * alpha + v[1] - v[2],
        )
        .unwrap();
        black_box(a.local(0).len());
    });

    // Axpy shape: identical layouts and sections, so hand-coded blas1
    // takes its pure-local fast path — the floor the fused statement is
    // measured against.
    let sec = RegularSection::new(0, n - 1, 1).unwrap();
    let x = DistArray::from_global(p, 8, &bg).unwrap();
    let mut y = DistArray::from_global(p, 8, &cg).unwrap();
    let y0 = y.clone();
    let axpy_fused_ns = median_ns(warmup, iters, || {
        assign_expr(&mut y, &sec, &[(&x, sec), (&y0, sec)], |v| {
            alpha * v[0] + v[1]
        })
        .unwrap();
        black_box(y.local(0).len());
    });
    let blas1_ns = median_ns(warmup, iters, || {
        blas1::axpy(alpha, &x, &sec, &mut y, &sec).unwrap();
        black_box(y.local(0).len());
    });

    let fused_vs_blas1 = axpy_fused_ns as f64 / blas1_ns.max(1) as f64;

    // The large row: the same axpy at n = 256K on p = 2.
    let (lp, ln) = (2i64, 1i64 << 18);
    let (lwarmup, liters) = if quick { (2, 10) } else { (20, 200) };
    pool::warm(lp);
    let lsec = RegularSection::new(0, ln - 1, 1).unwrap();
    let lxg: Vec<f64> = (0..ln).map(|i| (i % 1021) as f64).collect();
    let lyg: Vec<f64> = (0..ln).map(|i| (i * i % 97) as f64).collect();
    let lx = DistArray::from_global(lp, 8, &lxg).unwrap();
    let mut ly = DistArray::from_global(lp, 8, &lyg).unwrap();
    let ly0 = ly.clone();
    let [large_fused_ns, large_blas1_ns] = interleaved_median_ns(lwarmup, liters, |arm| {
        if arm == 0 {
            assign_expr(&mut ly, &lsec, &[(&lx, lsec), (&ly0, lsec)], |v| {
                alpha * v[0] + v[1]
            })
            .unwrap();
        } else {
            blas1::axpy(alpha, &lx, &lsec, &mut ly, &lsec).unwrap();
        }
        black_box(ly.local(0).len());
    });
    let large_fused_vs_blas1 = large_fused_ns as f64 / large_blas1_ns.max(1) as f64;

    println!("fuse: p={p} n={n} iters={iters} (median ns)");
    println!("  triad fused      {triad_fused_ns:>10}");
    println!("  axpy  fused      {axpy_fused_ns:>10}");
    println!("  axpy  blas1      {blas1_ns:>10}");
    println!("  fused_vs_blas1         = {fused_vs_blas1:.2}x (ceiling {MAX_FUSED_VS_BLAS1:.1}x)");
    println!("fuse: p={lp} n={ln} iters={liters} (median ns, alternating arms)");
    println!("  axpy  fused      {large_fused_ns:>10}");
    println!("  axpy  blas1      {large_blas1_ns:>10}");
    println!(
        "  large_fused_vs_blas1   = {large_fused_vs_blas1:.2}x (ceiling {MAX_FUSED_VS_BLAS1:.1}x)"
    );

    let report = Json::obj(vec![
        ("schema", Json::Str("bcag-fuse/v2".into())),
        ("bench", Json::Str("fuse".into())),
        ("quick", Json::Bool(quick)),
        ("p", Json::Int(p)),
        ("n", Json::Int(n)),
        ("iters", Json::Int(iters as i64)),
        ("triad_fused_ns", Json::Int(triad_fused_ns as i64)),
        ("axpy_fused_ns", Json::Int(axpy_fused_ns as i64)),
        ("blas1_ns", Json::Int(blas1_ns as i64)),
        ("fused_vs_blas1", Json::Num(fused_vs_blas1)),
        (
            "large",
            Json::obj(vec![
                ("p", Json::Int(lp)),
                ("n", Json::Int(ln)),
                ("iters", Json::Int(liters as i64)),
                ("axpy_fused_ns", Json::Int(large_fused_ns as i64)),
                ("blas1_ns", Json::Int(large_blas1_ns as i64)),
                ("large_fused_vs_blas1", Json::Num(large_fused_vs_blas1)),
            ]),
        ),
        (
            "slo",
            Json::obj(vec![
                ("max_fused_vs_blas1", Json::Num(MAX_FUSED_VS_BLAS1)),
                (
                    "blas1_within_slo",
                    Json::Bool(fused_vs_blas1 <= MAX_FUSED_VS_BLAS1),
                ),
                (
                    "large_within_slo",
                    Json::Bool(large_fused_vs_blas1 <= MAX_FUSED_VS_BLAS1),
                ),
            ]),
        ),
    ]);
    let path = json_path.unwrap_or_else(|| default_report_dir().join("fuse.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&path, report.to_pretty_string()).expect("write report");
    println!("fuse: report -> {}", path.display());
}
