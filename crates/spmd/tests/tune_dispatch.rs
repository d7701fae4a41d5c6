//! Randomized differential suite: self-tuning dispatch vs forced modes.
//!
//! The tuner ([`bcag_core::tune`]) picks pack strategy, code shape and
//! transfer blocking from measured line utilization — but its promise is
//! purely about speed: every decision must be bit-exact with both forced
//! modes. These properties draw random layouts and sections, run the
//! tuned path against forced `Runs` and forced `PerElement` (pack and
//! unpack, element types of three widths), run whole statements under
//! `TuneMode::Auto` vs `TuneMode::Fixed` across transports against the
//! sequential oracle, force blocking with a shrunken L2 on a >L2
//! transfer, and pin the decision function's determinism (the
//! cache-safety property).

use std::sync::Mutex;

use bcag_core::locality::analyze_lines;
use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_core::tune::{self, TuneMode};
use bcag_harness::prop::{self, Config};
use bcag_harness::rng::Rng;
use bcag_spmd::fuse::{self, assign_fused_on};
use bcag_spmd::pack::{pack_with_buf_mode, unpack_mode, PackMode};
use bcag_spmd::pool::LaunchMode;
use bcag_spmd::{DistArray, TransportKind};

/// The tune default and the resolved L2 size are process-global;
/// every test that flips one serializes on this lock (other test
/// binaries are separate processes).
static TUNE_LOCK: Mutex<()> = Mutex::new(());

fn lock_tune() -> std::sync::MutexGuard<'static, ()> {
    TUNE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under the given tune mode, restoring the previous default
/// afterwards (caller holds [`TUNE_LOCK`]).
fn with_tune<R>(mode: TuneMode, f: impl FnOnce() -> R) -> R {
    let before = tune::default_tune();
    tune::set_default_tune(mode);
    let r = f();
    tune::set_default_tune(before);
    r
}

/// One random pack shape: a layout plus a section, skewed toward the
/// strided/sparse structures where tuned dispatch actually flips modes.
#[derive(Debug, Clone)]
struct PackCase {
    p: i64,
    k: i64,
    n: i64,
    sec: RegularSection,
}

fn random_pack_case(rng: &mut Rng) -> PackCase {
    let p = rng.random_range(1..=4);
    let k = rng.random_range(1..=12);
    let count = rng.random_range(1..=60);
    // Strides past k produce the gap-table structures (s = k+1 pair
    // runs, wide uniform gaps) whose decisions differ from dense.
    let stride = rng.random_range(1..=17);
    let lo = rng.random_range(0..=19);
    let hi = lo + (count - 1) * stride;
    let n = hi + 1 + rng.random_range(0..=7);
    PackCase {
        p,
        k,
        n,
        sec: RegularSection::new(lo, hi, stride).unwrap(),
    }
}

/// Packs every node's share under all three modes and asserts identical
/// buffers; then unpacks one buffer through each mode into separate
/// destination arrays and asserts identical global images.
fn pack_differential<T>(case: &PackCase, value: impl Fn(i64) -> T)
where
    T: bcag_spmd::PackValue + std::fmt::Debug + PartialEq + Default,
{
    let base: Vec<T> = (0..case.n).map(&value).collect();
    let arr = DistArray::from_global(case.p, case.k, &base).unwrap();
    let modes = [PackMode::Runs, PackMode::PerElement, PackMode::Tuned];
    for m in 0..case.p {
        let mut bufs: Vec<Vec<T>> = Vec::new();
        for mode in modes {
            let mut out = Vec::new();
            pack_with_buf_mode(&arr, &case.sec, m, Method::Lattice, mode, &mut out).unwrap();
            bufs.push(out);
        }
        assert_eq!(bufs[0], bufs[1], "runs vs per-element pack, node {m}");
        assert_eq!(bufs[0], bufs[2], "runs vs tuned pack, node {m}");
        // Unpacking the same buffer through each mode must land the
        // same elements at the same addresses.
        let fill: Vec<T> = (0..case.n).map(|_| T::default()).collect();
        let mut globals: Vec<Vec<T>> = Vec::new();
        for mode in modes {
            let mut dst = DistArray::from_global(case.p, case.k, &fill).unwrap();
            unpack_mode(&mut dst, &case.sec, m, Method::Lattice, mode, &bufs[0]).unwrap();
            globals.push(dst.to_global());
        }
        assert_eq!(
            globals[0], globals[1],
            "runs vs per-element unpack, node {m}"
        );
        assert_eq!(globals[0], globals[2], "runs vs tuned unpack, node {m}");
    }
}

#[test]
fn tuned_pack_matches_forced_modes_i64() {
    prop::check("tune-pack-i64", &prop::from_fn(random_pack_case), |case| {
        pack_differential(case, |i| i * 37 - 11)
    });
}

#[test]
fn tuned_pack_matches_forced_modes_u8() {
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "tune-pack-u8",
        &prop::from_fn(random_pack_case),
        |case| pack_differential(case, |i| (i * 13 % 251) as u8),
    );
}

#[test]
fn tuned_pack_matches_forced_modes_f64x4() {
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "tune-pack-f64x4",
        &prop::from_fn(random_pack_case),
        |case| {
            pack_differential(case, |i| {
                [i as f64, i as f64 * 0.5, -(i as f64), 1.0 / (i + 1) as f64]
            })
        },
    );
}

/// One random statement shape for the Auto-vs-Fixed differential.
#[derive(Debug, Clone)]
struct StmtCase {
    p: i64,
    k_a: i64,
    k_b: i64,
    n: i64,
    sec_a: RegularSection,
    sec_b: RegularSection,
    kind: TransportKind,
}

fn random_stmt_case(rng: &mut Rng) -> StmtCase {
    let p = rng.random_range(1..=4);
    let k_a = rng.random_range(1..=10);
    let k_b = rng.random_range(1..=10);
    let count = rng.random_range(1..=48);
    let section = |rng: &mut Rng| {
        let stride = rng.random_range(1..=13);
        let lo = rng.random_range(0..=19);
        let hi = lo + (count - 1) * stride;
        (hi, RegularSection::new(lo, hi, stride).unwrap())
    };
    let (hi_a, sec_a) = section(rng);
    let (hi_b, sec_b) = section(rng);
    let n = hi_a.max(hi_b) + 1 + rng.random_range(0..=5);
    let kind = *rng.choice(&TransportKind::ALL);
    StmtCase {
        p,
        k_a,
        k_b,
        n,
        sec_a,
        sec_b,
        kind,
    }
}

/// The statement's inputs: the LHS image before it runs, and `B`.
fn stmt_inputs(case: &StmtCase) -> (Vec<f64>, Vec<f64>) {
    let base = (0..case.n)
        .map(|i| (i * 7 % 97) as f64 * 0.5 - 9.0)
        .collect();
    let b = (0..case.n).map(|i| (i * 11 % 89) as f64 * 0.25).collect();
    (base, b)
}

fn body(args: &[f64]) -> f64 {
    2.0 * args[0] + 0.25
}

/// Runs `A(sec_a) = 2·B(sec_b) + 0.25` under one tune mode and returns
/// the global image.
fn run_stmt(case: &StmtCase, mode: TuneMode) -> Vec<f64> {
    let (base, b_vals) = stmt_inputs(case);
    let mut a = DistArray::from_global(case.p, case.k_a, &base).unwrap();
    let b = DistArray::from_global(case.p, case.k_b, &b_vals).unwrap();
    with_tune(mode, || {
        assign_fused_on(
            &mut a,
            &case.sec_a,
            &[(&b, case.sec_b)],
            body,
            LaunchMode::Pooled,
            case.kind,
        )
        .unwrap();
    });
    a.to_global()
}

/// Whole statements must compute the oracle's image bit for bit whether
/// the tuner is honored (`Auto`) or the historical fixed defaults run
/// (`Fixed`), on every transport.
#[test]
fn tuned_statements_match_fixed_dispatch() {
    let _serial = lock_tune();
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "tune-stmt-auto-vs-fixed",
        &prop::from_fn(random_stmt_case),
        |case| {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut want, b) = stmt_inputs(case);
            for (ia, ib) in case.sec_a.iter().zip(case.sec_b.iter()) {
                want[ia as usize] = body(&[b[ib as usize]]);
            }
            let fixed = run_stmt(case, TuneMode::Fixed);
            let auto = run_stmt(case, TuneMode::Auto);
            assert_eq!(bits(&fixed), bits(&want), "fixed vs oracle: {case:?}");
            assert_eq!(bits(&auto), bits(&want), "auto vs oracle: {case:?}");
        },
    );
}

/// Forces blocking with a 32 KiB L2 override on a >L2 f64 transfer
/// (comm-bearing and communication-free variants) and asserts the
/// blocked epochs stay bit-exact with the unblocked fixed path. Uses
/// section shapes unique to this test: decisions and programs are
/// cached per shape, so stale entries from other tests can't mask the
/// small-L2 compile.
#[test]
fn blocked_auto_statements_stay_bit_exact() {
    let _serial = lock_tune();
    let orig_l2 = tune::l2_bytes();
    tune::set_l2_bytes(32 * 1024);

    let n = 90_001i64;
    let sec = RegularSection::new(1, 88_887, 2).unwrap(); // 44 444 f64 ≈ 355 KiB ≫ 32 KiB
    let base: Vec<f64> = (0..n).map(|i| (i % 1013) as f64 * 0.125 - 3.0).collect();
    let f = |args: &[f64]| args[0] * 1.5 - 0.5;

    // Comm-bearing: k_a ≠ k_b redistributes, so the blocked sends and
    // the per-src block-cursor recv routing are exercised.
    for (k_a, k_b) in [(7i64, 5i64), (64, 64)] {
        let b = DistArray::from_global(3, k_b, &base).unwrap();
        let mut fixed = DistArray::from_global(3, k_a, &base).unwrap();
        with_tune(TuneMode::Fixed, || {
            assign_fused_on(
                &mut fixed,
                &sec,
                &[(&b, sec)],
                f,
                LaunchMode::Pooled,
                TransportKind::Mpsc,
            )
            .unwrap();
        });
        assert_eq!(
            fuse::last_blocked(),
            Some(false),
            "fixed mode must compile unblocked"
        );
        let mut auto = DistArray::from_global(3, k_a, &base).unwrap();
        with_tune(TuneMode::Auto, || {
            assign_fused_on(
                &mut auto,
                &sec,
                &[(&b, sec)],
                f,
                LaunchMode::Pooled,
                TransportKind::Mpsc,
            )
            .unwrap();
        });
        assert_eq!(
            fuse::last_blocked(),
            Some(true),
            "a {} KiB transfer against a 32 KiB L2 must block (k_a={k_a})",
            44_444 * 8 / 1024,
        );
        let (fg, ag) = (fixed.to_global(), auto.to_global());
        assert!(
            fg.iter().zip(&ag).all(|(a, b)| a.to_bits() == b.to_bits()),
            "blocked image diverges (k_a={k_a}, k_b={k_b})"
        );
    }

    tune::set_l2_bytes(orig_l2);
}

/// The cache-safety property, randomized: [`tune::decide_with`] is a
/// pure function — equal (stats, plan, element width, L2) always yield
/// the identical decision, so memoizing decisions beside their plans
/// can never serve a stale or divergent choice.
#[test]
fn decisions_are_deterministic_for_equal_inputs() {
    let gen = prop::from_fn(|rng: &mut Rng| {
        let k = rng.random_range(1..=16);
        let len = rng.random_range(1..=6) as usize;
        let gaps: Vec<i64> = (0..len).map(|_| rng.random_range(1..=(k + 9))).collect();
        let last = rng.random_range(100..=500_000);
        let eb = *rng.choice(&[1i64, 8, 32]) as usize;
        (gaps, last, eb)
    });
    prop::check("tune-decide-deterministic", &gen, |(gaps, last, eb)| {
        let plan = bcag_core::runs::RunPlan::compile(Some(0), *last, gaps);
        let stats = analyze_lines(&plan, *eb, tune::ANALYZE_BOUND);
        for l2 in [32 * 1024u64, 512 * 1024, 8 << 20] {
            let first = tune::decide_with(&stats, &plan, *eb, l2);
            let again = tune::decide_with(&stats.clone(), &plan, *eb, l2);
            assert_eq!(first, again, "same thread");
            let threaded = std::thread::scope(|s| {
                s.spawn(|| tune::decide_with(&stats, &plan, *eb, l2))
                    .join()
                    .unwrap()
            });
            assert_eq!(first, threaded, "across threads");
        }
    });
}
