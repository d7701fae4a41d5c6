//! Randomized suite: fused epochs vs the sequential global-index oracle.
//!
//! These properties draw random statement shapes — machine size, block
//! sizes, sections, operand count, transport — run the fused statement
//! and compare the full global image bit for bit (`f64` compares
//! `to_bits`, so `-0.0`/`NaN` drift would fail too) with a sequential
//! evaluation of the statement over global indices.
//! Operand counts span 0–4, so both the fixed-size argument arrays of
//! the monomorphized apply (0–3 operands) and its `Vec` fallback run,
//! over the element types the benchmarks move (`f64`, `i64`, `u8`,
//! `[f64; 4]`) and a payload without a wire format (`String`). Every
//! body is order-sensitive, so swapped or dropped operands fail.
//! One-operand shapes also run as copies. A panicking statement body
//! then checks the poison protocol clears a fused epoch and leaves the
//! pool reusable.

use bcag_core::section::RegularSection;
use bcag_harness::prop::{self, Config};
use bcag_harness::rng::Rng;
use bcag_spmd::fuse::{assign_copy_on, assign_fused_on};
use bcag_spmd::{DistArray, TransportKind};

/// One random statement shape.
#[derive(Debug, Clone)]
struct Case {
    p: i64,
    k_a: i64,
    n: i64,
    sec_a: RegularSection,
    /// Operand block sizes and sections (all conforming to `sec_a`).
    ops: Vec<(i64, RegularSection)>,
    kind: TransportKind,
}

fn random_section(rng: &mut Rng, count: i64) -> (i64, RegularSection) {
    let stride = rng.random_range(1..=5);
    let lo = rng.random_range(0..=23);
    let hi = lo + (count - 1) * stride;
    (hi, RegularSection::new(lo, hi, stride).unwrap())
}

fn random_case(rng: &mut Rng) -> Case {
    let p = rng.random_range(1..=5);
    let k_a = rng.random_range(1..=10);
    let count = rng.random_range(1..=48);
    let (mut max_hi, sec_a) = random_section(rng, count);
    let nops = rng.random_range(0..=4);
    let mut ops = Vec::with_capacity(nops as usize);
    for _ in 0..nops {
        let k_b = rng.random_range(1..=10);
        let (hi, sec_b) = random_section(rng, count);
        max_hi = max_hi.max(hi);
        ops.push((k_b, sec_b));
    }
    let n = max_hi + 1 + rng.random_range(0..=9);
    let kind = *rng.choice(&TransportKind::ALL);
    Case {
        p,
        k_a,
        n,
        sec_a,
        ops,
        kind,
    }
}

/// The sequential reference: `A(sec_a) = f(ops…)` evaluated rank by
/// rank over plain global arrays.
fn oracle<T: Clone>(
    base: &[T],
    sec_a: &RegularSection,
    ops: &[(Vec<T>, RegularSection)],
    f: impl Fn(&[T]) -> T,
) -> Vec<T> {
    let mut out = base.to_vec();
    for t in 0..sec_a.count() {
        let args: Vec<T> = ops
            .iter()
            .map(|(g, s)| g[(s.l + t * s.s) as usize].clone())
            .collect();
        out[(sec_a.l + t * sec_a.s) as usize] = f(&args);
    }
    out
}

/// Runs one case through the fused statement over element type `T` and
/// compares the resulting global image with the oracle's using `eq`;
/// one-operand cases also run as a copy.
fn against_oracle<T, F>(
    case: &Case,
    value: impl Fn(i64, usize) -> T,
    f: F,
    eq: impl Fn(&T, &T) -> bool,
) where
    T: bcag_spmd::PackValue + std::fmt::Debug,
    F: Fn(&[T]) -> T + Sync + Copy,
{
    let base: Vec<T> = (0..case.n).map(|i| value(i, 0)).collect();
    let globals: Vec<(Vec<T>, RegularSection)> = case
        .ops
        .iter()
        .enumerate()
        .map(|(j, (_, s))| ((0..case.n).map(|i| value(i, j + 1)).collect(), *s))
        .collect();
    let op_arrays: Vec<DistArray<T>> = case
        .ops
        .iter()
        .zip(&globals)
        .map(|((k_b, _), (g, _))| DistArray::from_global(case.p, *k_b, g).unwrap())
        .collect();
    let operands: Vec<(&DistArray<T>, RegularSection)> = op_arrays
        .iter()
        .zip(&case.ops)
        .map(|(a, (_, s))| (a, *s))
        .collect();
    let same = |got: &[T], want: &[T], what: &str| {
        assert!(
            got.len() == want.len() && got.iter().zip(want).all(|(a, b)| eq(a, b)),
            "{what} diverges from the oracle\n got:  {got:?}\n want: {want:?}"
        );
    };
    let mut fused = DistArray::from_global(case.p, case.k_a, &base).unwrap();
    assign_fused_on(&mut fused, &case.sec_a, &operands, f, case.kind).unwrap();
    same(
        &fused.to_global(),
        &oracle(&base, &case.sec_a, &globals, f),
        "expression",
    );
    if let [(b, sec_b)] = operands[..] {
        let mut copied = DistArray::from_global(case.p, case.k_a, &base).unwrap();
        assign_copy_on(&mut copied, &case.sec_a, b, &sec_b, case.kind).unwrap();
        let want = oracle(&base, &case.sec_a, &globals, |v: &[T]| v[0].clone());
        same(&copied.to_global(), &want, "copy");
    }
}

#[test]
fn fused_matches_oracle_f64() {
    prop::check("fuse-oracle-f64", &prop::from_fn(random_case), |case| {
        against_oracle(
            case,
            |i, j| ((i * 7 + 13 * j as i64) % 113) as f64 * 0.25 - 3.5,
            |args: &[f64]| {
                args.iter()
                    .enumerate()
                    .map(|(j, v)| (j as f64 + 1.0) * v)
                    .sum::<f64>()
                    + 0.125
            },
            |a: &f64, b: &f64| a.to_bits() == b.to_bits(),
        );
    });
}

#[test]
fn fused_matches_oracle_i64() {
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-oracle-i64",
        &prop::from_fn(random_case),
        |case| {
            against_oracle(
                case,
                |i, j| i * 31 + 7 * j as i64 - 11,
                |args: &[i64]| {
                    args.iter().enumerate().fold(5i64, |acc, (j, v)| {
                        acc.wrapping_mul(3).wrapping_add(v * (j as i64 + 1))
                    })
                },
                |a: &i64, b: &i64| a == b,
            );
        },
    );
}

#[test]
fn fused_matches_oracle_u8() {
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-oracle-u8",
        &prop::from_fn(random_case),
        |case| {
            against_oracle(
                case,
                |i, j| (i * 7 + 31 * j as i64) as u8,
                |args: &[u8]| {
                    args.iter().enumerate().fold(5u8, |acc, (j, v)| {
                        acc.wrapping_mul(3)
                            .wrapping_add(v.wrapping_mul(2 * j as u8 + 1))
                    })
                },
                |a: &u8, b: &u8| a == b,
            );
        },
    );
}

#[test]
fn fused_matches_oracle_f64x4() {
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-oracle-f64x4",
        &prop::from_fn(random_case),
        |case| {
            against_oracle(
                case,
                |i, j| {
                    let (x, y) = (i as f64, j as f64);
                    [
                        x * 0.5,
                        y - x,
                        ((i * 13) % 17) as f64 * 0.25 + y,
                        1.0 / (x + 1.0),
                    ]
                },
                |args: &[[f64; 4]]| {
                    let mut out = [0.125, -1.0, 2.0, 0.0];
                    for (j, v) in args.iter().enumerate() {
                        for (c, o) in out.iter_mut().enumerate() {
                            *o = *o * 0.5 + v[(c + j) % 4] * (j as f64 + 1.0);
                        }
                    }
                    out
                },
                |a: &[f64; 4], b: &[f64; 4]| {
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                },
            );
        },
    );
}

/// `String` payloads have no fixed wire size (`WIRE_BYTES` is `None`),
/// so the fused epoch ships boxed in-memory messages on every fabric —
/// including the serializing `proc` fabric, where the wire fast path
/// must correctly step aside.
#[test]
fn fused_matches_oracle_strings() {
    let cfg = Config {
        cases: 24,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-oracle-string",
        &prop::from_fn(random_case),
        |case| {
            against_oracle(
                case,
                |i, j| format!("v{j}.{i}"),
                |args: &[String]| {
                    let mut out = String::from("(");
                    for a in args {
                        out.push_str(a);
                        out.push('|');
                    }
                    out.push(')');
                    out
                },
                |a: &String, b: &String| a == b,
            );
        },
    );
}

/// A statement body that panics mid-epoch must poison its peers, fail
/// the fused statement cleanly, and leave the pool and fabric reusable:
/// the very next fused statement on the same machine must run correctly.
#[test]
fn panic_poison_recovers_through_a_fused_epoch() {
    let n = 120i64;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let sec = RegularSection::new(0, n - 1, 1).unwrap();
    for kind in TransportKind::ALL {
        let src = DistArray::from_global(4, 7, &data).unwrap();
        let mut dst = DistArray::from_global(4, 5, &data).unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assign_fused_on(
                &mut dst,
                &sec,
                &[(&src, sec)],
                |args: &[f64]| {
                    if args[0] == 60.0 {
                        panic!("injected fused-epoch failure");
                    }
                    args[0]
                },
                kind,
            )
        }));
        assert!(
            boom.is_err(),
            "{}: the node panic must propagate",
            kind.name()
        );
        // Pool survived and the fabric is clean: the next fused
        // statement over the same machine computes the exact image.
        let mut again = DistArray::from_global(4, 5, &data).unwrap();
        assign_fused_on(
            &mut again,
            &sec,
            &[(&src, sec)],
            |args: &[f64]| args[0] * 2.0 + 1.0,
            kind,
        )
        .unwrap();
        let got = again.to_global();
        for i in 0..n {
            assert_eq!(
                got[i as usize],
                i as f64 * 2.0 + 1.0,
                "{} i={i}",
                kind.name()
            );
        }
    }
}

/// The fused path must snapshot operands before writing (`A = shift(A)`
/// through the same array): every read sees the pre-statement value.
#[test]
fn fused_self_assignment_snapshots() {
    let n = 100i64;
    let data: Vec<i64> = (0..n).collect();
    let mut a = DistArray::from_global(4, 4, &data).unwrap();
    let src = a.clone();
    let sec_dst = RegularSection::new(0, 89, 1).unwrap();
    let sec_src = RegularSection::new(10, 99, 1).unwrap();
    assign_fused_on(
        &mut a,
        &sec_dst,
        &[(&src, sec_src)],
        |args: &[i64]| args[0],
        TransportKind::Shm,
    )
    .unwrap();
    let g = a.to_global();
    for i in 0..90 {
        assert_eq!(g[i as usize], i + 10);
    }
    for i in 90..100 {
        assert_eq!(g[i as usize], i);
    }
}
