//! Randomized differential suite for pack/unpack and large statements
//! against the sequential global-index oracle.
//!
//! Pack and unpack are checked over random layouts and sections for
//! element types of three widths: each node's buffer must hold exactly
//! its section elements in global order, and unpacking must land them
//! back at their global indices. Whole statements run on every transport
//! and must reproduce the oracle's image bit for bit. A >L2 transfer runs
//! under a 1 GiB and a 32 KiB L2 setting; the L2 size no longer changes
//! the program, no epoch runs blocked, and both must match the oracle.

use std::sync::Mutex;

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_core::tune;
use bcag_harness::prop::{self, Config};
use bcag_harness::rng::Rng;
use bcag_spmd::fuse::{self, assign_fused_on};
use bcag_spmd::pack::{pack_with_buf, unpack};
use bcag_spmd::{DistArray, TransportKind};

/// The resolved L2 size and the last epoch's blocking note are
/// process-global: every test that runs a statement serializes on this
/// lock, so no epoch lands between another test's statement and its
/// [`fuse::last_blocked`] check (other test binaries are separate
/// processes).
static L2_LOCK: Mutex<()> = Mutex::new(());

fn lock_l2() -> std::sync::MutexGuard<'static, ()> {
    L2_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sequential global-index oracle for block-cyclic ownership: element
/// `i` of a `cyclic(k)` array on `p` nodes lives on node `(i / k) mod p`.
fn owner(i: i64, p: i64, k: i64) -> i64 {
    (i / k) % p
}

/// One random pack shape: a layout plus a section whose stride ranges
/// past `k`.
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
    // Strides past k produce the sparse gap-table structures: s = k+1
    // pair runs and wide uniform gaps.
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

/// Packs every node's share and asserts it equals the node's section
/// elements in global order; then unpacks each buffer into a fresh array
/// and asserts the section carries the data and everything else keeps
/// the fill value.
fn pack_oracle<T>(case: &PackCase, value: impl Fn(i64) -> T)
where
    T: bcag_spmd::PackValue + std::fmt::Debug + PartialEq + Default,
{
    let base: Vec<T> = (0..case.n).map(&value).collect();
    let arr = DistArray::from_global(case.p, case.k, &base).unwrap();
    let fill: Vec<T> = (0..case.n).map(|_| T::default()).collect();
    let mut rebuilt = DistArray::from_global(case.p, case.k, &fill).unwrap();
    let mut buf = Vec::new();
    for m in 0..case.p {
        pack_with_buf(&arr, &case.sec, m, Method::Lattice, &mut buf).unwrap();
        let want: Vec<T> = case
            .sec
            .iter()
            .filter(|&i| owner(i, case.p, case.k) == m)
            .map(|i| base[i as usize].clone())
            .collect();
        assert_eq!(buf, want, "packed buffer, node {m}");
        unpack(&mut rebuilt, &case.sec, m, Method::Lattice, &buf).unwrap();
    }
    let want: Vec<T> = (0..case.n)
        .map(|i| {
            if case.sec.contains(i) {
                base[i as usize].clone()
            } else {
                T::default()
            }
        })
        .collect();
    assert_eq!(rebuilt.to_global(), want, "rebuilt image");
}

#[test]
fn pack_matches_oracle_i64() {
    prop::check(
        "pack-oracle-i64",
        &prop::from_fn(random_pack_case),
        |case| pack_oracle(case, |i| i * 37 - 11),
    );
}

#[test]
fn pack_matches_oracle_u8() {
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "pack-oracle-u8",
        &prop::from_fn(random_pack_case),
        |case| pack_oracle(case, |i| (i * 13 % 251) as u8),
    );
}

#[test]
fn pack_matches_oracle_f64x4() {
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "pack-oracle-f64x4",
        &prop::from_fn(random_pack_case),
        |case| {
            pack_oracle(case, |i| {
                [i as f64, i as f64 * 0.5, -(i as f64), 1.0 / (i + 1) as f64]
            })
        },
    );
}

/// One random statement shape for the oracle property.
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

/// Runs `A(sec_a) = 2·B(sec_b) + 0.25` and returns the global image.
fn run_stmt(case: &StmtCase) -> Vec<f64> {
    let (base, b_vals) = stmt_inputs(case);
    let mut a = DistArray::from_global(case.p, case.k_a, &base).unwrap();
    let b = DistArray::from_global(case.p, case.k_b, &b_vals).unwrap();
    assign_fused_on(&mut a, &case.sec_a, &[(&b, case.sec_b)], body, case.kind).unwrap();
    a.to_global()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whole statements must compute the oracle's image bit for bit on
/// every transport.
#[test]
fn statements_match_oracle_on_every_transport() {
    let _serial = lock_l2();
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "stmt-oracle",
        &prop::from_fn(random_stmt_case),
        |case| {
            let (mut want, b) = stmt_inputs(case);
            for (ia, ib) in case.sec_a.iter().zip(case.sec_b.iter()) {
                want[ia as usize] = body(&[b[ib as usize]]);
            }
            assert_eq!(bits(&run_stmt(case)), bits(&want), "{case:?}");
        },
    );
}

/// Runs one >L2 f64 transfer (comm-bearing and communication-free
/// variants) under a 1 GiB and a 32 KiB L2 setting. No epoch runs
/// blocked, and both must match the oracle bit for bit. Uses section
/// shapes unique to this test, so stale cache entries from other tests
/// can't mask the compile.
#[test]
fn blocked_statements_stay_bit_exact() {
    let _serial = lock_l2();
    let orig_l2 = tune::l2_bytes();

    let n = 90_001i64;
    let sec = RegularSection::new(1, 88_887, 2).unwrap(); // 44 444 f64 ≈ 355 KiB ≫ 32 KiB
    let base: Vec<f64> = (0..n).map(|i| (i % 1013) as f64 * 0.125 - 3.0).collect();
    let f = |args: &[f64]| args[0] * 1.5 - 0.5;
    let mut want = base.clone();
    for i in sec.iter() {
        want[i as usize] = f(&[base[i as usize]]);
    }

    // Comm-bearing: k_a ≠ k_b redistributes, so the large sends and the
    // per-source receive routing are exercised.
    for (k_a, k_b) in [(7i64, 5i64), (64, 64)] {
        let b = DistArray::from_global(3, k_b, &base).unwrap();
        for l2 in [1u64 << 30, 32 * 1024] {
            tune::set_l2_bytes(l2);
            let mut a = DistArray::from_global(3, k_a, &base).unwrap();
            assign_fused_on(&mut a, &sec, &[(&b, sec)], f, TransportKind::Shm).unwrap();
            assert_eq!(
                fuse::last_blocked(),
                Some(false),
                "a {} KiB transfer against a {} KiB L2 (k_a={k_a})",
                44_444 * 8 / 1024,
                l2 / 1024,
            );
            assert_eq!(
                bits(&a.to_global()),
                bits(&want),
                "image diverges from the oracle (k_a={k_a}, k_b={k_b}, l2={l2})"
            );
        }
    }

    tune::set_l2_bytes(orig_l2);
}

/// Three- and four-operand statements — the widest fixed argument array
/// of the monomorphized apply and its `Vec` fallback — under both L2
/// settings, communicating (every operand on its own layout) and
/// communication-free (every operand read in place), with an
/// order-sensitive body. Each must match the oracle bit for bit.
#[test]
fn blocked_multi_operand_statements_stay_bit_exact() {
    let _serial = lock_l2();
    let orig_l2 = tune::l2_bytes();

    let n = 60_007i64;
    let sec_a = RegularSection::new(3, 59_999, 2).unwrap(); // 29 999 f64 ≈ 234 KiB ≫ 32 KiB
    let secs = [
        RegularSection::new(0, 59_996, 2).unwrap(),
        RegularSection::new(5, 60_001, 2).unwrap(),
        sec_a,
        RegularSection::new(1, 59_997, 2).unwrap(),
    ];
    let base: Vec<f64> = (0..n).map(|i| (i % 1013) as f64 * 0.125 - 3.0).collect();
    let inputs: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..n)
                .map(|i| ((i * (7 + j)) % 211) as f64 * 0.25 - j as f64)
                .collect()
        })
        .collect();
    let f = |v: &[f64]| {
        v.iter()
            .enumerate()
            .fold(0.5, |acc, (j, x)| acc * 0.75 + (j as f64 + 1.0) * x)
    };
    for nops in [3usize, 4] {
        for (k_a, layouts, communicates) in [(7i64, [5i64, 11, 3, 9], true), (64, [64; 4], false)] {
            // A communication-free statement reads every operand through
            // the LHS section on the LHS layout.
            let op_secs: Vec<RegularSection> = (0..nops)
                .map(|j| if communicates { secs[j] } else { sec_a })
                .collect();
            let mut want = base.clone();
            for (t, ia) in sec_a.iter().enumerate() {
                let args: Vec<f64> = (0..nops)
                    .map(|j| inputs[j][(op_secs[j].l + t as i64 * op_secs[j].s) as usize])
                    .collect();
                want[ia as usize] = f(&args);
            }
            let arrays: Vec<DistArray<f64>> = (0..nops)
                .map(|j| DistArray::from_global(3, layouts[j], &inputs[j]).unwrap())
                .collect();
            let operands: Vec<(&DistArray<f64>, RegularSection)> =
                arrays.iter().zip(&op_secs).map(|(a, s)| (a, *s)).collect();
            for l2 in [1u64 << 30, 32 * 1024] {
                tune::set_l2_bytes(l2);
                let mut a = DistArray::from_global(3, k_a, &base).unwrap();
                assign_fused_on(&mut a, &sec_a, &operands, f, TransportKind::Shm).unwrap();
                assert_eq!(
                    fuse::last_blocked(),
                    Some(false),
                    "nops={nops} k_a={k_a} l2={l2}"
                );
                assert_eq!(
                    bits(&a.to_global()),
                    bits(&want),
                    "image diverges from the oracle (nops={nops}, k_a={k_a}, l2={l2})"
                );
            }
        }
    }

    tune::set_l2_bytes(orig_l2);
}
