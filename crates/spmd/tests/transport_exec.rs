//! Equivalence of the two payload forms on the ring fabric.
//!
//! Boxed envelopes (`shm`) and the serialized wire format (`proc`) must
//! be perfectly interchangeable: identical array contents after any
//! fused copy, and identical deterministic counter totals — the
//! transport byte counters are charged at the canonical wire size on
//! every transport precisely so this holds. This suite drives a
//! randomized sweep of layouts and payload types over both forms
//! against a sequential oracle, plus the poison protocol (panic
//! propagation) on the resident pool and on the nested-launch fallback.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use bcag_core::section::RegularSection;
use bcag_spmd::fuse::assign_copy_on;
use bcag_spmd::pool;
use bcag_spmd::{DistArray, TransportKind};

/// xorshift64*: deterministic layout generator, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: i64) -> i64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        ((self.0.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as i64).rem_euclid(bound.max(1))
    }
}

/// A random `A(sec_a) = B(sec_b)` instance: machine size, two layouts,
/// two conforming sections, and array lengths covering them.
struct Layout {
    p: i64,
    k_a: i64,
    k_b: i64,
    sec_a: RegularSection,
    sec_b: RegularSection,
    n_a: i64,
    n_b: i64,
}

fn random_layout(rng: &mut Rng) -> Layout {
    let p = 1 + rng.next(8);
    let k_a = 1 + rng.next(16);
    let k_b = 1 + rng.next(16);
    let count = 1 + rng.next(120);
    let (l_a, s_a) = (rng.next(40), 1 + rng.next(7));
    let (l_b, s_b) = (rng.next(40), 1 + rng.next(7));
    let sec_a = RegularSection::new(l_a, l_a + (count - 1) * s_a, s_a).unwrap();
    let sec_b = RegularSection::new(l_b, l_b + (count - 1) * s_b, s_b).unwrap();
    Layout {
        p,
        k_a,
        k_b,
        n_a: sec_a.u + 1 + rng.next(16),
        n_b: sec_b.u + 1 + rng.next(16),
        sec_a,
        sec_b,
    }
}

/// Counters whose totals must be bit-identical across transports.
/// Timing counters (`recv_wait_ns`, `transport_park_ns`) and contention
/// counters (`ring_full_spins`) are inherently nondeterministic and are
/// deliberately absent.
const DETERMINISTIC: &[&str] = &[
    "elements_moved",
    "elements_nonlocal",
    "messages_sent",
    "bytes_packed",
    "transport_bytes_tx",
    "transport_bytes_rx",
];

/// Runs `A(sec_a) = B(sec_b)` over one transport under tracing, returns
/// the resulting global contents plus the deterministic counter totals.
fn run_one<T: bcag_spmd::PackValue + PartialEq + std::fmt::Debug>(
    layout: &Layout,
    kind: TransportKind,
    fill: &T,
    b_global: &[T],
) -> (Vec<T>, Vec<u64>) {
    let mut a = DistArray::new(layout.p, layout.k_a, layout.n_a, fill.clone()).unwrap();
    let b = DistArray::from_global(layout.p, layout.k_b, b_global).unwrap();
    let ((), trace) = bcag_trace::capture(|| {
        assign_copy_on(&mut a, &layout.sec_a, &b, &layout.sec_b, kind).unwrap();
    });
    let totals = DETERMINISTIC
        .iter()
        .map(|name| trace.counter_total(name))
        .collect();
    (a.to_global(), totals)
}

/// The sequential oracle: plain global-index semantics of the
/// assignment, no distribution at all.
fn oracle<T: Clone>(layout: &Layout, fill: &T, b_global: &[T]) -> Vec<T> {
    let mut a = vec![fill.clone(); layout.n_a as usize];
    for t in 0..layout.sec_a.count() {
        let ia = (layout.sec_a.l + t * layout.sec_a.s) as usize;
        let ib = (layout.sec_b.l + t * layout.sec_b.s) as usize;
        a[ia] = b_global[ib].clone();
    }
    a
}

/// One layout, one payload type: both transports must match the
/// oracle's contents and each other's deterministic counter totals.
fn check_layout<T: bcag_spmd::PackValue + PartialEq + std::fmt::Debug>(
    layout: &Layout,
    fill: T,
    value: impl Fn(i64) -> T,
) {
    let b_global: Vec<T> = (0..layout.n_b).map(value).collect();
    let expected = oracle(layout, &fill, &b_global);
    let mut reference: Option<Vec<u64>> = None;
    for kind in TransportKind::ALL {
        let (got, totals) = run_one(layout, kind, &fill, &b_global);
        assert_eq!(
            got,
            expected,
            "{} contents diverge at p={} k_a={} k_b={} sec_a={:?} sec_b={:?}",
            kind.name(),
            layout.p,
            layout.k_a,
            layout.k_b,
            layout.sec_a,
            layout.sec_b
        );
        match &reference {
            None => reference = Some(totals),
            Some(first) => assert_eq!(
                &totals,
                first,
                "{} counter totals diverge ({DETERMINISTIC:?}) at p={} k_a={} k_b={}",
                kind.name(),
                layout.p,
                layout.k_a,
                layout.k_b
            ),
        }
    }
}

#[test]
fn every_transport_matches_the_oracle_on_random_layouts() {
    // 64 random layouts, each exercised with every payload class: a
    // wide numeric, a 1-byte numeric, a fixed-width array (the wire
    // format's composite case), and a heap payload with no wire format
    // (the serialized fabric's boxed fallback).
    let mut rng = Rng(0xBCA6_5EED | 1);
    for round in 0..64 {
        let layout = random_layout(&mut rng);
        check_layout(&layout, -1i64, |i| 3 * i + 7);
        check_layout(&layout, 0u8, |i| (i % 251) as u8);
        check_layout(&layout, [0.0f64; 4], |i| {
            [i as f64, 0.5 * i as f64, -(i as f64), 1.0]
        });
        if round % 8 == 0 {
            check_layout(&layout, String::new(), |i| format!("v{i}"));
        }
    }
}

#[test]
fn poison_propagates_on_the_nested_launch_fallback() {
    // A launch from inside a pool worker runs on a private thread scope.
    // One of its nodes panicking mid-exchange must release peers blocked
    // in a receive on every transport — the inner launch panics instead
    // of hanging, and the outer epoch is unaffected.
    for kind in TransportKind::ALL {
        let reraised = AtomicBool::new(false);
        pool::launch_with(2, kind, |outer, _ctx| {
            if outer != 0 {
                return;
            }
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool::launch_with(4, kind, |m, ctx| {
                    if m == 1 {
                        panic!("node job exploded on {}", ctx.transport().name());
                    }
                    if m == 2 {
                        // Blocked on data that never comes: node 1's
                        // poison must release this receive.
                        let _ = ctx.recv();
                    }
                });
            }));
            reraised.store(err.is_err(), Ordering::SeqCst);
        });
        assert!(
            reraised.load(Ordering::SeqCst),
            "{}: nested launch must re-raise the node panic",
            kind.name()
        );
    }
}

#[test]
fn poison_propagates_on_the_resident_pool_per_transport() {
    // The pooled path goes through dispatch + epoch barrier; a panicking
    // node must release its blocked peers there too, and the pool must
    // stay usable afterwards.
    for kind in TransportKind::ALL {
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool::launch_with(4, kind, |m, ctx| {
                if m == 0 {
                    panic!("node job exploded");
                }
                if m == 3 {
                    let _ = ctx.recv();
                }
            });
        }));
        assert!(err.is_err(), "{}: pooled launch re-raises", kind.name());
        // Reuse after the panic: a clean exchange still works.
        let layout = Layout {
            p: 4,
            k_a: 3,
            k_b: 5,
            sec_a: RegularSection::new(0, 99, 1).unwrap(),
            sec_b: RegularSection::new(0, 99, 1).unwrap(),
            n_a: 100,
            n_b: 100,
        };
        let b_global: Vec<i64> = (0..100).collect();
        let (got, _) = run_one(&layout, kind, &0i64, &b_global);
        assert_eq!(got, b_global, "{}: pool unusable after poison", kind.name());
    }
}
