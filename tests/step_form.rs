//! The fused program's step form against the sequential oracle.
//!
//! `fuse::compile` builds every node's apply steps from one period of the
//! statement's section ranks, repeated, plus the tail, and its messages
//! from each operand's schedule period. These tests draw random
//! statements — up to four operands on their own layouts, small strides
//! and strides with `s mod pk ≥ k`, sections that span `L − 1`, `L`, `L + 1` ranks or end
//! in a one-rank tail, empty and single-element sections, the shape whose
//! LHS lies on one node while its operands' sources alternate, and its
//! reverse, a dense LHS reading operands that each lie on one node — and
//! run each three ways: as an expression epoch, as a copy epoch for one
//! operand, and as every node's replicated run over in-memory session
//! pipes. Every image must equal the global-index oracle, f64 by bit
//! pattern. A descending operand section is a typed error on every path.

use std::io::Write;
use std::sync::{Arc, Mutex};

use bcag::core::numth::{gcd, lcm};
use bcag::core::section::RegularSection;
use bcag::spmd::fuse::{self, assign_copy_on, assign_fused_on};
use bcag::spmd::transport::proc::{read_frame, write_frame, Frame, Session};
use bcag::spmd::{DistArray, ExecMode, TransportKind};
use bcag::BcagError;
use bcag_harness::prop::{check_with, from_fn, Config};
use bcag_harness::Rng;

type Body<'f> = dyn Fn(&[f64]) -> f64 + Sync + 'f;

/// One statement `A(sec_a) = f(B_1(sec_1), …)` on `p` nodes: the LHS's
/// `(k, l, s)`, then each operand's, over `n` section ranks. A negative
/// operand stride starts the section at its top element.
#[derive(Debug, Clone)]
struct Case {
    p: i64,
    sides: Vec<(i64, i64, i64)>,
    n: i64,
    interleaved: bool,
}

impl Case {
    fn sections(&self) -> Vec<RegularSection> {
        self.sides
            .iter()
            .map(|&(_, l, s)| {
                if self.n == 0 {
                    RegularSection::new(l + 1, l, s.abs()).unwrap()
                } else {
                    RegularSection::new(l, l + (self.n - 1) * s, s).unwrap()
                }
            })
            .collect()
    }

    /// Array lengths: each section's top element, plus a little slack.
    fn lens(&self) -> Vec<i64> {
        self.sides
            .iter()
            .map(|&(_, l, s)| l.max(l + (self.n - 1).max(0) * s) + 3)
            .collect()
    }

    /// Whether some operand section is descending; an empty section is
    /// built ascending.
    fn descending(&self) -> bool {
        self.n > 0 && self.sides.iter().any(|&(_, _, s)| s < 0)
    }
}

/// Section ranks per period of one side: `p·k / gcd(s, p·k)`.
fn rank_period(p: i64, k: i64, s: i64) -> i64 {
    p * k / gcd(s.abs(), p * k)
}

fn random_case(rng: &mut Rng) -> Case {
    let p = rng.random_range(1..=6);
    let nops = rng.random_range(0..=4) as usize;
    let family = rng.random_range(0..10);
    let interleaved = family == 0;
    let block = |rng: &mut Rng| {
        let max = if rng.random_bool(0.4) { 8 } else { 64 };
        rng.random_range(1..=max)
    };
    let mut sides = Vec::with_capacity(nops + 1);
    if interleaved {
        // Every LHS element on one node (stride p·k_a), each operand's
        // source moving to the next node every element (stride k).
        let k_a = block(rng);
        sides.push((k_a, rng.random_range(0..=k_a), p * k_a));
        for _ in 0..nops.max(1) {
            let k = block(rng);
            sides.push((k, rng.random_range(0..=2 * k), k));
        }
    } else if family == 1 {
        // The reverse: a dense LHS, whose runs continue across period
        // boundaries, reading operands that each lie on one node and
        // skip, in that node's memory, the ranks other nodes own.
        let k_a = block(rng);
        sides.push((k_a, rng.random_range(0..=k_a), 1));
        for _ in 0..nops.max(1) {
            let k = block(rng);
            sides.push((k, rng.random_range(0..=2 * k), p * k));
        }
    } else {
        for side in 0..=nops {
            let k = block(rng);
            // Small strides often, so that dense sides meet strided ones.
            let s = if rng.random_bool(0.3) {
                rng.random_range(1..=3)
            } else {
                rng.random_range(1..=3 * p * k + 1)
            };
            let s = if side > 0 && rng.random_bool(0.05) {
                -s
            } else {
                s
            };
            sides.push((k, rng.random_range(0..=2 * p * k), s));
        }
    }
    let period = sides
        .iter()
        .try_fold(1i64, |acc, &(k, _, s)| lcm(acc, rank_period(p, k, s)).ok())
        .unwrap_or(i64::MAX);
    let n = match rng.random_range(0..8) {
        0 => period - 1,
        1 => period,
        2 => period + 1,
        3 => period.saturating_mul(2).saturating_add(1),
        4 => period.saturating_mul(rng.random_range(3..=6)) - 1,
        5 => rng.random_range(0..=1),
        _ => rng.random_range(0..=300),
    };
    // Keep every array under ~24K elements.
    let widest = sides.iter().map(|&(_, _, s)| s.abs()).max().unwrap();
    let n = n.clamp(0, (24_000 / widest).clamp(1, 2_000));
    for side in sides.iter_mut().filter(|side| side.2 < 0) {
        // A descending section starts at its top element.
        side.1 += (n - 1).max(0) * -side.2;
    }
    Case {
        p,
        sides,
        n,
        interleaved,
    }
}

/// The statement's inputs: the LHS image before it runs and each
/// operand's global values.
fn inputs(case: &Case) -> (Vec<f64>, Vec<Vec<f64>>) {
    let lens = case.lens();
    let base = (0..lens[0]).map(|i| (i % 31) as f64 - 5.5).collect();
    let ops = lens[1..]
        .iter()
        .enumerate()
        .map(|(j, &len)| {
            (0..len)
                .map(|i| ((i * 7 + 13 * j as i64) % 1009) as f64 * 0.37 - j as f64)
                .collect()
        })
        .collect();
    (base, ops)
}

/// An order-sensitive body: swapped or dropped operands change its value.
fn body(v: &[f64]) -> f64 {
    v.iter()
        .enumerate()
        .fold(0.25, |acc, (j, x)| acc * 1.5 + (j as f64 + 1.0) * x)
}

/// The sequential global-index reference (`f = None`: the copy of the
/// single operand).
fn oracle(case: &Case, base: &[f64], ops: &[Vec<f64>], f: Option<&Body<'_>>) -> Vec<u64> {
    let secs = case.sections();
    let mut out = base.to_vec();
    for t in 0..case.n {
        let args: Vec<f64> = ops
            .iter()
            .zip(&secs[1..])
            .map(|(g, s)| g[(s.l + t * s.s) as usize])
            .collect();
        out[(secs[0].l + t * secs[0].s) as usize] = match f {
            Some(f) => f(&args),
            None => args[0],
        };
    }
    bits(&out)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Collects a session's outbound frames.
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs node `me`'s replicated run over an in-memory session whose
/// inbound pipe holds `inbound`; returns the run's result, its image and
/// the frames it sent.
fn replicated_node(
    prog: &fuse::FusedStatement<f64>,
    case: &Case,
    me: usize,
    inbound: &[Frame],
    base: &[f64],
    operands: &[&DistArray<f64>],
    f: Option<&Body<'_>>,
) -> (bcag::prelude::Result<()>, Vec<u64>, Vec<Frame>) {
    let mut pipe = Vec::new();
    for frame in inbound {
        write_frame(&mut pipe, frame).unwrap();
    }
    let sent = Arc::new(Mutex::new(Vec::new()));
    let session = Session::over(
        me,
        case.p as usize,
        Box::new(std::io::Cursor::new(pipe)),
        Box::new(Sink(Arc::clone(&sent))),
    );
    let mut a = DistArray::from_global(case.p, case.sides[0].0, base).unwrap();
    let result = prog.replicated(&mut a, operands, f, &session);
    let wrote = sent.lock().unwrap().clone();
    let mut r = &wrote[..];
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut r).unwrap() {
        frames.push(frame);
    }
    (result, bits(&a.to_global()), frames)
}

/// Every node's replicated run must reproduce `want`. A node sends its
/// own row before it receives anything, so a first run over an empty
/// pipe captures each row; each node then runs again with its peers'
/// frames, and must send the same row again.
fn check_replicated(
    prog: &fuse::FusedStatement<f64>,
    case: &Case,
    base: &[f64],
    operands: &[&DistArray<f64>],
    f: Option<&Body<'_>>,
    want: &[u64],
) {
    let pu = case.p as usize;
    let rows: Vec<Vec<Frame>> = (0..pu)
        .map(|me| replicated_node(prog, case, me, &[], base, operands, f).2)
        .collect();
    for me in 0..pu {
        let inbound: Vec<Frame> = rows
            .iter()
            .flatten()
            .filter(|frame| frame.dst as usize == me)
            .cloned()
            .collect();
        let (result, image, sent) = replicated_node(prog, case, me, &inbound, base, operands, f);
        result.unwrap_or_else(|e| panic!("node {me}: {e}"));
        assert_eq!(image, want, "node {me} image");
        assert_eq!(sent, rows[me], "node {me} sends");
    }
}

fn check_case(case: &Case) {
    let secs = case.sections();
    let (base, globals) = inputs(case);
    let (p, k_a) = (case.p, case.sides[0].0);
    let arrays: Vec<DistArray<f64>> = case.sides[1..]
        .iter()
        .zip(&globals)
        .map(|(&(k, _, _), g)| DistArray::from_global(p, k, g).unwrap())
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let operands: Vec<(&DistArray<f64>, RegularSection)> = arrays
        .iter()
        .zip(&secs[1..])
        .map(|(a, s)| (a, *s))
        .collect();
    let ops: Vec<(i64, RegularSection)> = case.sides[1..]
        .iter()
        .zip(&secs[1..])
        .map(|(&(k, _, _), s)| (k, *s))
        .collect();
    let typed = |e: BcagError| assert!(matches!(e, BcagError::Precondition(_)), "{e}");

    // The expression epoch.
    let mut a = DistArray::from_global(p, k_a, &base).unwrap();
    let expr = assign_fused_on(&mut a, &secs[0], &operands, body, TransportKind::Shm);
    let want = oracle(case, &base, &globals, Some(&body));
    match expr {
        Ok(()) => {
            assert!(!case.descending());
            assert_eq!(bits(&a.to_global()), want, "expression");
        }
        Err(e) => {
            assert!(case.descending(), "{e}");
            typed(e);
        }
    }

    // The copy epoch.
    let want_copy = (ops.len() == 1).then(|| oracle(case, &base, &globals, None));
    if let Some(want_copy) = &want_copy {
        let mut a = DistArray::from_global(p, k_a, &base).unwrap();
        match assign_copy_on(&mut a, &secs[0], &arrays[0], &secs[1], TransportKind::Shm) {
            Ok(()) => assert_eq!(&bits(&a.to_global()), want_copy, "copy"),
            Err(e) => typed(e),
        }
    }

    // Every node's replicated run.
    let prog = match fuse::compile::<f64>(
        p,
        k_a,
        &secs[0],
        &ops,
        ExecMode::Batched,
        TransportKind::Proc,
        0,
    ) {
        Ok(prog) => prog,
        Err(e) => {
            assert!(case.descending(), "{e}");
            return typed(e);
        }
    };
    if case.interleaved && ops.len() == 1 {
        // The combined period is `p` ranks, one per source node. Once it
        // repeats, each source's ranks are one strided step, and each
        // tail rank adds one step; a section under two periods is walked
        // rank by rank.
        let n = case.n;
        let bound = if n >= 2 * p { p + n % p } else { n };
        assert!(
            prog.census().apply_segments as i64 <= bound,
            "{case:?}: {:?}",
            prog.census()
        );
    }
    check_replicated(&prog, case, &base, &refs, Some(&body), &want);
    if let Some(want_copy) = &want_copy {
        check_replicated(&prog, case, &base, &refs, None, want_copy);
    }
}

#[test]
fn step_form_matches_the_oracle_three_ways() {
    let cfg = Config {
        cases: 512,
        ..Default::default()
    };
    check_with(
        &cfg,
        "step form == oracle: expression, copy, replicated",
        &from_fn(random_case),
        check_case,
    );
}
