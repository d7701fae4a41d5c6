//! The workloads: what one op is, how its inputs are drawn from the seed,
//! and how it is checked.

use std::collections::HashSet;

use bcag_core::section::RegularSection;
use bcag_harness::rng::Rng;

use crate::bank::{ArraySpec, Bank, OpFacts, ReplayCounts, Stmt};
use crate::elem::Body;
use crate::script::ScriptWorkload;
use crate::spans::Ledger;

/// Simulated nodes every workload runs on: one per host core of the
/// reference host, so an op measures the program rather than OS wake-ups.
pub const P: i64 = 2;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["warm_small", "warm_large", "cold_shapes", "scripts"];

/// Problem size of a workload: `Full` is what the benchmark measures,
/// `Test` shrinks every array so tests run in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny arrays for tests.
    Test,
}

/// What one set-up did: seconds spent in program calls, and the seconds of
/// each array allocation among them.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Seconds inside program calls (array builds and cold executions).
    pub secs: f64,
    /// Seconds of each `DistArray` build.
    pub alloc_secs: Vec<f64>,
    /// Cold executions whose output did not match the reference.
    pub failed: u64,
}

/// One closed-loop workload: one client, one op at a time.
pub trait Workload {
    /// Whether the timed phase must see no cache miss.
    fn warm(&self) -> bool;
    /// Builds the inputs and runs the first cold execution of every
    /// corpus shape. Callers clear the plan cache first.
    fn setup(&mut self) -> Result<Setup, String>;
    /// Selects the next op (untimed).
    fn next(&mut self);
    /// Runs the selected op with scalar `c` on the default path.
    fn run(&mut self, c: u64) -> Result<(), String>;
    /// Runs the selected op as the sequence of public calls the default
    /// path makes, each timed as a span of `led`.
    fn run_traced(&mut self, c: u64, led: &mut Ledger) -> Result<OpFacts, String>;
    /// Checks the selected op's output against the sequential reference.
    fn check(&mut self, c: u64) -> bool;
    /// Replays the nested build steps of the selected op into `led`, when
    /// the workload still has replays to take.
    fn replay(&mut self, led: &mut Ledger, counts: &mut ReplayCounts);
    /// Test hook: corrupts the selected op's output image.
    fn corrupt(&mut self);
    /// The bits of every output image (statement left-hand sides, or a
    /// script's `PRINT` lines), for parity tests.
    fn image(&self) -> Vec<u64>;
}

/// Builds workload `name` from `seed`.
pub fn make(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "warm_small" => Box::new(warm(seed, scale, false)),
        "warm_large" => Box::new(warm(seed, scale, true)),
        "cold_shapes" => Box::new(cold(seed, scale)),
        "scripts" => Box::new(ScriptWorkload::new(seed, scale)),
        _ => return None,
    })
}

/// Element type of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// `f64`.
    F,
    /// `u8`.
    U,
    /// `[f64; 4]`.
    X,
}

/// One bank per element type.
pub struct Banks {
    /// `f64` arrays.
    pub f: Bank<f64>,
    /// `u8` arrays.
    pub u: Bank<u8>,
    /// `[f64; 4]` arrays.
    pub x: Bank<[f64; 4]>,
}

macro_rules! on_bank {
    ($banks:expr, $ty:expr, $b:ident => $body:expr) => {
        match $ty {
            Ty::F => {
                let $b = &mut $banks.f;
                $body
            }
            Ty::U => {
                let $b = &mut $banks.u;
                $body
            }
            Ty::X => {
                let $b = &mut $banks.x;
                $body
            }
        }
    };
}

/// Statement workloads: a fixed corpus run round-robin, or a stream of
/// never-seen shapes.
pub struct StmtWorkload {
    /// The typed banks.
    pub banks: Banks,
    /// Round-robin order of `(bank, statement)`.
    pub order: Vec<(Ty, usize)>,
    pos: usize,
    cold: Option<ColdGen>,
    replays: Vec<u32>,
}

/// Replays per corpus statement in a traced warm run.
const WARM_REPLAYS: u32 = 3;

impl StmtWorkload {
    fn new(banks: Banks, order: Vec<(Ty, usize)>, cold: Option<ColdGen>) -> Self {
        let n = order.len();
        StmtWorkload {
            banks,
            order,
            pos: n - 1,
            cold,
            replays: vec![0; n],
        }
    }

    fn cur(&self) -> (Ty, usize) {
        self.order[self.pos]
    }
}

impl Workload for StmtWorkload {
    fn warm(&self) -> bool {
        self.cold.is_none()
    }

    fn setup(&mut self) -> Result<Setup, String> {
        let mut setup = Setup::default();
        for secs in [
            self.banks.f.materialize()?,
            self.banks.u.materialize()?,
            self.banks.x.materialize()?,
        ] {
            setup.alloc_secs.extend(secs);
        }
        setup.secs = setup.alloc_secs.iter().sum();
        let shapes = match &self.cold {
            Some(_) => COLD_SETUP_SHAPES,
            None => self.order.len(),
        };
        for j in 0..shapes {
            self.next();
            let c = u64::MAX / 2 + j as u64;
            let t = std::time::Instant::now();
            self.run(c)?;
            setup.secs += t.elapsed().as_secs_f64();
            if !self.check(c) {
                setup.failed += 1;
            }
        }
        Ok(setup)
    }

    fn next(&mut self) {
        match &mut self.cold {
            Some(gen) => self.banks.f.stmts[0] = gen.next_stmt(),
            None => self.pos = (self.pos + 1) % self.order.len(),
        }
    }

    fn run(&mut self, c: u64) -> Result<(), String> {
        let (ty, i) = self.cur();
        on_bank!(self.banks, ty, b => b.exec(i, c))
    }

    fn run_traced(&mut self, c: u64, led: &mut Ledger) -> Result<OpFacts, String> {
        let (ty, i) = self.cur();
        on_bank!(self.banks, ty, b => b.exec_traced(i, c, led))
    }

    fn check(&mut self, c: u64) -> bool {
        let (ty, i) = self.cur();
        on_bank!(self.banks, ty, b => b.check(i, c))
    }

    fn replay(&mut self, led: &mut Ledger, counts: &mut ReplayCounts) {
        if self.cold.is_none() {
            if self.replays[self.pos] >= WARM_REPLAYS {
                return;
            }
            self.replays[self.pos] += 1;
        }
        let (ty, i) = self.cur();
        on_bank!(self.banks, ty, b => b.replay(i, led, counts));
    }

    fn corrupt(&mut self) {
        let (ty, i) = self.cur();
        on_bank!(self.banks, ty, b => b.corrupt(i))
    }

    fn image(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.banks.f.push_image(&mut out);
        self.banks.u.push_image(&mut out);
        self.banks.x.push_image(&mut out);
        out
    }
}

fn sec(l: i64, count: i64, s: i64) -> RegularSection {
    RegularSection::new(l, l + (count - 1) * s, s).expect("corpus sections are valid")
}

fn spec(k: i64, n: i64, rng: &mut Rng) -> ArraySpec {
    ArraySpec {
        k,
        n,
        salt: rng.next_u64(),
    }
}

/// The fixed statement corpus of `warm_small` (13 shapes over 4096-element
/// arrays) or `warm_large` (7 of the same kinds over 256K-element arrays:
/// a 4–6 MB working set per op, past L2 but far inside the shared L3,
/// where a DRAM-sized set would measure the neighbours' memory traffic).
/// The seed draws the array contents; shapes are fixed so every seed
/// costs the same.
fn warm(seed: u64, scale: Scale, large: bool) -> StmtWorkload {
    let n: i64 = match (scale, large) {
        (Scale::Test, _) => 512,
        (Scale::Full, false) => 4096,
        (Scale::Full, true) => 1 << 18,
    };
    // `[f64; 4]` arrays are 4x (small) or 8x (large) shorter, so each
    // element type moves a comparable number of bytes.
    let nx = if large { n / 8 } else { n / 4 };
    // Section offsets are fixed: they decide how epochs split into runs
    // and message blocks, and with them time and arena memory, so
    // seed-drawn offsets would make the cost depend on the seed.
    let o: [i64; 16] = [0, 1, 2, 3, 5, 7, 4, 1, 6, 2, 3, 9, 5, 2, 4, 1];
    let mut rng = Rng::seed_from_u64(seed ^ if large { 0x1a7e } else { 0x5a11 });
    // f64 arrays. LHS: A0 (k=8), A1 (k=16), A2 (k=4). RHS: B (8), C (5),
    // D (16), E (4), G (4).
    let f_lhs = vec![
        spec(8, n, &mut rng),
        spec(16, n, &mut rng),
        spec(4, n, &mut rng),
    ];
    let f_rhs = vec![
        spec(8, n, &mut rng),
        spec(5, n, &mut rng),
        spec(16, n, &mut rng),
        spec(4, n, &mut rng),
        spec(4, n, &mut rng),
    ];
    let (a0, a1, a2) = (0, 1, 2);
    let (b, c, d, e, g) = (0, 1, 2, 3, 4);
    let m4 = n / 4 - 16;
    let all = |s: i64, o: i64| (n - 1 - o) / s + 1;
    let f_stmts = vec![
        // 0: dense copy, same layout (local moves only).
        Stmt {
            lhs: a0,
            sec_a: sec(0, n, 1),
            ops: vec![(b, sec(0, n, 1))],
            body: Body::AddScalar,
        },
        // 1: dense copy across layouts (k 16 <- 8).
        Stmt {
            lhs: a1,
            sec_a: sec(0, n, 1),
            ops: vec![(b, sec(0, n, 1))],
            body: Body::AddScalar,
        },
        // 2: the mixed-k triad of the fuse bench: k 8 <- 5, 16.
        Stmt {
            lhs: a0,
            sec_a: sec(o[0], m4, 3),
            ops: vec![(c, sec(o[1] + 2, m4, 2)), (d, sec(o[2] + 10, m4, 1))],
            body: Body::Triad,
        },
        // 3: 64-byte stride (8 f64), k 4 <- 8.
        Stmt {
            lhs: a2,
            sec_a: sec(o[3], all(8, 16), 8),
            ops: vec![(b, sec(o[4], all(8, 16), 8))],
            body: Body::AddScalar,
        },
        // 4: general case s mod pk >= k (k=16, pk=32, s=21).
        Stmt {
            lhs: a1,
            sec_a: sec(o[5], all(21, 16), 21),
            ops: vec![(c, sec(o[6], all(21, 16), 3))],
            body: Body::AddScalar,
        },
        // 5: strided fill, no operands (pure per-statement fixed cost).
        Stmt {
            lhs: a2,
            sec_a: sec(o[7], all(2, 16), 2),
            ops: vec![],
            body: Body::Fill,
        },
        // 6: same-layout axpy (k 4 everywhere).
        Stmt {
            lhs: a2,
            sec_a: sec(0, n, 1),
            ops: vec![(e, sec(0, n, 1)), (g, sec(0, n, 1))],
            body: Body::Triad,
        },
        // 7: strided redistribution, k 16 <- 16 with differing strides.
        Stmt {
            lhs: a1,
            sec_a: sec(o[8], all(3, 16), 2),
            ops: vec![(d, sec(o[9], all(3, 16), 3))],
            body: Body::AddScalar,
        },
        // 8: general-case triad (k=8, pk=16, s=13).
        Stmt {
            lhs: a0,
            sec_a: sec(o[10], all(13, 16), 13),
            ops: vec![
                (e, sec(o[11], all(13, 16), 13)),
                (b, sec(o[12], all(13, 16), 13)),
            ],
            body: Body::Triad,
        },
    ];
    let u_lhs = vec![spec(8, n, &mut rng)];
    let u_rhs = vec![spec(32, n, &mut rng), spec(8, n, &mut rng)];
    let u_stmts = vec![
        Stmt {
            lhs: 0,
            sec_a: sec(0, n, 1),
            ops: vec![(0, sec(0, n, 1))],
            body: Body::AddScalar,
        },
        Stmt {
            lhs: 0,
            sec_a: sec(o[13], all(5, 16), 5),
            ops: vec![(1, sec(o[14], all(5, 16), 5))],
            body: Body::AddScalar,
        },
    ];
    let x_lhs = vec![spec(4, nx, &mut rng)];
    let x_rhs = vec![spec(8, nx, &mut rng), spec(4, nx, &mut rng)];
    let hx = nx / 2 - 8;
    let x_stmts = vec![
        Stmt {
            lhs: 0,
            sec_a: sec(o[15] % 8, hx, 2),
            ops: vec![(0, sec(1, hx, 2)), (1, sec(3, hx, 1))],
            body: Body::Triad,
        },
        Stmt {
            lhs: 0,
            sec_a: sec(0, nx / 3, 3),
            ops: vec![(1, sec(2, nx / 3, 3))],
            body: Body::AddScalar,
        },
    ];
    // An odd statement count keeps the median in the middle of one
    // statement's cluster of samples instead of between two.
    let order: Vec<(Ty, usize)> = if large {
        vec![
            (Ty::F, 0),
            (Ty::F, 1),
            (Ty::F, 2),
            (Ty::F, 3),
            (Ty::F, 8),
            (Ty::U, 0),
            (Ty::X, 0),
        ]
    } else {
        let mut v: Vec<(Ty, usize)> = (0..f_stmts.len()).map(|i| (Ty::F, i)).collect();
        v.extend([(Ty::U, 0), (Ty::U, 1), (Ty::X, 0), (Ty::X, 1)]);
        v
    };
    let mut banks = Banks {
        f: Bank::new(P, f_lhs, f_rhs),
        u: Bank::new(P, u_lhs, u_rhs),
        x: Bank::new(P, x_lhs, x_rhs),
    };
    banks.f.stmts = f_stmts;
    banks.u.stmts = u_stmts;
    banks.x.stmts = x_stmts;
    StmtWorkload::new(banks, order, None)
}

/// Block sizes of the `cold_shapes` arrays: log-spaced over [2, 1024].
const COLD_KS: [i64; 12] = [2, 3, 5, 8, 13, 24, 40, 64, 128, 256, 512, 1024];

/// Never-seen shapes executed during a `cold_shapes` set-up.
const COLD_SETUP_SHAPES: usize = 16;

/// Generator of `cold_shapes` statements: every call returns a statement
/// shape (block sizes, sections, operand count) not returned before.
pub struct ColdGen {
    rng: Rng,
    n: i64,
    count: (i64, i64),
    seen: HashSet<ShapeKey>,
}

/// A `cold_shapes` statement shape: left-hand-side array, offset, stride
/// and count, then each operand's array, offset and stride.
type ShapeKey = (usize, i64, i64, i64, Vec<(usize, i64, i64)>);

impl ColdGen {
    /// The next never-seen statement.
    pub fn next_stmt(&mut self) -> Stmt {
        loop {
            let r = &mut self.rng;
            let count = r.random_range(self.count.0..=self.count.1);
            let draw = |r: &mut Rng| {
                let s = r.random_range(1..=8);
                let l = r.random_range(0..=self.n - 1 - s * (count - 1));
                (r.random_range(0..COLD_KS.len() as i64) as usize, l, s)
            };
            let (lhs, la, sa) = draw(r);
            let body = if r.random_bool(0.5) {
                Body::AddScalar
            } else {
                Body::Triad
            };
            let ops: Vec<(usize, i64, i64)> = (0..body.operands()).map(|_| draw(r)).collect();
            if !self.seen.insert((lhs, la, sa, count, ops.clone())) {
                continue;
            }
            return Stmt {
                lhs,
                sec_a: sec(la, count, sa),
                ops: ops.iter().map(|&(j, l, s)| (j, sec(l, count, s))).collect(),
                body,
            };
        }
    }
}

/// `cold_shapes`: every op is a statement shape not seen before, over
/// one left-hand-side and one operand array per block size.
fn cold(seed: u64, scale: Scale) -> StmtWorkload {
    let (n, count) = match scale {
        Scale::Full => (1 << 17, (12_000, 16_000)),
        Scale::Test => (4096, (200, 400)),
    };
    let mut rng = Rng::seed_from_u64(seed ^ 0xc01d);
    let lhs: Vec<ArraySpec> = COLD_KS.iter().map(|&k| spec(k, n, &mut rng)).collect();
    let rhs: Vec<ArraySpec> = COLD_KS.iter().map(|&k| spec(k, n, &mut rng)).collect();
    let mut gen = ColdGen {
        rng,
        n,
        count,
        seen: HashSet::new(),
    };
    let mut f = Bank::new(P, lhs, rhs);
    f.stmts = vec![gen.next_stmt()];
    let banks = Banks {
        f,
        u: Bank::new(P, vec![], vec![]),
        x: Bank::new(P, vec![], vec![]),
    };
    StmtWorkload::new(banks, vec![(Ty::F, 0)], Some(gen))
}
