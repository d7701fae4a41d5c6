//! Typed banks of distributed arrays and the statements run over them.
//!
//! A bank owns the program's arrays plus a sequential reference image of
//! every left-hand-side array, kept in global index order. After each op
//! the reference is advanced over global indices — never through the
//! executor under test — and the program's whole image is compared with
//! it bit for bit.

use bcag_core::method::{build, Method};
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::{locality, lower_plan, RunPlan};
use bcag_spmd::assign::plan_section;
use bcag_spmd::fuse::{self, FuseCensus};
use bcag_spmd::{pool, statement, transport, CommSchedule, DistArray, ExecMode};

use crate::elem::{Body, Elem};
use crate::spans::Ledger;

/// Shape of one array: block size, extent and the salt of its contents.
#[derive(Debug, Clone, Copy)]
pub struct ArraySpec {
    /// `cyclic(k)` block size.
    pub k: i64,
    /// Global extent.
    pub n: i64,
    /// Salt of the generated contents.
    pub salt: u64,
}

/// One statement `lhs(sec_a) = body(rhs[j](sec_j), ...)`.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Index of the left-hand-side array.
    pub lhs: usize,
    /// Left-hand-side section (ascending).
    pub sec_a: RegularSection,
    /// Operand array indices and their sections.
    pub ops: Vec<(usize, RegularSection)>,
    /// Right-hand side.
    pub body: Body,
}

/// What the traced decomposition of one op observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpFacts {
    /// Bytes the statement computes on: every operand element read plus
    /// every left-hand-side element written.
    pub bytes: u64,
    /// Bytes of the arrays the statement touches.
    pub ws_bytes: u64,
    /// Structure of the fused program that ran.
    pub census: FuseCensus,
    /// Whether the epoch ran L2-blocked.
    pub blocked: bool,
}

/// Counts gathered by the nested-split replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// AM-table entries built by the replayed per-node builds.
    pub entries: u64,
    /// Run plans compiled by the replays.
    pub plans: u64,
    /// Lowered segments of those run plans.
    pub segments: u64,
}

/// Arrays of one element type plus the statements over them.
pub struct Bank<T: Elem> {
    p: i64,
    lhs_spec: Vec<ArraySpec>,
    rhs_spec: Vec<ArraySpec>,
    lhs: Vec<DistArray<T>>,
    lhs_ref: Vec<Vec<T>>,
    rhs: Vec<DistArray<T>>,
    rhs_global: Vec<Vec<T>>,
    /// The statements, indexed by the workload's run order.
    pub stmts: Vec<Stmt>,
}

fn generate<T: Elem>(spec: &ArraySpec) -> Vec<T> {
    (0..spec.n).map(|i| T::gen(i, spec.salt)).collect()
}

/// Whether a `cyclic(k)` array's local memories hold exactly `global`,
/// compared block by block with the layout computed here.
fn same_image<T: Elem>(a: &DistArray<T>, global: &[T]) -> bool {
    let (p, k, n) = (a.p(), a.k(), global.len() as i64);
    if a.len() != n {
        return false;
    }
    let mut b = 0i64;
    while b * k < n {
        let lo = (b * k) as usize;
        let hi = ((b + 1) * k).min(n) as usize;
        let base = ((b / p) * k) as usize;
        let local = a.local(b % p);
        match local.get(base..base + (hi - lo)) {
            Some(run) if T::same(run, &global[lo..hi]) => {}
            _ => return false,
        }
        b += 1;
    }
    true
}

impl<T: Elem> Bank<T> {
    /// A bank on `p` nodes; arrays exist after [`Bank::materialize`].
    pub fn new(p: i64, lhs_spec: Vec<ArraySpec>, rhs_spec: Vec<ArraySpec>) -> Self {
        Bank {
            p,
            lhs_spec,
            rhs_spec,
            lhs: Vec::new(),
            lhs_ref: Vec::new(),
            rhs: Vec::new(),
            rhs_global: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// Builds every program array with `DistArray::from_global` from the
    /// generated inputs (generated on the first call, reset in place on
    /// later ones); returns the seconds each build took.
    pub fn materialize(&mut self) -> Result<Vec<f64>, String> {
        self.lhs.clear();
        self.rhs.clear();
        if self.lhs_ref.len() != self.lhs_spec.len() {
            self.lhs_ref = self.lhs_spec.iter().map(generate).collect();
            self.rhs_global = self.rhs_spec.iter().map(generate).collect();
        } else {
            for (spec, r) in self.lhs_spec.iter().zip(&mut self.lhs_ref) {
                for (i, v) in r.iter_mut().enumerate() {
                    *v = T::gen(i as i64, spec.salt);
                }
            }
        }
        let mut secs = Vec::new();
        for (specs, globals, out) in [
            (&self.lhs_spec, &self.lhs_ref, &mut self.lhs),
            (&self.rhs_spec, &self.rhs_global, &mut self.rhs),
        ] {
            for (spec, g) in specs.iter().zip(globals) {
                let t = std::time::Instant::now();
                let arr = DistArray::from_global(self.p, spec.k, g).map_err(|e| e.to_string())?;
                secs.push(t.elapsed().as_secs_f64());
                out.push(arr);
            }
        }
        Ok(secs)
    }

    /// Runs statement `i` with scalar `c` through `assign_expr`, the
    /// default statement path.
    pub fn exec(&mut self, i: usize, c: u64) -> Result<(), String> {
        let st = &self.stmts[i];
        let operands: Vec<(&DistArray<T>, RegularSection)> =
            st.ops.iter().map(|(j, s)| (&self.rhs[*j], *s)).collect();
        let (body, cv) = (st.body, T::scalar(c));
        statement::assign_expr(&mut self.lhs[st.lhs], &st.sec_a, &operands, move |args| {
            T::eval(body, args, cv)
        })
        .map_err(|e| e.to_string())
    }

    /// Runs statement `i` through the public calls `assign_expr` makes on
    /// the default path — the fused-program lookup, then one fused epoch
    /// — timing each call as a span of `led`.
    pub fn exec_traced(&mut self, i: usize, c: u64, led: &mut Ledger) -> Result<OpFacts, String> {
        let st = &self.stmts[i];
        let kind = transport::active_transport();
        let launch = pool::default_launch();
        let lhs = &mut self.lhs[st.lhs];
        let (p, k) = (lhs.p(), lhs.k());
        let ops: Vec<(i64, RegularSection)> =
            st.ops.iter().map(|(j, s)| (self.rhs[*j].k(), *s)).collect();
        let block = fuse::epoch_block_elems::<T>(&st.sec_a);
        let program = led
            .time("spmd.cache", || {
                fuse::cached_program::<T>(p, k, &st.sec_a, &ops, ExecMode::Batched, kind, block)
            })
            .map_err(|e| e.to_string())?;
        let arrays: Vec<&DistArray<T>> = st.ops.iter().map(|(j, _)| &self.rhs[*j]).collect();
        let (body, cv) = (st.body, T::scalar(c));
        led.time("spmd.fuse.exec", || {
            program.execute(
                lhs,
                &arrays,
                move |args| T::eval(body, args, cv),
                launch,
                kind,
            )
        });
        let eb = std::mem::size_of::<T>() as u64;
        let count = st.sec_a.count() as u64;
        Ok(OpFacts {
            bytes: count * eb * (st.ops.len() as u64 + 1),
            ws_bytes: eb * (lhs.len() as u64 + arrays.iter().map(|a| a.len() as u64).sum::<u64>()),
            census: program.census(),
            blocked: fuse::last_blocked() == Some(true),
        })
    }

    /// Replays the build steps a cache miss on statement `i` runs —
    /// `plan_section`, then per node the AM-table build, `RunPlan`
    /// compile and locality analysis, each operand's `CommSchedule`, and
    /// the fused compile — timing each into `led`. Replays are separate
    /// calls on the same problem, reported as shares of the miss.
    pub fn replay(&self, i: usize, led: &mut Ledger, counts: &mut ReplayCounts) {
        let st = &self.stmts[i];
        let kind = transport::active_transport();
        let lhs = &self.lhs[st.lhs];
        let (p, k) = (lhs.p(), lhs.k());
        let Ok(plans) = led.time("spmd.cache.plans_build", || {
            plan_section(p, k, &st.sec_a, Method::Lattice)
        }) else {
            return;
        };
        let norm = st.sec_a.normalized();
        if let Ok(problem) = Problem::new(p, k, norm.lo, norm.step) {
            for (m, plan) in plans.iter().enumerate() {
                if let Ok(pat) = led.time("core.lattice_alg", || {
                    build(&problem, m as i64, Method::Lattice)
                }) {
                    counts.entries += pat.gaps().len() as u64;
                }
                let runs = led.time("core.runs", || {
                    RunPlan::compile(plan.start, plan.last, &plan.delta_m)
                });
                counts.plans += 1;
                counts.segments += lower_plan(&runs).len() as u64;
                led.time("core.locality", || {
                    std::hint::black_box(locality::analyze(&runs, 8));
                });
            }
        }
        let mut ops = Vec::with_capacity(st.ops.len());
        for (j, sec_b) in &st.ops {
            let k_b = self.rhs[*j].k();
            let _ = led.time("spmd.comm.build", || {
                CommSchedule::build(p, k, &st.sec_a, k_b, sec_b, Method::Lattice)
            });
            ops.push((k_b, *sec_b));
        }
        let block = fuse::epoch_block_elems::<T>(&st.sec_a);
        let _ = led.time("spmd.fuse.compile", || {
            fuse::compile::<T>(p, k, &st.sec_a, &ops, ExecMode::Batched, kind, block)
        });
    }

    /// Advances the reference of statement `i` with scalar `c` over
    /// global indices and compares the program's whole left-hand-side
    /// image with it. On a mismatch the program array is rebuilt from the
    /// reference, so one bad op counts once.
    pub fn check(&mut self, i: usize, c: u64) -> bool {
        let st = &self.stmts[i];
        let cv = T::scalar(c);
        let reference = &mut self.lhs_ref[st.lhs];
        let mut args: Vec<T> = Vec::with_capacity(st.ops.len());
        for t in 0..st.sec_a.count() {
            args.clear();
            for (j, s) in &st.ops {
                args.push(self.rhs_global[*j][(s.l + t * s.s) as usize]);
            }
            reference[(st.sec_a.l + t * st.sec_a.s) as usize] = T::eval(st.body, &args, cv);
        }
        if same_image(&self.lhs[st.lhs], reference) {
            return true;
        }
        let k = self.lhs_spec[st.lhs].k;
        if let Ok(fresh) = DistArray::from_global(self.p, k, reference) {
            self.lhs[st.lhs] = fresh;
        }
        false
    }

    /// Test hook: flips one element of statement `i`'s left-hand side
    /// inside its section.
    pub fn corrupt(&mut self, i: usize) {
        let st = &self.stmts[i];
        let a = &mut self.lhs[st.lhs];
        let g = st.sec_a.l;
        let lay = a.layout();
        let (m, addr) = (lay.owner(g), lay.local_addr(g) as usize);
        let slot = &mut a.local_mut(m)[addr];
        *slot = slot.corrupt();
    }

    /// Appends the bits of every left-hand-side image, in global order.
    pub fn push_image(&self, out: &mut Vec<u64>) {
        for a in &self.lhs {
            a.to_global().into_iter().for_each(|v| v.push_bits(out));
        }
    }
}
