//! The `scripts` workload: HPF scripts through `bcag_rt::Interp::run`, the
//! `bcag run` surface.
//!
//! Every script is fixed at `PROCESSORS P(2)` and has `INIT`s, one to
//! three `ASSIGN`s and a `REDISTRIBUTE`, drawn from a small pool of shapes
//! so shapes repeat; only the scalars change from op to op. Its `PRINT
//! SUM` lines are checked against sums computed here over plain vectors.

use std::collections::HashMap;

use bcag_core::section::RegularSection;
use bcag_hpf::parse::Program;
use bcag_rt::{parse_expr, parse_lhs, Interp};
use bcag_spmd::{fuse, pool, statement, transport, DistArray, ExecMode};

use crate::bank::{OpFacts, ReplayCounts};
use crate::elem::Body;
use crate::spans::Ledger;
use crate::workload::{Scale, Setup, Workload};

/// One `ASSIGN A(sec_a) = ...` of a script shape.
#[derive(Debug, Clone, Copy)]
struct Assign {
    sec_a: RegularSection,
    sec_b: RegularSection,
    sec_c: RegularSection,
    body: Body,
}

/// A script shape: three arrays of extent `n` and the statements over
/// them. Scalars are filled in per op.
#[derive(Debug, Clone)]
struct Shape {
    n: i64,
    ks: [i64; 3],
    assigns: Vec<Assign>,
    redistribute_k: i64,
}

/// Per-op scalars of one script.
#[derive(Debug, Clone, Copy)]
struct Scalars {
    alpha: f64,
    a0: f64,
    b1: f64,
    b0: f64,
    c0: f64,
}

impl Scalars {
    fn of(c: u64) -> Scalars {
        Scalars {
            alpha: 1.0 + (c % 97) as f64 * 0.25,
            a0: (c % 13) as f64 + 0.5,
            b1: 0.5 + (c % 7) as f64 * 0.5,
            b0: (c % 11) as f64,
            c0: 1.0 + (c % 5) as f64,
        }
    }
}

fn triplet(s: &RegularSection) -> String {
    format!("{}:{}:{}", s.l, s.u, s.s)
}

impl Shape {
    /// The script text of this shape with scalars `v`.
    fn text(&self, v: Scalars) -> String {
        let mut out = String::from("PROCESSORS P(2)\n");
        for (name, k) in ["A", "B", "C"].iter().zip(self.ks) {
            out.push_str(&format!(
                "TEMPLATE T{name}({n})\nREAL {name}({n})\nALIGN {name}(i) WITH T{name}(i)\n\
                 DISTRIBUTE T{name}(CYCLIC({k})) ONTO P\n",
                n = self.n
            ));
        }
        out.push_str(&format!(
            "INIT A CONST {}\nINIT B LINEAR {} {}\nINIT C CONST {}\n",
            v.a0, v.b1, v.b0, v.c0
        ));
        for a in &self.assigns {
            let rhs = match a.body {
                Body::Triad => format!(
                    "{} * B({}) + C({})",
                    v.alpha,
                    triplet(&a.sec_b),
                    triplet(&a.sec_c)
                ),
                _ => format!("B({}) + {}", triplet(&a.sec_b), v.alpha),
            };
            out.push_str(&format!("ASSIGN A({}) = {rhs}\n", triplet(&a.sec_a)));
        }
        out.push_str(&format!("REDISTRIBUTE A CYCLIC({})\n", self.redistribute_k));
        let last = self.assigns.last().expect("every shape assigns").sec_a;
        out.push_str(&format!(
            "PRINT SUM A({})\nPRINT SUM A(0:{}:1)\n",
            triplet(&last),
            self.n - 1
        ));
        out
    }

    /// The `PRINT` lines the script must produce, computed sequentially
    /// over global indices.
    fn expected(&self, v: Scalars) -> Vec<String> {
        let n = self.n as usize;
        let mut a = vec![v.a0; n];
        let b: Vec<f64> = (0..n).map(|i| v.b1 * i as f64 + v.b0).collect();
        let c = vec![v.c0; n];
        for s in &self.assigns {
            for t in 0..s.sec_a.count() {
                let ib = (s.sec_b.l + t * s.sec_b.s) as usize;
                let ic = (s.sec_c.l + t * s.sec_c.s) as usize;
                a[(s.sec_a.l + t * s.sec_a.s) as usize] = match s.body {
                    Body::Triad => v.alpha * b[ib] + c[ic],
                    _ => b[ib] + v.alpha,
                };
            }
        }
        let sum = |sec: &RegularSection| -> f64 {
            let vals: Vec<f64> = sec.iter().map(|i| a[i as usize]).collect();
            vals.iter().sum()
        };
        let last = self.assigns.last().expect("every shape assigns").sec_a;
        let whole = RegularSection::new(0, self.n - 1, 1).expect("nonempty array");
        vec![
            format!("SUM A({}) = {}", triplet(&last), sum(&last)),
            format!("SUM A(0:{}:1) = {}", self.n - 1, sum(&whole)),
        ]
    }
}

fn sec(l: i64, count: i64, s: i64) -> RegularSection {
    RegularSection::new(l, l + (count - 1) * s, s).expect("script sections are valid")
}

/// The pool of five script shapes. Section offsets are fixed, so every
/// seed costs the same; the seed draws the scalars.
fn shapes(scale: Scale) -> Vec<Shape> {
    let mut offsets = [3, 1, 6, 2, 5, 0, 7, 4, 2, 6, 1, 5, 3, 7]
        .into_iter()
        .cycle();
    let mut o = || offsets.next().expect("cycled");
    let div = match scale {
        Scale::Full => 1,
        Scale::Test => 8,
    };
    let assign = |sa, sb, sc, body| Assign {
        sec_a: sa,
        sec_b: sb,
        sec_c: sc,
        body,
    };
    let mut v = Vec::new();
    // Dense mixed-layout triad.
    let n = 4096 / div;
    v.push(Shape {
        n,
        ks: [8, 5, 16],
        assigns: vec![assign(
            sec(0, n, 1),
            sec(0, n, 1),
            sec(0, n, 1),
            Body::Triad,
        )],
        redistribute_k: 4,
    });
    // Two strided statements.
    let n = 3072 / div;
    let m = n / 3 - 8;
    v.push(Shape {
        n,
        ks: [4, 8, 4],
        assigns: vec![
            assign(sec(o(), m, 3), sec(o(), m, 2), sec(o(), m, 1), Body::Triad),
            assign(
                sec(o(), m, 2),
                sec(o(), m, 3),
                sec(0, m, 1),
                Body::AddScalar,
            ),
        ],
        redistribute_k: 16,
    });
    // Three statements, one of them the general case (k=4, pk=8, s=7).
    let n = 2048 / div;
    let m = n / 7 - 2;
    v.push(Shape {
        n,
        ks: [4, 16, 8],
        assigns: vec![
            assign(sec(o(), m, 7), sec(o(), m, 5), sec(o(), m, 1), Body::Triad),
            assign(
                sec(o(), m, 2),
                sec(o(), m, 1),
                sec(0, m, 1),
                Body::AddScalar,
            ),
            assign(sec(o(), m, 3), sec(o(), m, 4), sec(o(), m, 2), Body::Triad),
        ],
        redistribute_k: 8,
    });
    // A general-case strided copy and a dense triad.
    let n = 4096 / div;
    let m = n / 7 - 2;
    v.push(Shape {
        n,
        ks: [4, 4, 5],
        assigns: vec![
            assign(
                sec(o(), m, 7),
                sec(o(), m, 7),
                sec(0, m, 1),
                Body::AddScalar,
            ),
            assign(sec(0, n, 1), sec(0, n, 1), sec(0, n, 1), Body::Triad),
        ],
        redistribute_k: 32,
    });
    // One same-layout statement, redistributed far.
    let n = 2048 / div;
    v.push(Shape {
        n,
        ks: [8, 8, 8],
        assigns: vec![assign(
            sec(0, n / 2, 2),
            sec(1, n / 2, 2),
            sec(0, n / 2, 1),
            Body::Triad,
        )],
        redistribute_k: 3,
    });
    v
}

/// Splits a script into its directive block and its statement lines,
/// exactly as `Interp::run` does.
fn split(script: &str) -> (String, Vec<String>) {
    const DIRECTIVES: [&str; 7] = [
        "PROCESSORS",
        "TEMPLATE",
        "REAL",
        "INTEGER",
        "DIMENSION",
        "ALIGN",
        "DISTRIBUTE",
    ];
    let mut directives = String::new();
    let mut statements = Vec::new();
    for raw in script.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('!') {
            continue;
        }
        let first = line
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        if DIRECTIVES.contains(&first.as_str()) {
            directives.push_str(line);
            directives.push('\n');
        } else {
            statements.push(line.to_string());
        }
    }
    (directives, statements)
}

fn get<'a>(
    arrays: &'a HashMap<String, DistArray<f64>>,
    name: &str,
) -> Result<&'a DistArray<f64>, String> {
    arrays
        .get(name)
        .ok_or_else(|| format!("unknown array `{name}`"))
}

/// Runs `script` as the sequence of public calls `Interp::run` makes on
/// the default path — `Program::parse`, `DistArray::new`, `pool::warm`,
/// and per statement the expression parser, the fused-program lookup and
/// epoch, or `redistribute` — timing each call as a span of `led`.
/// Returns the `PRINT` lines.
pub fn run_decomposed(
    script: &str,
    led: &mut Ledger,
    facts: &mut OpFacts,
) -> Result<Vec<String>, String> {
    let (directives, statements) = split(script);
    let program = led
        .time("hpf.parse", || Program::parse(&directives))
        .map_err(|e| e.0)?;
    let mut arrays: HashMap<String, DistArray<f64>> = HashMap::new();
    let s = led.begin("spmd.darray");
    for name in program.arrays.keys() {
        let map = program.array_map(name).map_err(|e| e.0)?;
        let dm = &map.dims()[0];
        let arr = DistArray::new(dm.procs(), dm.block_size(), dm.extent(), 0.0f64)
            .map_err(|e| e.to_string())?;
        arrays.insert(name.clone(), arr);
    }
    led.end(s);
    let mut sizes: Vec<i64> = arrays.values().map(DistArray::p).collect();
    sizes.sort_unstable();
    sizes.dedup();
    led.time("spmd.pool", || sizes.iter().for_each(|&p| pool::warm(p)));
    let kind = transport::active_transport();
    let launch = pool::default_launch();
    let mut output = Vec::new();
    for line in statements {
        let upper = line.to_ascii_uppercase();
        let words: Vec<&str> = upper.split_whitespace().collect();
        match words.as_slice() {
            ["INIT", name, "CONST", v] => {
                let v: f64 = v.parse().map_err(|_| format!("bad number `{v}`"))?;
                init(&mut arrays, name, 0.0, v, led)?;
            }
            ["INIT", name, "LINEAR", a, b] => {
                let a: f64 = a.parse().map_err(|_| format!("bad number `{a}`"))?;
                let b: f64 = b.parse().map_err(|_| format!("bad number `{b}`"))?;
                init(&mut arrays, name, a, b, led)?;
            }
            ["ASSIGN", ..] => {
                let rest = upper["ASSIGN ".len()..].trim();
                let (lhs_src, rhs_src) = rest.split_once('=').ok_or("ASSIGN needs `=`")?;
                let (lhs, parsed) = led.time("hpf.parse", || {
                    (parse_lhs(lhs_src.trim()), parse_expr(rhs_src.trim()))
                });
                let (lhs, parsed) = (lhs.map_err(|e| e.0)?, parsed.map_err(|e| e.0)?);
                let operands: Vec<DistArray<f64>> = led.time("spmd.darray", || {
                    parsed
                        .refs
                        .iter()
                        .map(|r| get(&arrays, &r.array).cloned())
                        .collect::<Result<_, _>>()
                })?;
                let target = arrays
                    .get_mut(&lhs.array)
                    .ok_or_else(|| format!("unknown array `{}`", lhs.array))?;
                let ops: Vec<(i64, RegularSection)> = operands
                    .iter()
                    .zip(&parsed.refs)
                    .map(|(a, r)| (a.k(), r.section))
                    .collect();
                let block = fuse::epoch_block_elems::<f64>(&lhs.section);
                let (p, k) = (target.p(), target.k());
                let program = led
                    .time("spmd.cache", || {
                        fuse::cached_program::<f64>(
                            p,
                            k,
                            &lhs.section,
                            &ops,
                            ExecMode::Batched,
                            kind,
                            block,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let refs: Vec<&DistArray<f64>> = operands.iter().collect();
                led.time("spmd.fuse.exec", || {
                    program.execute(target, &refs, |args| parsed.eval(args), launch, kind)
                });
                let census = program.census();
                facts.census.sends += census.sends;
                facts.census.send_blocks += census.send_blocks;
                facts.census.apply_segments += census.apply_segments;
                facts.blocked |= fuse::last_blocked() == Some(true);
                facts.bytes += lhs.section.count() as u64 * 8 * (ops.len() as u64 + 1);
                facts.ws_bytes +=
                    8 * (target.len() + operands.iter().map(DistArray::len).sum::<i64>()) as u64;
            }
            ["REDISTRIBUTE", name, format] => {
                let k: i64 = format
                    .strip_prefix("CYCLIC(")
                    .and_then(|x| x.strip_suffix(')'))
                    .and_then(|x| x.parse().ok())
                    .ok_or_else(|| format!("unsupported distribution `{format}`"))?;
                let arr = get(&arrays, name)?;
                let new = led
                    .time("spmd.comm.redistribute", || statement::redistribute(arr, k))
                    .map_err(|e| e.to_string())?;
                arrays.insert(name.to_string(), new);
            }
            ["PRINT", "SUM", secref] => {
                let line = led.time("rt.interp", || -> Result<String, String> {
                    let r = parse_lhs(secref).map_err(|e| e.0)?;
                    let arr = get(&arrays, &r.array)?;
                    let values: Vec<f64> = r
                        .section
                        .iter()
                        .map(|i| arr.get(i).copied())
                        .collect::<Result<_, _>>()
                        .map_err(|e| e.to_string())?;
                    let sum: f64 = values.iter().sum();
                    Ok(format!("SUM {secref} = {sum}"))
                })?;
                output.push(line);
            }
            _ => return Err(format!("statement outside the benchmark grammar: `{line}`")),
        }
    }
    Ok(output)
}

/// `INIT name LINEAR a b` (`CONST v` is `a = 0`), as the interpreter
/// executes it.
fn init(
    arrays: &mut HashMap<String, DistArray<f64>>,
    name: &str,
    a: f64,
    b: f64,
    led: &mut Ledger,
) -> Result<(), String> {
    let arr = arrays
        .get_mut(name)
        .ok_or_else(|| format!("unknown array `{name}`"))?;
    led.time("rt.interp", || {
        for i in 0..arr.len() {
            arr.set(i, a * i as f64 + b).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

/// The `scripts` workload.
pub struct ScriptWorkload {
    shapes: Vec<Shape>,
    pos: usize,
    /// Seed-drawn offset of every op's scalars.
    salt: u64,
    output: Vec<String>,
}

impl ScriptWorkload {
    /// The workload for `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let shapes = shapes(scale);
        let pos = shapes.len() - 1;
        ScriptWorkload {
            shapes,
            pos,
            salt: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            output: Vec::new(),
        }
    }

    fn scalars(&self, c: u64) -> Scalars {
        Scalars::of(c.wrapping_add(self.salt))
    }

    fn script(&self, c: u64) -> String {
        self.shapes[self.pos].text(self.scalars(c))
    }
}

impl Workload for ScriptWorkload {
    fn warm(&self) -> bool {
        true
    }

    fn setup(&mut self) -> Result<Setup, String> {
        let mut setup = Setup::default();
        for j in 0..self.shapes.len() {
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
        self.pos = (self.pos + 1) % self.shapes.len();
    }

    fn run(&mut self, c: u64) -> Result<(), String> {
        let script = self.script(c);
        self.output = Interp::run(&script).map_err(|e| e.0)?;
        Ok(())
    }

    fn run_traced(&mut self, c: u64, led: &mut Ledger) -> Result<OpFacts, String> {
        let script = self.script(c);
        let mut facts = OpFacts::default();
        self.output = run_decomposed(&script, led, &mut facts)?;
        Ok(facts)
    }

    fn check(&mut self, c: u64) -> bool {
        self.output == self.shapes[self.pos].expected(self.scalars(c))
    }

    fn replay(&mut self, _led: &mut Ledger, _counts: &mut ReplayCounts) {
        // Script shapes repeat, so the timed phase never misses; the
        // build layers are measured by the statement workloads.
    }

    fn corrupt(&mut self) {
        if let Some(line) = self.output.first_mut() {
            line.push('0');
        }
    }

    fn image(&self) -> Vec<u64> {
        self.output
            .iter()
            .flat_map(|l| l.bytes().chain([b'\n']))
            .map(u64::from)
            .collect()
    }
}
