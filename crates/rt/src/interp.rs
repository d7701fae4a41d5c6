//! The script interpreter.
//!
//! A script mixes HPF mapping directives (handled by
//! [`bcag_hpf::parse::Program`]) with executable statements:
//!
//! ```text
//! PROCESSORS P(4)
//! TEMPLATE T(400)
//! REAL A(400)
//! ALIGN A(i) WITH T(i)
//! DISTRIBUTE T(CYCLIC(8)) ONTO P
//! REAL B(400) ...                       ! (each array needs its own chain)
//!
//! INIT A LINEAR 2 1                     ! A(i) = 2·i + 1
//! INIT B CONST 5
//! ASSIGN A(0:99:3) = 2.5 * B(2:68:2) + 1
//! FORALL I = 0:49:1 : A(2*I) = B(I) + 1
//! CSHIFT A B 5
//! PRINT SUM A(0:99:3)
//! PRINT STATS A(0:99:3)
//! PRINT TABLE A(4:301:9) 1
//! REDISTRIBUTE A CYCLIC(4)
//! ! rank-2 arrays: INIT2 / ASSIGN2 / PRINT2 SUM over (s0, s1) sections
//! ```
//!
//! Every `ASSIGN` runs through the full pipeline: gap tables from the
//! lattice algorithm, communication sets for mixed layouts, owner-computes
//! execution on the simulated SPMD machine.

use std::collections::HashMap;

use bcag_core::section::RegularSection;
use bcag_hpf::parse::{ParseError, Program};
use bcag_spmd::assign::plan_section;
use bcag_spmd::statement::{assign_expr, redistribute};
use bcag_spmd::{DistArray, DistMatrix};

use crate::expr::{parse_expr, parse_lhs, ParsedExpr};

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn parse_int(s: &str) -> Result<i64, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("expected an integer, got `{s}`")))
}

/// Interpreter state: named distributed arrays plus captured output.
#[derive(Debug, Default)]
pub struct Interp {
    arrays: HashMap<String, DistArray<f64>>,
    matrices: HashMap<String, DistMatrix<f64>>,
    /// Lines produced by `PRINT` statements (also returned by [`Interp::run`]).
    pub output: Vec<String>,
}

impl Interp {
    /// Runs a whole script; returns the `PRINT` output lines.
    pub fn run(script: &str) -> Result<Vec<String>, ParseError> {
        let _sp = bcag_trace::span("rt.run");
        // Phase 1: mapping directives.
        let directive_keywords = [
            "PROCESSORS",
            "TEMPLATE",
            "REAL",
            "INTEGER",
            "DIMENSION",
            "ALIGN",
            "DISTRIBUTE",
        ];
        let mut directives = String::new();
        let mut statements: Vec<(usize, String)> = Vec::new();
        for (no, raw) in script.lines().enumerate() {
            let mut line = raw.trim().to_string();
            if let Some(rest) = line
                .strip_prefix("!HPF$")
                .or_else(|| line.strip_prefix("!hpf$"))
            {
                line = rest.trim().to_string();
            } else if line.starts_with('!') || line.is_empty() {
                continue;
            }
            let first = line
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_ascii_uppercase();
            if directive_keywords.contains(&first.as_str()) {
                directives.push_str(&line);
                directives.push('\n');
            } else {
                statements.push((no + 1, line));
            }
        }
        let program = Program::parse(&directives)?;

        // Phase 2: materialize every declared (rank-1) array.
        let mut interp = Interp::default();
        for name in program.arrays.keys() {
            let map = program.array_map(name)?;
            for dm in map.dims() {
                if dm.alignment().a != 1 || dm.alignment().b != 0 {
                    return err(format!(
                        "array `{name}`: the interpreter requires identity alignment"
                    ));
                }
            }
            match map.rank() {
                1 => {
                    let dm = &map.dims()[0];
                    let arr =
                        DistArray::new(dm.procs(), dm.block_size(), dm.extent(), 0.0f64)
                            .map_err(|e| ParseError(e.to_string()))?;
                    interp.arrays.insert(name.clone(), arr);
                }
                2 => {
                    let mat = DistMatrix::new(map, 0.0f64)
                        .map_err(|e| ParseError(e.to_string()))?;
                    interp.matrices.insert(name.clone(), mat);
                }
                r => {
                    return err(format!(
                        "array `{name}`: the interpreter executes rank-1 and rank-2                          statements only (declared rank {r})"
                    ))
                }
            }
        }

        // Boot the resident worker pool for every machine size the
        // script's rank-1 arrays use, so the statement loop below runs
        // on warm node threads from its first statement (scripts
        // typically stream many statements through one machine).
        let mut sizes: Vec<i64> = interp.arrays.values().map(|a| a.p()).collect();
        sizes.sort_unstable();
        sizes.dedup();
        for p in sizes {
            bcag_spmd::pool::warm(p);
        }

        // Phase 3: execute statements in order. A panic unwinding out of
        // a statement (a pool poison surfaces as one) dumps the flight
        // ring so the crash carries its recent-statement context.
        let _flight_dump = crate::flight::DumpOnPanic;
        for (no, line) in statements {
            interp
                .exec(&line)
                .map_err(|e| ParseError(format!("line {no}: {}", e.0)))?;
        }
        Ok(interp.output)
    }

    /// Read access to a named array (for tests and embedding).
    pub fn array(&self, name: &str) -> Option<&DistArray<f64>> {
        self.arrays.get(&name.to_ascii_uppercase())
    }

    fn exec(&mut self, line: &str) -> Result<(), ParseError> {
        let upper = line.to_ascii_uppercase();
        let kind = statement_span_name(&upper);
        // One span per executed statement, named by statement kind, so a
        // trace shows which script statements the run time went to; the
        // timed_span feeds the same latencies into the rt_statement_ns
        // percentile histogram.
        let _sp = bcag_trace::span(kind);
        let _t = bcag_trace::timed_span("rt_statement_ns");
        let before = crate::flight::Baseline::capture();
        let result = self.dispatch(&upper, line);
        crate::flight::record(kind, line, before, result.is_ok());
        result
    }

    fn dispatch(&mut self, upper: &str, line: &str) -> Result<(), ParseError> {
        if let Some(rest) = upper.strip_prefix("INIT ") {
            self.exec_init(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("ASSIGN ") {
            self.exec_assign(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("PRINT ") {
            self.exec_print(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("REDISTRIBUTE ") {
            self.exec_redistribute(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("FORALL ") {
            self.exec_forall(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("CSHIFT ") {
            self.exec_cshift(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("ASSIGN2 ") {
            self.exec_assign2(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("INIT2 ") {
            self.exec_init2(rest.trim())
        } else if let Some(rest) = upper.strip_prefix("PRINT2 ") {
            self.exec_print2(rest.trim())
        } else {
            err(format!("unknown statement `{line}`"))
        }
    }

    fn get_matrix(&self, name: &str) -> Result<&DistMatrix<f64>, ParseError> {
        self.matrices
            .get(name)
            .ok_or_else(|| ParseError(format!("unknown rank-2 array `{name}`")))
    }

    fn parse_2d(src: &str) -> Result<(String, [RegularSection; 2]), ParseError> {
        let (name, secs) = Program::parse_section(src.trim())?;
        match <[RegularSection; 2]>::try_from(secs) {
            Ok(pair) => Ok((name, pair)),
            Err(_) => err(format!("`{src}` must have exactly two triplets")),
        }
    }

    /// `INIT2 M CONST v` or `INIT2 M LINEAR2 a b c` (`M(i,j) = a·i + b·j + c`).
    fn exec_init2(&mut self, rest: &str) -> Result<(), ParseError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let (name, f): (String, Box<dyn Fn(i64, i64) -> f64>) = match parts.as_slice() {
            [name, "CONST", v] => {
                let v: f64 = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{v}`")))?;
                (name.to_string(), Box::new(move |_, _| v))
            }
            [name, "LINEAR2", a, b, c] => {
                let a: f64 = a
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{a}`")))?;
                let b: f64 = b
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{b}`")))?;
                let c: f64 = c
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{c}`")))?;
                (
                    name.to_string(),
                    Box::new(move |i, j| a * i as f64 + b * j as f64 + c),
                )
            }
            _ => return err("INIT2 syntax: `INIT2 M CONST v` or `INIT2 M LINEAR2 a b c`"),
        };
        let mat = self
            .matrices
            .get_mut(&name)
            .ok_or_else(|| ParseError(format!("unknown rank-2 array `{name}`")))?;
        mat.fill_with(f).map_err(|e| ParseError(e.to_string()))
    }

    /// `ASSIGN2 M(s0, s1) = v` (scalar fill) or
    /// `ASSIGN2 M(s0, s1) = N(s0', s1')` (remapped copy).
    fn exec_assign2(&mut self, rest: &str) -> Result<(), ParseError> {
        let Some((lhs_src, rhs_src)) = rest.split_once('=') else {
            return err("ASSIGN2 needs `M(s0, s1) = ...`");
        };
        let (dst_name, dst_secs) = Self::parse_2d(lhs_src)?;
        let rhs = rhs_src.trim();
        if let Ok(v) = rhs.parse::<f64>() {
            let mat = self
                .matrices
                .get_mut(&dst_name)
                .ok_or_else(|| ParseError(format!("unknown rank-2 array `{dst_name}`")))?;
            return mat
                .apply_section(&dst_secs, |_, _, x| *x = v)
                .map_err(|e| ParseError(e.to_string()));
        }
        let (src_name, src_secs) = Self::parse_2d(rhs)?;
        let src = self.get_matrix(&src_name)?.clone();
        let dst = self
            .matrices
            .get_mut(&dst_name)
            .ok_or_else(|| ParseError(format!("unknown rank-2 array `{dst_name}`")))?;
        bcag_spmd::comm2d::assign_matrix(dst, &dst_secs, &src, &src_secs)
            .map_err(|e| ParseError(e.to_string()))
    }

    /// `PRINT2 SUM M(s0, s1)`.
    fn exec_print2(&mut self, rest: &str) -> Result<(), ParseError> {
        let Some(secref) = rest.strip_prefix("SUM ") else {
            return err("PRINT2 supports `PRINT2 SUM M(s0, s1)`");
        };
        let (name, secs) = Self::parse_2d(secref)?;
        let sum = self
            .get_matrix(&name)?
            .section_values(&secs)
            .map_err(|e| ParseError(e.to_string()))?
            .fold(0.0f64, |sum, v| sum + v);
        self.output.push(format!("SUM2 {} = {sum}", secref.trim()));
        Ok(())
    }

    /// `FORALL I = l:u:s : A(a*I+b) = expr-affine-in-I`.
    fn exec_forall(&mut self, rest: &str) -> Result<(), ParseError> {
        use crate::expr::{parse_affine_expr, parse_affine_lhs, Expr};
        let Some((head, body)) = rest.split_once(" : ") else {
            return err("FORALL syntax: `FORALL I = l:u:s : A(a*I+b) = expr`");
        };
        let Some((var, triplet)) = head.split_once('=') else {
            return err("FORALL needs `I = l:u:s`");
        };
        let var = var.trim();
        let fields: Vec<&str> = triplet.trim().split(':').map(str::trim).collect();
        let (lo, hi, st) = match fields.as_slice() {
            [l, u] => (parse_int(l)?, parse_int(u)?, 1),
            [l, u, s] => (parse_int(l)?, parse_int(u)?, parse_int(s)?),
            _ => return err("FORALL bounds must be `l:u[:s]`"),
        };
        if st <= 0 || hi < lo {
            return err("FORALL requires an ascending nonempty range");
        }
        let count = (hi - lo) / st + 1;
        let Some((lhs_src, rhs_src)) = body.split_once('=') else {
            return err("FORALL body needs `A(a*I+b) = expr`");
        };
        let lhs = parse_affine_lhs(lhs_src.trim(), var)?;
        if lhs.a <= 0 {
            return err("FORALL left-hand side subscript must be increasing in the variable");
        }
        let parsed = parse_affine_expr(rhs_src.trim(), var)?;

        // Convert each variable-dependent reference into a section over the
        // FORALL range; fold constant-subscript references into literals.
        let mut sections: Vec<(usize, crate::expr::SectionRef)> = Vec::new();
        let mut const_values: Vec<(usize, f64)> = Vec::new();
        for (idx, r) in parsed.refs.iter().enumerate() {
            if r.a == 0 {
                let arr = self.get(&r.array)?;
                let v = *arr.get(r.b).map_err(|e| ParseError(e.to_string()))?;
                const_values.push((idx, v));
            } else if r.a < 0 {
                return err("descending FORALL subscripts are not supported");
            } else {
                let section = RegularSection::new(r.a * lo + r.b, r.a * hi + r.b, r.a * st)
                    .map_err(|e| ParseError(e.to_string()))?;
                debug_assert_eq!(section.count(), count);
                sections.push((
                    idx,
                    crate::expr::SectionRef {
                        array: r.array.clone(),
                        section,
                    },
                ));
            }
        }
        // Substitute constants into the AST; remap Ref indices to the
        // compacted operand list.
        let remap: std::collections::HashMap<usize, usize> = sections
            .iter()
            .enumerate()
            .map(|(new, (old, _))| (*old, new))
            .collect();
        let consts: std::collections::HashMap<usize, f64> = const_values.into_iter().collect();
        fn rewrite(
            e: &Expr,
            remap: &std::collections::HashMap<usize, usize>,
            consts: &std::collections::HashMap<usize, f64>,
        ) -> Expr {
            match e {
                Expr::Num(v) => Expr::Num(*v),
                Expr::Ref(i) => match consts.get(i) {
                    Some(v) => Expr::Num(*v),
                    None => Expr::Ref(remap[i]),
                },
                Expr::Neg(x) => Expr::Neg(Box::new(rewrite(x, remap, consts))),
                Expr::Bin(op, a, b) => Expr::Bin(
                    *op,
                    Box::new(rewrite(a, remap, consts)),
                    Box::new(rewrite(b, remap, consts)),
                ),
            }
        }
        let ast = rewrite(&parsed.ast, &remap, &consts);

        let lhs_section = RegularSection::new(lhs.a * lo + lhs.b, lhs.a * hi + lhs.b, lhs.a * st)
            .map_err(|e| ParseError(e.to_string()))?;
        let refs: Vec<(&str, RegularSection)> = sections
            .iter()
            .map(|(_, r)| (r.array.as_str(), r.section))
            .collect();
        self.assign_named(&lhs.array, &lhs_section, &refs, |args| {
            crate::expr::eval_ast(&ast, args)
        })
    }

    /// Runs `assign_expr` into the array named `lhs` from the named
    /// operand sections. The LHS leaves the map for the statement and
    /// goes back on every path, errors included; the other operands are
    /// borrowed, and only operands naming the LHS read a copy of it
    /// (taken once), which keeps `A = A + 1` a snapshot read.
    fn assign_named(
        &mut self,
        lhs: &str,
        lhs_section: &RegularSection,
        refs: &[(&str, RegularSection)],
        f: impl Fn(&[f64]) -> f64 + Sync,
    ) -> Result<(), ParseError> {
        let mut taken = self.arrays.remove_entry(lhs);
        let result = (|| {
            let lhs_copy = match &taken {
                Some((_, array)) if refs.iter().any(|(name, _)| *name == lhs) => {
                    Some(array.clone())
                }
                _ => None,
            };
            let operands: Vec<(&DistArray<f64>, RegularSection)> = refs
                .iter()
                .map(|&(name, section)| {
                    let array = if name == lhs {
                        lhs_copy.as_ref()
                    } else {
                        self.arrays.get(name)
                    };
                    array
                        .map(|array| (array, section))
                        .ok_or_else(|| ParseError(format!("unknown array `{name}`")))
                })
                .collect::<Result<_, _>>()?;
            let (_, target) = taken
                .as_mut()
                .ok_or_else(|| ParseError(format!("unknown array `{lhs}`")))?;
            assign_expr(target, lhs_section, &operands, f).map_err(|e| ParseError(e.to_string()))
        })();
        if let Some((name, array)) = taken {
            self.arrays.insert(name, array);
        }
        result
    }

    /// `CSHIFT A B n` — `A = CSHIFT(B, n)`.
    fn exec_cshift(&mut self, rest: &str) -> Result<(), ParseError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [dst, src, amount] = parts.as_slice() else {
            return err("CSHIFT syntax: `CSHIFT A B n`");
        };
        let amount: i64 = amount
            .parse()
            .map_err(|_| ParseError(format!("bad shift `{amount}`")))?;
        let shifted = bcag_spmd::shift::cshift(self.get(src)?, amount)
            .map_err(|e| ParseError(e.to_string()))?;
        let target = self
            .arrays
            .get_mut(*dst)
            .ok_or_else(|| ParseError(format!("unknown array `{dst}`")))?;
        if target.len() != shifted.len() {
            return err("CSHIFT arrays must have equal extents");
        }
        *target = if target.k() == shifted.k() {
            shifted
        } else {
            redistribute(&shifted, target.k()).map_err(|e| ParseError(e.to_string()))?
        };
        Ok(())
    }

    fn get(&self, name: &str) -> Result<&DistArray<f64>, ParseError> {
        self.arrays
            .get(name)
            .ok_or_else(|| ParseError(format!("unknown array `{name}`")))
    }

    /// `INIT A CONST v` or `INIT A LINEAR a b` (`A(i) = a·i + b`).
    fn exec_init(&mut self, rest: &str) -> Result<(), ParseError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let (name, spec) = match parts.as_slice() {
            [name, "CONST", v] => {
                let v: f64 = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{v}`")))?;
                (name.to_string(), (0.0, v))
            }
            [name, "LINEAR", a, b] => {
                let a: f64 = a
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{a}`")))?;
                let b: f64 = b
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{b}`")))?;
                (name.to_string(), (a, b))
            }
            _ => return err("INIT syntax: `INIT A CONST v` or `INIT A LINEAR a b`"),
        };
        let arr = self
            .arrays
            .get_mut(&name)
            .ok_or_else(|| ParseError(format!("unknown array `{name}`")))?;
        arr.fill_with(|i| spec.0 * i as f64 + spec.1);
        Ok(())
    }

    /// `ASSIGN A(l:u:s) = expr`.
    fn exec_assign(&mut self, rest: &str) -> Result<(), ParseError> {
        let Some((lhs_src, rhs_src)) = rest.split_once('=') else {
            return err("ASSIGN needs `A(l:u:s) = expr`");
        };
        let lhs = parse_lhs(lhs_src.trim())?;
        let parsed: ParsedExpr = parse_expr(rhs_src.trim())?;
        // Normalize the LHS (descending LHS handled by reversal of both
        // sides would change operand pairing; keep it simple and require
        // ascending LHS).
        if lhs.section.s <= 0 {
            return err("ASSIGN requires an ascending LHS section");
        }
        for r in &parsed.refs {
            if r.section.count() != lhs.section.count() {
                return err(format!(
                    "operand {}({}:{}:{}) does not conform to the LHS",
                    r.array, r.section.l, r.section.u, r.section.s
                ));
            }
            if r.section.s <= 0 {
                return err("descending operand sections are not yet supported in ASSIGN");
            }
        }
        let refs: Vec<(&str, RegularSection)> = parsed
            .refs
            .iter()
            .map(|r| (r.array.as_str(), r.section))
            .collect();
        self.assign_named(&lhs.array, &lhs.section, &refs, |args| parsed.eval(args))
    }

    /// `PRINT SUM A(l:u:s)`, `PRINT TABLE A(l:u:s) m`, `PRINT STATS
    /// A(l:u:s)` or `PRINT A(l:u:s)`.
    fn exec_print(&mut self, rest: &str) -> Result<(), ParseError> {
        if let Some(secref) = rest.strip_prefix("STATS ") {
            let r = parse_lhs(secref.trim())?;
            let arr = self.get(&r.array)?;
            let stats = bcag_spmd::stats::load_stats(arr.p(), arr.k(), &r.section)
                .map_err(|e| ParseError(e.to_string()))?;
            self.output.push(format!(
                "STATS {} per_proc={:?} imbalance={:.3}",
                secref.trim(),
                stats.per_proc,
                stats.imbalance
            ));
            return Ok(());
        }
        if let Some(secref) = rest.strip_prefix("SUM ") {
            let r = parse_lhs(secref.trim())?;
            let mut values = self
                .get(&r.array)?
                .section_values(&r.section)
                .map_err(|e| ParseError(e.to_string()))?;
            // Folds as `Iterator::sum` does, except that an empty section
            // sums to 0, not to the -0.0 that `sum` starts from.
            let sum = values
                .next()
                .map_or(0.0, |&first| values.fold(first, |sum, v| sum + v));
            self.output.push(format!("SUM {} = {}", secref.trim(), sum));
            return Ok(());
        }
        if let Some(tail) = rest.strip_prefix("TABLE ") {
            // `PRINT TABLE A(l:u:s) m` — the per-processor AM table.
            let mut parts = tail.trim().rsplitn(2, ' ');
            let m: i64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| ParseError("PRINT TABLE needs a processor number".into()))?;
            let secref = parts
                .next()
                .ok_or_else(|| ParseError("PRINT TABLE syntax".into()))?;
            let r = parse_lhs(secref.trim())?;
            let arr = self.get(&r.array)?;
            let norm = r.section.normalized();
            let plans = plan_section(
                arr.p(),
                arr.k(),
                &RegularSection::new(norm.lo, norm.hi, norm.step)
                    .map_err(|e| ParseError(e.to_string()))?,
                bcag_core::method::Method::Lattice,
            )
            .map_err(|e| ParseError(e.to_string()))?;
            let Some(plan) = usize::try_from(m).ok().and_then(|m| plans.get(m)) else {
                return err(format!(
                    "PRINT TABLE processor {m} is outside 0..{}",
                    plans.len()
                ));
            };
            self.output.push(format!(
                "TABLE {} proc {m}: start={:?} AM={:?}",
                secref.trim(),
                plan.start,
                plan.delta_m
            ));
            return Ok(());
        }
        let r = parse_lhs(rest.trim())?;
        let values: Vec<f64> = self
            .get(&r.array)?
            .section_values(&r.section)
            .map_err(|e| ParseError(e.to_string()))?
            .copied()
            .collect();
        self.output.push(format!("{} = {:?}", rest.trim(), values));
        Ok(())
    }

    /// `REDISTRIBUTE A CYCLIC(4)`.
    fn exec_redistribute(&mut self, rest: &str) -> Result<(), ParseError> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [name, format] = parts.as_slice() else {
            return err("REDISTRIBUTE syntax: `REDISTRIBUTE A CYCLIC(4)`");
        };
        let new_k = if let Some(inner) = format
            .strip_prefix("CYCLIC(")
            .and_then(|x| x.strip_suffix(')'))
        {
            inner
                .parse::<i64>()
                .map_err(|_| ParseError(format!("bad block size `{inner}`")))?
        } else if *format == "CYCLIC" {
            1
        } else if *format == "BLOCK" {
            let arr = self.get(name)?;
            (arr.len() + arr.p() - 1) / arr.p()
        } else {
            return err(format!("unknown distribution `{format}`"));
        };
        let arr = self.get(name)?;
        let new = redistribute(arr, new_k).map_err(|e| ParseError(e.to_string()))?;
        self.arrays.insert(name.to_string(), new);
        Ok(())
    }
}

/// Maps an (uppercased) statement line to a static span name. Longer
/// keywords are matched first (`INIT2` before `INIT`).
fn statement_span_name(upper: &str) -> &'static str {
    const KINDS: &[(&str, &str)] = &[
        ("INIT2 ", "rt.INIT2"),
        ("INIT ", "rt.INIT"),
        ("ASSIGN2 ", "rt.ASSIGN2"),
        ("ASSIGN ", "rt.ASSIGN"),
        ("PRINT2 ", "rt.PRINT2"),
        ("PRINT ", "rt.PRINT"),
        ("REDISTRIBUTE ", "rt.REDISTRIBUTE"),
        ("FORALL ", "rt.FORALL"),
        ("CSHIFT ", "rt.CSHIFT"),
    ];
    for (prefix, name) in KINDS {
        if upper.starts_with(prefix) {
            return name;
        }
    }
    "rt.statement"
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "
        PROCESSORS P(4)
        TEMPLATE T(400)
        REAL A(400)
        ALIGN A(i) WITH T(i)
        DISTRIBUTE T(CYCLIC(8)) ONTO P

        TEMPLATE TB(400)
        REAL B(400)
        ALIGN B(i) WITH TB(i)
        DISTRIBUTE TB(CYCLIC(5)) ONTO P

        INIT B LINEAR 1 0
        ASSIGN A(0:99:3) = 2 * B(0:330:10) + 1
        PRINT SUM A(0:99:3)
        PRINT A(0:9:3)
    ";

    #[test]
    fn script_executes_end_to_end() {
        let out = Interp::run(SCRIPT).unwrap();
        // A(3t) = 2·(10t) + 1 for t = 0..34; sum = 2·10·(33·34/2) + 34.
        let expect_sum = 20.0 * (33.0 * 34.0 / 2.0) + 34.0;
        assert_eq!(out[0], format!("SUM A(0:99:3) = {expect_sum}"));
        assert_eq!(out[1], "A(0:9:3) = [1.0, 21.0, 41.0, 61.0]");
    }

    #[test]
    fn self_reference_snapshots() {
        let out = Interp::run(
            "PROCESSORS P(2)
             TEMPLATE T(20)
             REAL A(20)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(3)) ONTO P
             INIT A LINEAR 1 0
             ASSIGN A(0:9:1) = A(10:19:1)
             PRINT A(0:9:1)",
        )
        .unwrap();
        assert_eq!(
            out[0],
            "A(0:9:1) = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]"
        );
    }

    #[test]
    fn failed_assignments_keep_the_lhs_array() {
        let mut interp = Interp::default();
        let linear: Vec<f64> = (0..20).map(f64::from).collect();
        interp
            .arrays
            .insert("A".into(), DistArray::from_global(2, 3, &linear).unwrap());
        interp
            .arrays
            .insert("B".into(), DistArray::new(2, 4, 20, 2.0).unwrap());
        for (line, want) in [
            ("ASSIGN A(0:9:1) = C(0:9:1)", "unknown array `C`"),
            ("ASSIGN A(0:9:1) = A(0:9:1) + C(0:9:1)", "unknown array `C`"),
            ("ASSIGN A(0:29:1) = B(0:29:1)", "outside its array"),
            ("FORALL I = 0:9 : A(I) = Z(I) + A(I)", "unknown array `Z`"),
            ("ASSIGN Z(0:9:1) = A(0:9:1)", "unknown array `Z`"),
        ] {
            let e = interp.exec(line).unwrap_err();
            assert!(e.0.contains(want), "{line}: {e}");
            assert_eq!(
                interp.array("A").map(|a| a.to_global()),
                Some(linear.clone())
            );
        }
        // The operand naming the LHS reads a snapshot of it.
        interp
            .exec("ASSIGN A(1:10:1) = A(0:9:1) + B(0:9:1)")
            .unwrap();
        let got = interp.array("A").unwrap().to_global();
        let want: Vec<f64> = (0..20)
            .map(|i| if (1..=10).contains(&i) { i + 1 } else { i })
            .map(f64::from)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn redistribute_statement() {
        let out = Interp::run(
            "PROCESSORS P(4)
             TEMPLATE T(100)
             REAL A(100)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(8)) ONTO P
             INIT A LINEAR 3 1
             REDISTRIBUTE A CYCLIC(5)
             PRINT A(0:4:1)
             REDISTRIBUTE A BLOCK
             PRINT A(96:99:1)",
        )
        .unwrap();
        assert_eq!(out[0], "A(0:4:1) = [1.0, 4.0, 7.0, 10.0, 13.0]");
        assert_eq!(out[1], "A(96:99:1) = [289.0, 292.0, 295.0, 298.0]");
    }

    #[test]
    fn print_table_matches_paper() {
        let out = Interp::run(
            "PROCESSORS P(4)
             TEMPLATE T(320)
             REAL A(320)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(8)) ONTO P
             PRINT TABLE A(4:301:9) 1",
        )
        .unwrap();
        assert_eq!(
            out[0],
            "TABLE A(4:301:9) proc 1: start=Some(5) AM=[3, 12, 15, 12, 3, 12, 3, 12]"
        );
    }

    #[test]
    fn forall_statement() {
        let out = Interp::run(
            "PROCESSORS P(4)
             TEMPLATE T(300)
             REAL A(300)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(8)) ONTO P
             TEMPLATE TB(300)
             REAL B(300)
             ALIGN B(i) WITH TB(i)
             DISTRIBUTE TB(CYCLIC(5)) ONTO P
             INIT B LINEAR 1 0
             INIT A CONST 0
             FORALL I = 0:49:1 : A(3 * I) = B(2 * I) + B(0) + 1
             PRINT A(0:12:3)",
        )
        .unwrap();
        // A(3I) = 2I + 0 + 1.
        assert_eq!(out[0], "A(0:12:3) = [1.0, 3.0, 5.0, 7.0, 9.0]");
    }

    #[test]
    fn forall_with_offset_subscripts() {
        let out = Interp::run(
            "PROCESSORS P(2)
             TEMPLATE T(100)
             REAL A(100)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(4)) ONTO P
             INIT A LINEAR 1 0
             FORALL I = 0:40:2 : A(I + 10) = A(I) * 2
             PRINT A(10:16:2)",
        )
        .unwrap();
        // A(I+10) = 2·I for even I: A(10)=0, A(12)=4, A(14)=8, A(16)=12.
        assert_eq!(out[0], "A(10:16:2) = [0.0, 4.0, 8.0, 12.0]");
    }

    #[test]
    fn cshift_statement() {
        let out = Interp::run(
            "PROCESSORS P(4)
             TEMPLATE T(60)
             REAL A(60)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(3)) ONTO P
             TEMPLATE TB(60)
             REAL B(60)
             ALIGN B(i) WITH TB(i)
             DISTRIBUTE TB(CYCLIC(7)) ONTO P
             INIT B LINEAR 1 0
             CSHIFT A B 5
             PRINT A(0:3:1)
             PRINT A(55:59:1)",
        )
        .unwrap();
        assert_eq!(out[0], "A(0:3:1) = [5.0, 6.0, 7.0, 8.0]");
        assert_eq!(out[1], "A(55:59:1) = [0.0, 1.0, 2.0, 3.0, 4.0]");
    }

    #[test]
    fn print_stats_statement() {
        let out = Interp::run(
            "PROCESSORS P(4)
             TEMPLATE T(320)
             REAL A(320)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(8)) ONTO P
             PRINT STATS A(4:301:9)",
        )
        .unwrap();
        assert!(
            out[0].starts_with("STATS A(4:301:9) per_proc=["),
            "{}",
            out[0]
        );
        assert!(out[0].contains("imbalance="), "{}", out[0]);
    }

    #[test]
    fn rank2_statements() {
        let out = Interp::run(
            "PROCESSORS G(2, 2)
             TEMPLATE T2(24, 24)
             REAL M(24, 24)
             ALIGN M(i, j) WITH T2(i, j)
             DISTRIBUTE T2(CYCLIC(3), CYCLIC(4)) ONTO G

             PROCESSORS G2(2, 2)
             TEMPLATE T3(24, 24)
             REAL N(24, 24)
             ALIGN N(i, j) WITH T3(i, j)
             DISTRIBUTE T3(CYCLIC(5), CYCLIC(2)) ONTO G2

             INIT2 N LINEAR2 100 1 0
             ASSIGN2 M(0:23:1, 0:23:1) = N(0:23:1, 0:23:1)
             PRINT2 SUM M(0:1:1, 0:1:1)",
        )
        .unwrap();
        // N(i,j) = 100i + j; sum over the 2x2 corner = 0 + 1 + 100 + 101.
        assert_eq!(out[0], "SUM2 M(0:1:1, 0:1:1) = 202");
    }

    #[test]
    fn rank2_strided_copy_and_fill() {
        let out = Interp::run(
            "PROCESSORS G(2, 2)
             TEMPLATE T2(12, 12)
             REAL M(12, 12)
             ALIGN M(i, j) WITH T2(i, j)
             DISTRIBUTE T2(CYCLIC(2), CYCLIC(3)) ONTO G
             INIT2 M CONST 1
             ASSIGN2 M(1:11:2, 0:11:3) = 5
             PRINT2 SUM M(0:11:1, 0:11:1)",
        )
        .unwrap();
        // 6 rows x 4 cols raised from 1 to 5: total = 144 + 24*4 = 240.
        assert_eq!(out[0], "SUM2 M(0:11:1, 0:11:1) = 240");
    }

    #[test]
    fn scripts_print_the_sequential_reference() {
        // Mixed-layout, self-referencing and FORALL statements through the
        // runtime must print exactly what the same statements evaluated
        // over plain global arrays give.
        const SCRIPT: &str = "
            PROCESSORS P(4)
            TEMPLATE T(400)
            REAL A(400)
            ALIGN A(i) WITH T(i)
            DISTRIBUTE T(CYCLIC(8)) ONTO P
            TEMPLATE TB(400)
            REAL B(400)
            ALIGN B(i) WITH TB(i)
            DISTRIBUTE TB(CYCLIC(5)) ONTO P
            INIT B LINEAR 1 0
            ASSIGN A(0:99:3) = 2 * B(0:330:10) + 1
            ASSIGN A(100:199:1) = A(0:99:1) * 0.5 - B(0:99:1)
            FORALL I = 0:49:1 : A(3 * I) = B(2 * I) + B(0) + 1
            PRINT SUM A(0:399:1)
            PRINT A(100:109:1)
        ";
        let b: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let mut a = vec![0.0f64; 400];
        for t in 0..34 {
            a[3 * t] = 2.0 * b[10 * t] + 1.0;
        }
        let before = a.clone();
        for t in 0..100 {
            a[100 + t] = before[t] * 0.5 - b[t];
        }
        for i in 0..50 {
            a[3 * i] = b[2 * i] + b[0] + 1.0;
        }
        let sum: f64 = a.iter().sum();
        let want = vec![
            format!("SUM A(0:399:1) = {sum}"),
            format!("A(100:109:1) = {:?}", &a[100..110]),
        ];
        assert_eq!(Interp::run(SCRIPT).unwrap(), want);
    }

    const SMALL: &str = "
        PROCESSORS P(2)
        TEMPLATE T(10)
        REAL A(10)
        ALIGN A(i) WITH T(i)
        DISTRIBUTE T(CYCLIC(3)) ONTO P
        PROCESSORS G(2, 2)
        TEMPLATE T2(4, 4)
        REAL M(4, 4)
        ALIGN M(i, j) WITH T2(i, j)
        DISTRIBUTE T2(CYCLIC(1), CYCLIC(2)) ONTO G
    ";

    #[test]
    fn empty_sections_sum_to_zero() {
        let out = Interp::run(&format!(
            "{SMALL}
             ASSIGN A(0:3:1) = -0
             INIT2 M CONST 1
             PRINT SUM A(5:4:1)
             PRINT SUM A(0:3:1)
             PRINT SUM A(9:0:-3)
             PRINT2 SUM M(3:2:1, 0:3:1)"
        ))
        .unwrap();
        // A non-empty sum folds exactly as `Iterator::sum`, so four -0.0
        // values still sum to -0.
        assert_eq!(
            out,
            [
                "SUM A(5:4:1) = 0",
                "SUM A(0:3:1) = -0",
                "SUM A(9:0:-3) = 0",
                "SUM2 M(3:2:1, 0:3:1) = 0"
            ]
        );
    }

    #[test]
    fn out_of_range_sections_keep_their_errors() {
        for (statement, message) in [
            ("PRINT SUM A(0:10:1)", "global index out of bounds"),
            ("PRINT A(12:2:-5)", "global index out of bounds"),
            ("PRINT2 SUM M(0:3:1, 1:4:1)", "index out of bounds"),
        ] {
            let e = Interp::run(&format!("{SMALL}\n{statement}")).unwrap_err();
            assert!(
                e.0.ends_with(&format!("precondition failed: {message}")),
                "{e}"
            );
        }
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let e = Interp::run(
            "PROCESSORS P(2)
             TEMPLATE T(10)
             REAL A(10)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(BLOCK) ONTO P
             FROBNICATE A",
        )
        .unwrap_err();
        assert!(e.0.contains("line 6"), "{e}");
        assert!(e.0.contains("FROBNICATE"), "{e}");
    }

    #[test]
    fn nonconforming_assign_rejected() {
        let e = Interp::run(
            "PROCESSORS P(2)
             TEMPLATE T(50)
             REAL A(50)
             ALIGN A(i) WITH T(i)
             DISTRIBUTE T(CYCLIC(4)) ONTO P
             ASSIGN A(0:9:1) = A(0:20:2) + A(0:9:1)",
        )
        .unwrap_err();
        assert!(e.0.contains("conform"), "{e}");
    }
}
