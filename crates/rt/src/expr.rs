//! Expression parser and evaluator for array statements.
//!
//! Grammar (elementwise over conforming sections; scalars broadcast):
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := factor (('*' | '/') factor)*
//! factor  := NUMBER | NAME '(' triplet (',' triplet)* ')' | '(' expr ')'
//!           | '-' factor
//! ```
//!
//! Section references are collected left to right; evaluation receives the
//! per-rank operand values in that order, which is exactly the argument
//! convention of `bcag_spmd::assign_expr`.

use bcag_core::section::RegularSection;
use bcag_hpf::parse::{ParseError, Program};

/// A section reference appearing in an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRef {
    /// Array name (uppercased).
    pub array: String,
    /// The 1-D section (the interpreter handles rank-1 arrays).
    pub section: RegularSection,
}

/// Expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A scalar literal, broadcast over the section extent.
    Num(f64),
    /// The `idx`-th collected section reference.
    Ref(usize),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Bin(Op, Box<Expr>, Box<Expr>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// A parsed expression plus its collected section references.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedExpr {
    /// The AST; `Expr::Ref(i)` indexes into `refs`.
    pub ast: Expr,
    /// Section references in left-to-right source order.
    pub refs: Vec<SectionRef>,
}

impl ParsedExpr {
    /// Evaluates at one section rank given the operand values (in `refs`
    /// order).
    pub fn eval(&self, args: &[f64]) -> f64 {
        eval_ast(&self.ast, args)
    }
}

/// Evaluates an AST over per-rank operand values.
pub fn eval_ast(e: &Expr, args: &[f64]) -> f64 {
    match e {
        Expr::Num(v) => *v,
        Expr::Ref(i) => args[*i],
        Expr::Neg(x) => -eval_ast(x, args),
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval_ast(a, args), eval_ast(b, args));
            match op {
                Op::Add => a + b,
                Op::Sub => a - b,
                Op::Mul => a * b,
                Op::Div => a / b,
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// A numeric literal: its value, and its source text, which section
    /// triplets parse as an exact integer.
    Num(f64, String),
    Name(String),
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Colon,
    Comma,
}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

fn tokenize(src: &str) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let v: f64 = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad number `{text}`")))?;
                toks.push(Tok::Num(v, text));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Name(
                    chars[start..i]
                        .iter()
                        .collect::<String>()
                        .to_ascii_uppercase(),
                ));
            }
            other => return err(format!("unexpected character `{other}`")),
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    refs: Vec<SectionRef>,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if &got == t => Ok(()),
            got => err(format!("expected {t:?}, got {got:?}")),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => Op::Add,
                Some(Tok::Minus) => Op::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => Op::Mul,
                Some(Tok::Slash) => Op::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Num(v, _)) => Ok(Expr::Num(v)),
            Some(Tok::Minus) => Ok(Expr::Neg(Box::new(self.factor()?))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(name)) => {
                self.expect(&Tok::LParen)?;
                // One triplet: l [: u [: s]] — integer literals only.
                let l = self.integer()?;
                let (u, s) = if matches!(self.peek(), Some(Tok::Colon)) {
                    self.bump();
                    let u = self.integer()?;
                    let s = if matches!(self.peek(), Some(Tok::Colon)) {
                        self.bump();
                        // Allow a signed stride.
                        let neg = if matches!(self.peek(), Some(Tok::Minus)) {
                            self.bump();
                            true
                        } else {
                            false
                        };
                        let v = self.integer()?;
                        if neg {
                            -v
                        } else {
                            v
                        }
                    } else {
                        1
                    };
                    (u, s)
                } else {
                    (l, 1)
                };
                self.expect(&Tok::RParen)?;
                let section =
                    RegularSection::new(l, u, s).map_err(|e| ParseError(e.to_string()))?;
                let idx = self.refs.len();
                self.refs.push(SectionRef {
                    array: name,
                    section,
                });
                Ok(Expr::Ref(idx))
            }
            got => err(format!("unexpected token {got:?} in expression")),
        }
    }

    /// A section bound or stride: the literal's text parsed as an exact
    /// `i64`, so a fraction or an out-of-range value is an error rather
    /// than a truncated or rounded float.
    fn integer(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Some(Tok::Num(_, text)) => text
                .parse()
                .map_err(|_| ParseError(format!("expected an integer, got `{text}`"))),
            got => err(format!("expected a number, got {got:?}")),
        }
    }
}

/// Parses an expression source string.
pub fn parse_expr(src: &str) -> Result<ParsedExpr, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        refs: Vec::new(),
    };
    let ast = p.expr()?;
    if p.pos != p.toks.len() {
        return err(format!("trailing tokens after expression in `{src}`"));
    }
    Ok(ParsedExpr { ast, refs: p.refs })
}

/// Parses a left-hand side `A(l:u:s)` using the hpf section grammar.
pub fn parse_lhs(src: &str) -> Result<SectionRef, ParseError> {
    let (name, secs) = Program::parse_section(src)?;
    if secs.len() != 1 {
        return err("the interpreter handles rank-1 arrays");
    }
    Ok(SectionRef {
        array: name,
        section: secs[0],
    })
}

/// An array reference with an affine subscript `a·var + b` (FORALL bodies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineRef {
    /// Array name (uppercased).
    pub array: String,
    /// Coefficient of the FORALL variable (0 for a constant subscript).
    pub a: i64,
    /// Constant offset.
    pub b: i64,
}

/// A parsed FORALL-body expression: the AST plus affine references.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedAffineExpr {
    /// AST; `Expr::Ref(i)` indexes into `refs`.
    pub ast: Expr,
    /// Affine array references in source order.
    pub refs: Vec<AffineRef>,
}

impl ParsedAffineExpr {
    /// Evaluates at one iteration given the operand values in `refs` order.
    pub fn eval(&self, args: &[f64]) -> f64 {
        eval_ast(&self.ast, args)
    }
}

/// Parses an expression whose array subscripts are affine in `var`, e.g.
/// `2.5 * B(2*I) + C(I+10) - D(5)` with `var = "I"`.
pub fn parse_affine_expr(src: &str, var: &str) -> Result<ParsedAffineExpr, ParseError> {
    let toks = tokenize(src)?;
    let mut p = AffineParser {
        inner: Parser {
            toks,
            pos: 0,
            refs: Vec::new(),
        },
        var: var.to_ascii_uppercase(),
        refs: Vec::new(),
    };
    let ast = p.expr()?;
    if p.inner.pos != p.inner.toks.len() {
        return err(format!("trailing tokens after expression in `{src}`"));
    }
    Ok(ParsedAffineExpr { ast, refs: p.refs })
}

/// Parses an affine left-hand side `A(a*I+b)`.
pub fn parse_affine_lhs(src: &str, var: &str) -> Result<AffineRef, ParseError> {
    let e = parse_affine_expr(src, var)?;
    match (&e.ast, e.refs.len()) {
        (Expr::Ref(0), 1) => Ok(e.refs[0].clone()),
        _ => err(format!(
            "FORALL left-hand side must be a single reference, got `{src}`"
        )),
    }
}

struct AffineParser {
    inner: Parser,
    var: String,
    refs: Vec<AffineRef>,
}

impl AffineParser {
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.inner.peek() {
                Some(Tok::Plus) => Op::Add,
                Some(Tok::Minus) => Op::Sub,
                _ => break,
            };
            self.inner.bump();
            let rhs = self.term()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.inner.peek() {
                Some(Tok::Star) => Op::Mul,
                Some(Tok::Slash) => Op::Div,
                _ => break,
            };
            self.inner.bump();
            let rhs = self.factor()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.inner.bump() {
            Some(Tok::Num(v, _)) => Ok(Expr::Num(v)),
            Some(Tok::Minus) => Ok(Expr::Neg(Box::new(self.factor()?))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.inner.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(name)) if name == self.var => {
                // A bare use of the variable as a value is not supported;
                // the variable only appears inside subscripts.
                err(format!(
                    "FORALL variable `{name}` may only appear inside subscripts"
                ))
            }
            Some(Tok::Name(name)) => {
                self.inner.expect(&Tok::LParen)?;
                let (a, b) = self.affine()?;
                self.inner.expect(&Tok::RParen)?;
                let idx = self.refs.len();
                self.refs.push(AffineRef { array: name, a, b });
                Ok(Expr::Ref(idx))
            }
            got => err(format!("unexpected token {got:?} in FORALL expression")),
        }
    }

    /// Parses `NUM`, `VAR`, `NUM*VAR`, `VAR*NUM`, each optionally `±NUM`.
    fn affine(&mut self) -> Result<(i64, i64), ParseError> {
        let (mut a, mut b) = (0i64, 0i64);
        // Leading term.
        match self.inner.bump() {
            Some(Tok::Num(v, _)) => {
                if matches!(self.inner.peek(), Some(Tok::Star)) {
                    self.inner.bump();
                    match self.inner.bump() {
                        Some(Tok::Name(n)) if n == self.var => a = v as i64,
                        got => return err(format!("expected the FORALL variable, got {got:?}")),
                    }
                } else {
                    b = v as i64;
                }
            }
            Some(Tok::Name(n)) if n == self.var => {
                a = 1;
                if matches!(self.inner.peek(), Some(Tok::Star)) {
                    self.inner.bump();
                    match self.inner.bump() {
                        Some(Tok::Num(v, _)) => a = v as i64,
                        got => return err(format!("expected a coefficient, got {got:?}")),
                    }
                }
            }
            got => return err(format!("bad affine subscript start: {got:?}")),
        }
        // Optional offset.
        match self.inner.peek() {
            Some(Tok::Plus) => {
                self.inner.bump();
                match self.inner.bump() {
                    Some(Tok::Num(v, _)) => b += v as i64,
                    got => return err(format!("expected an offset, got {got:?}")),
                }
            }
            Some(Tok::Minus) => {
                self.inner.bump();
                match self.inner.bump() {
                    Some(Tok::Num(v, _)) => b -= v as i64,
                    got => return err(format!("expected an offset, got {got:?}")),
                }
            }
            _ => {}
        }
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_triad() {
        let e = parse_expr("2.5 * B(2:200:2) + C(10:109)").unwrap();
        assert_eq!(e.refs.len(), 2);
        assert_eq!(e.refs[0].array, "B");
        assert_eq!(
            (
                e.refs[0].section.l,
                e.refs[0].section.u,
                e.refs[0].section.s
            ),
            (2, 200, 2)
        );
        assert_eq!(e.refs[1].section.s, 1);
        assert_eq!(e.eval(&[4.0, 7.0]), 2.5 * 4.0 + 7.0);
    }

    #[test]
    fn precedence_and_parens() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.eval(&[]), 7.0);
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.eval(&[]), 9.0);
        let e = parse_expr("-2 * 3 + 10 / 4").unwrap();
        assert_eq!(e.eval(&[]), -6.0 + 2.5);
    }

    #[test]
    fn negative_stride_sections() {
        let e = parse_expr("A(99:0:-3)").unwrap();
        assert_eq!(e.refs[0].section.s, -3);
    }

    #[test]
    fn errors() {
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("B(1:2:0)").is_err()); // zero stride
        assert!(parse_expr("$").is_err());
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("B(1").is_err());
    }

    /// Operand triplets are exact integers, rejected with the LHS's
    /// message when fractional — never truncated, and never rounded
    /// through a float past 2^53.
    #[test]
    fn operand_triplets_are_integers() {
        let lhs_err = parse_lhs("A(0.5:9:1)").unwrap_err().0;
        assert!(
            lhs_err.contains("expected an integer, got `0.5`"),
            "{lhs_err}"
        );
        for (src, bad) in [
            ("B(0.7:9.9:1) + 1", "0.7"),
            ("B(0:9.9:1) + 1", "9.9"),
            ("B(0:9:1.9) + 1", "1.9"),
            ("B(9:0:-1.5)", "1.5"),
            ("2 * B(0:99999999999999999999:1)", "99999999999999999999"),
        ] {
            let e = parse_expr(src).unwrap_err().0;
            assert!(
                e.contains(&format!("expected an integer, got `{bad}`")),
                "{src}: {e}"
            );
        }
        let e = parse_expr("B(9007199254740993:9007199254741001:4) + 0.5").unwrap();
        let sec = e.refs[0].section;
        assert_eq!(
            (sec.l, sec.u, sec.s),
            (9_007_199_254_740_993, 9_007_199_254_741_001, 4)
        );
        // Scalars stay floating point.
        assert_eq!(e.eval(&[1.0]), 1.5);
    }

    #[test]
    fn lhs_parsing() {
        let r = parse_lhs("A(0:99:3)").unwrap();
        assert_eq!(r.array, "A");
        assert_eq!((r.section.l, r.section.u, r.section.s), (0, 99, 3));
        assert!(parse_lhs("A(0:9, 0:9)").is_err());
    }
}
