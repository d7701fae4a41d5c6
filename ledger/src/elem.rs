//! Element types the statement workloads move, and the statement bodies
//! evaluated on them.
//!
//! Every body takes a per-op scalar, so a stale or skipped result never
//! matches the reference of the op that was supposed to produce it.

use bcag_spmd::PackValue;

/// The right-hand side of a statement `A(sec) = rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// `A = c` (no operands).
    Fill,
    /// `A = B + c` (one operand).
    AddScalar,
    /// `A = B * c + C` (two operands).
    Triad,
}

impl Body {
    /// Number of operands the body reads.
    pub fn operands(self) -> usize {
        match self {
            Body::Fill => 0,
            Body::AddScalar => 1,
            Body::Triad => 2,
        }
    }
}

/// An element type the workloads run statements over.
pub trait Elem: PackValue + Copy + std::fmt::Debug {
    /// Deterministic input value for global index `i` of an array salted
    /// with `salt`.
    fn gen(i: i64, salt: u64) -> Self;
    /// The per-op scalar for op counter `c`.
    fn scalar(c: u64) -> Self;
    /// Elementwise addition (wrapping for integers).
    fn add(a: Self, b: Self) -> Self;
    /// Elementwise multiplication (wrapping for integers).
    fn mul(a: Self, b: Self) -> Self;
    /// Bitwise equality of two runs.
    fn same(a: &[Self], b: &[Self]) -> bool;
    /// A value that differs from `self` (test hook for corrupted images).
    fn corrupt(self) -> Self;
    /// Appends the value's bits to `out` (bitwise image comparisons).
    fn push_bits(self, out: &mut Vec<u64>);

    /// Evaluates `body` at one section rank.
    #[inline]
    fn eval(body: Body, args: &[Self], c: Self) -> Self {
        match body {
            Body::Fill => c,
            Body::AddScalar => Self::add(args[0], c),
            Body::Triad => Self::add(Self::mul(args[0], c), args[1]),
        }
    }
}

fn mix(i: i64, salt: u64) -> u64 {
    let mut x = (i as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn gen_f64(i: i64, salt: u64) -> f64 {
    (mix(i, salt) % 4096) as f64 * 0.25 - 512.0
}

impl Elem for f64 {
    fn gen(i: i64, salt: u64) -> Self {
        gen_f64(i, salt)
    }
    fn scalar(c: u64) -> Self {
        1.0 + (c % 1021) as f64 * 0.5
    }
    fn add(a: Self, b: Self) -> Self {
        a + b
    }
    fn mul(a: Self, b: Self) -> Self {
        a * b
    }
    fn same(a: &[Self], b: &[Self]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    fn corrupt(self) -> Self {
        self + 1.0
    }
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Elem for u8 {
    fn gen(i: i64, salt: u64) -> Self {
        mix(i, salt) as u8
    }
    fn scalar(c: u64) -> Self {
        (c % 251 + 1) as u8
    }
    fn add(a: Self, b: Self) -> Self {
        a.wrapping_add(b)
    }
    fn mul(a: Self, b: Self) -> Self {
        a.wrapping_mul(b)
    }
    fn same(a: &[Self], b: &[Self]) -> bool {
        a == b
    }
    fn corrupt(self) -> Self {
        self.wrapping_add(1)
    }
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(u64::from(self));
    }
}

impl Elem for [f64; 4] {
    fn gen(i: i64, salt: u64) -> Self {
        std::array::from_fn(|j| gen_f64(i, salt.wrapping_add(j as u64)))
    }
    fn scalar(c: u64) -> Self {
        let s = f64::scalar(c);
        [s, s + 0.25, s + 0.5, s + 0.75]
    }
    fn add(a: Self, b: Self) -> Self {
        std::array::from_fn(|j| a[j] + b[j])
    }
    fn mul(a: Self, b: Self) -> Self {
        std::array::from_fn(|j| a[j] * b[j])
    }
    fn same(a: &[Self], b: &[Self]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits()))
    }
    fn corrupt(self) -> Self {
        let mut v = self;
        v[0] += 1.0;
        v
    }
    fn push_bits(self, out: &mut Vec<u64>) {
        out.extend(self.map(f64::to_bits));
    }
}
