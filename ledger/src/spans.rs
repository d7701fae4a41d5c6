//! The benchmark's own span recorder and the order statistics it reports.
//!
//! Spans are recorded from the benchmark's side, around each public call
//! into a layer: name, start, end, parent and op id. They stay in memory
//! and are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `spmd.cache`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Ledger {
    t0: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Op id stamped on new spans.
    pub op: u32,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Ledger {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: u32) {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Sum of the durations (ns) of the direct children of span `idx`.
    pub fn children_ns(&self, idx: u32) -> u64 {
        self.spans[idx as usize + 1..]
            .iter()
            .take_while(|s| s.start_ns <= self.spans[idx as usize].end_ns)
            .filter(|s| s.parent == idx)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as tab-separated `op name parent start_ns
    /// end_ns` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count); 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_children() {
        let mut led = Ledger::default();
        let op = led.begin("op");
        led.time("a", || std::hint::black_box(1 + 1));
        led.time("b", || std::hint::black_box(2 + 2));
        led.end(op);
        let want: u64 = led.spans[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(led.children_ns(op), want);
        assert!(led.spans[op as usize].dur_ns() >= want);
    }

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
