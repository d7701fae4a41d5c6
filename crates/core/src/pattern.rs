//! The result type shared by every table-construction method: a processor's
//! cyclic access pattern (start location + memory-gap table `AM`).
//!
//! The paper's output (Figure 5) is the pair `(AM, length)` plus the start
//! location. We additionally carry the per-entry *global* index steps —
//! derived for free by every builder — because tests, bounded iteration and
//! the communication substrate all need to know *which* array element each
//! local address corresponds to.

use crate::error::Result;
use crate::layout::Layout;
use crate::params::Problem;
use crate::start::{count_owned, last_location};

/// The cyclic part of a non-empty access pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclicPattern {
    /// Global index of the first owned section element (`>= l`).
    pub start_global: i64,
    /// Local memory address of the start on this processor.
    pub start_local: i64,
    /// The `AM` table: local-memory gaps between consecutive owned section
    /// elements, in access order starting from the start location. Length
    /// is the cycle length (`<= k`); entry `t` is applied to move from the
    /// `t`-th to the `(t+1)`-th access (indices mod `length`).
    pub gaps: Vec<i64>,
    /// Global-index advance paired with each entry of `gaps`.
    pub global_steps: Vec<i64>,
}

/// A processor's access pattern: empty, or cyclic with period at most `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// The processor owns no section elements.
    Empty,
    /// The processor's accesses repeat with the given gap cycle.
    Cyclic(CyclicPattern),
}

/// Access pattern for one processor, bundled with its problem parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPattern {
    problem: Problem,
    m: i64,
    pattern: Pattern,
}

impl AccessPattern {
    /// Assembles a pattern; intended for the builder modules
    /// ([`crate::lattice_alg`], [`crate::sorting_alg`],
    /// [`crate::hiranandani`], [`crate::oracle`]).
    pub fn from_parts(problem: Problem, m: i64, pattern: Pattern) -> Self {
        AccessPattern {
            problem,
            m,
            pattern,
        }
    }

    /// The validated problem parameters this pattern answers.
    #[inline]
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Processor number the pattern belongs to.
    #[inline]
    pub fn proc(&self) -> i64 {
        self.m
    }

    /// The pattern body.
    #[inline]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Cycle length (`0` when the processor owns nothing).
    pub fn len(&self) -> usize {
        match &self.pattern {
            Pattern::Empty => 0,
            Pattern::Cyclic(c) => c.gaps.len(),
        }
    }

    /// True when the processor owns no section elements.
    pub fn is_empty(&self) -> bool {
        matches!(self.pattern, Pattern::Empty)
    }

    /// The `AM` gap table (empty slice for an empty pattern).
    pub fn gaps(&self) -> &[i64] {
        match &self.pattern {
            Pattern::Empty => &[],
            Pattern::Cyclic(c) => &c.gaps,
        }
    }

    /// Global index of the first owned element, if any.
    pub fn start_global(&self) -> Option<i64> {
        match &self.pattern {
            Pattern::Empty => None,
            Pattern::Cyclic(c) => Some(c.start_global),
        }
    }

    /// Local address of the first owned element, if any.
    pub fn start_local(&self) -> Option<i64> {
        match &self.pattern {
            Pattern::Empty => None,
            Pattern::Cyclic(c) => Some(c.start_local),
        }
    }

    /// Iterates `(global_index, local_address)` pairs in access order,
    /// without an upper bound (infinite for non-empty patterns).
    pub fn iter(&self) -> PatternIter<'_> {
        PatternIter {
            pattern: self,
            state: self.initial_state(),
        }
    }

    /// Iterates accesses whose global index is `<= u`.
    pub fn iter_to(&self, u: i64) -> impl Iterator<Item = Access> + '_ {
        self.iter().take_while(move |acc| acc.global <= u)
    }

    /// Collects the local addresses of all accesses with global index
    /// `<= u` (the sequence a node program would traverse).
    pub fn locals_to(&self, u: i64) -> Vec<i64> {
        self.iter_to(u).map(|a| a.local).collect()
    }

    /// Local address of the *last* access `<= u`, computed in closed form
    /// (used to bound node-code loops, like `lastmem` in Figure 8).
    pub fn last_local(&self, u: i64) -> Result<Option<i64>> {
        let lay = Layout::new(&self.problem);
        Ok(last_location(&self.problem, self.m, u)?.map(|g| lay.local_addr(g)))
    }

    /// Number of accesses with global index `<= u`, in closed form.
    pub fn count_to(&self, u: i64) -> Result<i64> {
        count_owned(&self.problem, self.m, u)
    }

    fn initial_state(&self) -> Option<IterState> {
        match &self.pattern {
            Pattern::Empty => None,
            Pattern::Cyclic(c) => Some(IterState {
                global: c.start_global,
                local: c.start_local,
                idx: 0,
            }),
        }
    }

    /// Exhaustively checks the structural invariants every builder must
    /// satisfy; used by tests (including property tests) for all methods.
    ///
    /// Verified properties:
    /// * gap entries are strictly positive (accesses are strictly
    ///   increasing in local memory);
    /// * gaps sum to one local period `k·s/d` and global steps to one
    ///   global period `lcm(s, pk)`;
    /// * every enumerated access over two periods is owned by `m`, lies on
    ///   the section, has the correct local address, and consecutive
    ///   accesses are consecutive owned section elements (nothing skipped).
    pub fn check_invariants(&self) {
        let c = match &self.pattern {
            Pattern::Empty => return,
            Pattern::Cyclic(c) => c,
        };
        let pr = &self.problem;
        let lay = Layout::new(pr);
        assert_eq!(c.gaps.len(), c.global_steps.len());
        assert!(!c.gaps.is_empty());
        assert!(c.gaps.len() as i64 <= pr.k(), "cycle length exceeds k");
        assert!(c.gaps.iter().all(|&g| g > 0), "non-positive gap");
        assert!(
            c.global_steps.iter().all(|&g| g > 0),
            "non-positive global step"
        );
        assert_eq!(
            c.gaps.iter().sum::<i64>(),
            pr.period_local(),
            "gap cycle sum"
        );
        assert_eq!(
            c.global_steps.iter().sum::<i64>(),
            pr.period_global(),
            "global step cycle sum"
        );
        // Walk two periods and cross-check against the layout.
        assert_eq!(lay.owner(c.start_global), self.m);
        assert_eq!(lay.local_addr(c.start_global), c.start_local);
        assert!(c.start_global >= pr.l());
        assert_eq!(
            (c.start_global - pr.l()) % pr.s(),
            0,
            "start not on section"
        );
        let mut prev = c.start_global;
        for acc in self.iter().take(2 * c.gaps.len() + 1).skip(1) {
            assert_eq!(lay.owner(acc.global), self.m, "access not owned");
            assert_eq!((acc.global - pr.l()) % pr.s(), 0, "access not on section");
            assert_eq!(lay.local_addr(acc.global), acc.local, "local address drift");
            // No owned section element lies strictly between prev and this.
            let skipped = ((prev - pr.l()) / pr.s() + 1..(acc.global - pr.l()) / pr.s())
                .map(|j| pr.l() + pr.s() * j)
                .filter(|&g| lay.owner(g) == self.m)
                .count();
            assert_eq!(skipped, 0, "access sequence skipped an owned element");
            prev = acc.global;
        }
    }
}

/// One access: the array element's global index and its local address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Access {
    /// Global array index of the element.
    pub global: i64,
    /// Local memory address on the owning processor.
    pub local: i64,
}

#[derive(Debug, Clone, Copy)]
struct IterState {
    global: i64,
    local: i64,
    idx: usize,
}

/// Iterator over a pattern's accesses in increasing global-index order.
/// It ends at the last access whose global index fits `i64`.
#[derive(Debug, Clone)]
pub struct PatternIter<'a> {
    pattern: &'a AccessPattern,
    state: Option<IterState>,
}

impl Iterator for PatternIter<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let st = self.state.as_mut()?;
        let out = Access {
            global: st.global,
            local: st.local,
        };
        if let Pattern::Cyclic(c) = &self.pattern.pattern {
            // A local address never exceeds its global index, so only the
            // global step can leave `i64`.
            match st.global.checked_add(c.global_steps[st.idx]) {
                Some(global) => {
                    st.global = global;
                    st.local += c.gaps[st.idx];
                    st.idx = (st.idx + 1) % c.gaps.len();
                }
                None => self.state = None,
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure6_pattern() -> AccessPattern {
        // Hand-assembled from the paper's worked example (Figure 6):
        // p=4, k=8, l=4, s=9, m=1, start=13, AM=[3,12,15,12,3,12,3,12].
        let problem = Problem::new(4, 8, 4, 9).unwrap();
        // Global steps recovered from the walk in Section 5:
        // 13→40 (27), 40→76 (36), 76→139 (63), 139→175 (36), 175→202 (27),
        // 202→238 (36), 238→265 (27), 265→301 (36).
        AccessPattern::from_parts(
            problem,
            1,
            Pattern::Cyclic(CyclicPattern {
                start_global: 13,
                start_local: 5, // 13 = course 0, in-row 13, block offset 5
                gaps: vec![3, 12, 15, 12, 3, 12, 3, 12],
                global_steps: vec![27, 36, 63, 36, 27, 36, 27, 36],
            }),
        )
    }

    #[test]
    fn figure6_pattern_is_valid() {
        figure6_pattern().check_invariants();
    }

    #[test]
    fn iteration_matches_figure6_walk() {
        let pat = figure6_pattern();
        let globals: Vec<i64> = pat.iter().take(9).map(|a| a.global).collect();
        assert_eq!(globals, vec![13, 40, 76, 139, 175, 202, 238, 265, 301]);
    }

    #[test]
    fn bounded_iteration() {
        let pat = figure6_pattern();
        let upto: Vec<i64> = pat.iter_to(202).map(|a| a.global).collect();
        assert_eq!(upto, vec![13, 40, 76, 139, 175, 202]);
        assert_eq!(pat.count_to(202).unwrap(), 6);
        // last_local agrees with the final iterated access.
        let last = pat.iter_to(202).last().unwrap();
        assert_eq!(pat.last_local(202).unwrap(), Some(last.local));
        // Below the start: nothing.
        assert_eq!(pat.iter_to(12).count(), 0);
        assert_eq!(pat.last_local(12).unwrap(), None);
    }

    #[test]
    fn empty_pattern_behaves() {
        let problem = Problem::new(2, 1, 0, 2).unwrap();
        let pat = AccessPattern::from_parts(problem, 1, Pattern::Empty);
        assert!(pat.is_empty());
        assert_eq!(pat.len(), 0);
        assert_eq!(pat.iter().count(), 0);
        assert_eq!(pat.gaps(), &[] as &[i64]);
        pat.check_invariants();
    }
}
