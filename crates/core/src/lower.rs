//! Lowering pass: classify a compiled [`RunPlan`] into a flat list of
//! shape-tagged segments a plan compiler can monomorphize over.
//!
//! [`crate::runs`] compresses a gap table into a periodic description;
//! traversal clients expand it segment by segment and branch on the gap
//! *inside* the hot loop (a `match gap` per segment, per statement, per
//! epoch). This module moves that branch to compile time: [`lower_plan`]
//! unrolls the full clamped traversal once and tags every segment with
//! its [`ShapeClass`], so a downstream compiler (`bcag-spmd::fuse`) can
//! store each segment as plain data and its walkers can run the segment
//! with the class's literal gap constant-folded into the loop.
//!
//! The trade is memory for dispatch: a lowered plan stores every segment
//! of the traversal (the periodic structure is gone), which is fine for
//! plans that live in a bounded cache and are executed many times, and
//! exactly wrong for one-shot traversals — those should stay on
//! [`RunPlan::for_each_segment`].

use crate::runs::RunPlan;

/// The kernel class of one constant-gap segment. Gaps 2–4 get their own
/// classes because the pack/unpack kernels have const-generic
/// specializations at those widths; everything wider shares one
/// runtime-gap kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeClass {
    /// `gap == 1`: the segment is one contiguous slice (`memcpy` grade).
    Memcpy,
    /// `gap == 2`: const-generic strided kernel.
    Stride2,
    /// `gap == 3`: const-generic strided kernel.
    Stride3,
    /// `gap == 4`: const-generic strided kernel.
    Stride4,
    /// `gap >= 5`: generic strided kernel reading the gap at runtime.
    Wide,
}

impl ShapeClass {
    /// Classifies a (strictly positive) gap.
    pub fn of_gap(gap: i64) -> ShapeClass {
        debug_assert!(gap > 0, "gaps must be positive");
        match gap {
            1 => ShapeClass::Memcpy,
            2 => ShapeClass::Stride2,
            3 => ShapeClass::Stride3,
            4 => ShapeClass::Stride4,
            _ => ShapeClass::Wide,
        }
    }

    /// Classifies a gap for elements of `elem_bytes` against the cache
    /// line: once the element pitch (`gap × elem_bytes`) spans a full
    /// 64-byte line, every element sits on its own line and the
    /// traversal is fetch-bound — const-generic unrolling cannot win, so
    /// those segments take the runtime-gap [`ShapeClass::Wide`] kernel
    /// and keep the specialized classes for the gaps where line
    /// utilization is above one element per fetch. All kernels are
    /// semantically identical, so the classification is bit-exact; only
    /// dispatch changes.
    pub fn of_gap_for(gap: i64, elem_bytes: usize) -> ShapeClass {
        let pitch = (gap.max(1) as u128) * (elem_bytes.max(1) as u128);
        if gap > 1 && pitch >= crate::locality::CACHE_LINE_BYTES as u128 {
            ShapeClass::Wide
        } else {
            ShapeClass::of_gap(gap)
        }
    }
}

/// One lowered traversal segment: `len` elements at `addr, addr + gap, …`,
/// pre-classified for kernel selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredSegment {
    /// First local address of the segment.
    pub addr: i64,
    /// Address step inside the segment.
    pub gap: i64,
    /// Number of elements (`>= 1`).
    pub len: i64,
    /// The kernel class implied by `gap`.
    pub class: ShapeClass,
}

/// Flattens a [`RunPlan`] into its full, clamped, classified segment
/// list, in access order. The result reproduces the plan's traversal
/// exactly: concatenating each segment's arithmetic progression yields
/// [`RunPlan::expand`].
pub fn lower_plan(plan: &RunPlan) -> Vec<LoweredSegment> {
    let mut out = Vec::new();
    plan.for_each_segment(|seg| {
        out.push(LoweredSegment {
            addr: seg.addr,
            gap: seg.gap,
            len: seg.len,
            class: ShapeClass::of_gap(seg.gap),
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_classes_cover_the_kernel_table() {
        assert_eq!(ShapeClass::of_gap(1), ShapeClass::Memcpy);
        assert_eq!(ShapeClass::of_gap(2), ShapeClass::Stride2);
        assert_eq!(ShapeClass::of_gap(3), ShapeClass::Stride3);
        assert_eq!(ShapeClass::of_gap(4), ShapeClass::Stride4);
        assert_eq!(ShapeClass::of_gap(5), ShapeClass::Wide);
        assert_eq!(ShapeClass::of_gap(64), ShapeClass::Wide);
    }

    #[test]
    fn line_aware_classes_demote_full_line_pitches() {
        // 8-byte elements: gaps 2–4 stay specialized (pitch < 64B)…
        assert_eq!(ShapeClass::of_gap_for(2, 8), ShapeClass::Stride2);
        assert_eq!(ShapeClass::of_gap_for(4, 8), ShapeClass::Stride4);
        // …and gap 8 was Wide already.
        assert_eq!(ShapeClass::of_gap_for(8, 8), ShapeClass::Wide);
        // 32-byte elements: gap 2 pitches a full line — Wide.
        assert_eq!(ShapeClass::of_gap_for(2, 32), ShapeClass::Wide);
        assert_eq!(ShapeClass::of_gap_for(3, 32), ShapeClass::Wide);
        // Contiguous segments are memcpy regardless of element width.
        assert_eq!(ShapeClass::of_gap_for(1, 64), ShapeClass::Memcpy);
        // 1-byte elements keep every specialized class.
        assert_eq!(ShapeClass::of_gap_for(4, 1), ShapeClass::Stride4);
    }

    #[test]
    fn lowering_preserves_the_address_stream() {
        for (start, last, am) in [
            (Some(0i64), 97i64, vec![1i64, 1, 1, 5]),
            (Some(11), 400, vec![2, 2, 9, 1, 1, 1, 4]),
            (Some(5), 200, vec![3, 12, 15, 12, 3, 12, 3, 12]),
            (Some(0), 63, vec![7]),
            (Some(7), 7, vec![]),
            (None, 100, vec![1, 2]),
        ] {
            let plan = RunPlan::compile(start, last, &am);
            let lowered = lower_plan(&plan);
            let mut stream = Vec::new();
            for seg in &lowered {
                assert_eq!(seg.class, ShapeClass::of_gap(seg.gap));
                stream.extend((0..seg.len).map(|j| seg.addr + j * seg.gap));
            }
            assert_eq!(stream, plan.expand(), "start={start:?} AM={am:?}");
        }
    }

    #[test]
    fn empty_plan_lowers_to_nothing() {
        assert!(lower_plan(&RunPlan::empty()).is_empty());
    }
}
