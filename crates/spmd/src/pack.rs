//! Section packing — message vectorization.
//!
//! Message-passing runtimes do not send strided elements one by one; they
//! *pack* a processor's share of a section into a contiguous buffer, send
//! it as one message, and *unpack* on the other side. The pack loop is the
//! same gap-table traversal as the compute loop (the access sequence tells
//! each node exactly which local addresses participate, in section-rank
//! order), so packing is another direct client of the paper's algorithm —
//! and, through the [`bcag_core::runs`] contiguity analysis, it collapses
//! to `memcpy`-grade slice copies wherever the gap table is constant:
//! unit-gap runs become `extend_from_slice`/`copy_from_slice`, constant
//! wide-gap runs become tight strided loops.

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::section::RegularSection;

use crate::cache;
use crate::comm::PackValue;
use crate::darray::DistArray;

/// Packs processor `m`'s share of `arr(section)` into a contiguous buffer,
/// in increasing global-index order. Returns an empty buffer when the
/// processor owns nothing.
pub fn pack<T: PackValue>(
    arr: &DistArray<T>,
    section: &RegularSection,
    m: i64,
    method: Method,
) -> Result<Vec<T>> {
    let mut out = Vec::new();
    pack_with_buf(arr, section, m, method, &mut out)?;
    Ok(out)
}

/// Like [`pack`], but fills a caller-provided buffer (cleared first), so
/// steady-state loops can reuse one allocation grown to its high-water
/// mark instead of allocating per call. Returns the packed count.
pub fn pack_with_buf<T: PackValue>(
    arr: &DistArray<T>,
    section: &RegularSection,
    m: i64,
    method: Method,
    out: &mut Vec<T>,
) -> Result<usize> {
    let _sp = bcag_trace::span("spmd.pack");
    let _t = bcag_trace::timed_span("pack_ns");
    out.clear();
    let plans = cache::plans(arr.p(), arr.k(), section, method)?;
    let plan = &plans[m as usize];
    if plan.start.is_none() {
        bcag_trace::count("elements_packed", 0);
        return Ok(0);
    }
    let local = arr.local(m);
    // The owned count falls out of the run plan in closed form: size the
    // buffer once, no reallocation during the walk.
    out.reserve(plan.runs.count() as usize);
    let mut seg_count = 0u64;
    let mut seg_elems = 0u64;
    plan.runs.for_each_segment(|seg| {
        T::extend_run(
            out,
            local,
            seg.addr as usize,
            seg.gap as usize,
            seg.len as usize,
        );
        if seg.len >= 2 {
            seg_count += 1;
            seg_elems += seg.len as u64;
        }
    });
    bcag_core::runs::count_coalesced(seg_count, seg_elems);
    bcag_trace::count("elements_packed", out.len() as u64);
    bcag_trace::count(
        "bytes_packed",
        (out.len() * std::mem::size_of::<T>()) as u64,
    );
    Ok(out.len())
}

/// Unpacks a buffer produced by [`pack`] back into processor `m`'s share of
/// `arr(section)` (inverse traversal order). The buffer length must match
/// the processor's owned count.
pub fn unpack<T: PackValue>(
    arr: &mut DistArray<T>,
    section: &RegularSection,
    m: i64,
    method: Method,
    buffer: &[T],
) -> Result<()> {
    let _sp = bcag_trace::span("spmd.unpack");
    let _t = bcag_trace::timed_span("unpack_ns");
    let plans = cache::plans(arr.p(), arr.k(), section, method)?;
    let plan = &plans[m as usize];
    if plan.start.is_none() {
        return if buffer.is_empty() {
            bcag_trace::count("elements_unpacked", 0);
            Ok(())
        } else {
            Err(BcagError::Precondition(
                "buffer for a processor that owns nothing",
            ))
        };
    }
    // The owned count is closed-form; validate the buffer up front so the
    // write loop below never has to bounds-check mid-run.
    let owned = plan.runs.count() as usize;
    if buffer.len() < owned {
        return Err(BcagError::Precondition("buffer too short for owned count"));
    }
    if buffer.len() > owned {
        return Err(BcagError::Precondition("buffer longer than owned count"));
    }
    let local = arr.local_mut(m);
    let mut cursor = 0usize;
    let mut seg_count = 0u64;
    let mut seg_elems = 0u64;
    plan.runs.for_each_segment(|seg| {
        let len = seg.len as usize;
        T::write_run(
            local,
            seg.addr as usize,
            seg.gap as usize,
            &buffer[cursor..cursor + len],
        );
        cursor += len;
        if seg.len >= 2 {
            seg_count += 1;
            seg_elems += seg.len as u64;
        }
    });
    bcag_core::runs::count_coalesced(seg_count, seg_elems);
    bcag_trace::count("elements_unpacked", owned as u64);
    bcag_trace::count("bytes_unpacked", (owned * std::mem::size_of::<T>()) as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let n = 300i64;
        let data: Vec<i64> = (0..n).map(|i| i * 3 + 1).collect();
        let arr = DistArray::from_global(4, 8, &data).unwrap();
        let sec = RegularSection::new(4, 292, 9).unwrap();
        let mut rebuilt = DistArray::new(4, 8, n, 0i64).unwrap();
        let mut total = 0usize;
        for m in 0..4 {
            let buf = pack(&arr, &sec, m, Method::Lattice).unwrap();
            total += buf.len();
            unpack(&mut rebuilt, &sec, m, Method::Lattice, &buf).unwrap();
        }
        assert_eq!(total as i64, sec.count());
        let g = rebuilt.to_global();
        for i in 0..n {
            let expect = if sec.contains(i) { data[i as usize] } else { 0 };
            assert_eq!(g[i as usize], expect, "i={i}");
        }
    }

    #[test]
    fn pack_order_is_global_order() {
        let data: Vec<i64> = (0..320).collect();
        let arr = DistArray::from_global(4, 8, &data).unwrap();
        let sec = RegularSection::new(4, 301, 9).unwrap();
        let buf = pack(&arr, &sec, 1, Method::Lattice).unwrap();
        // Processor 1's owned elements in increasing order (Figure 6 walk).
        assert_eq!(buf, vec![13, 40, 76, 139, 175, 202, 238, 265, 301]);
    }

    #[test]
    fn buffer_length_validation() {
        let mut arr = DistArray::new(2, 4, 40, 0i64).unwrap();
        let sec = RegularSection::new(0, 39, 3).unwrap();
        let buf = pack(&arr, &sec, 0, Method::Lattice).unwrap();
        assert!(unpack(&mut arr, &sec, 0, Method::Lattice, &buf[..buf.len() - 1]).is_err());
        let mut too_long = buf.clone();
        too_long.push(0);
        assert!(unpack(&mut arr, &sec, 0, Method::Lattice, &too_long).is_err());
    }

    #[test]
    fn empty_processor_pack() {
        let arr = DistArray::new(2, 1, 40, 5i64).unwrap();
        let sec = RegularSection::new(0, 39, 2).unwrap(); // proc 1 owns none
        assert!(pack(&arr, &sec, 1, Method::Lattice).unwrap().is_empty());
        let mut arr2 = arr.clone();
        assert!(unpack(&mut arr2, &sec, 1, Method::Lattice, &[]).is_ok());
        assert!(unpack(&mut arr2, &sec, 1, Method::Lattice, &[1]).is_err());
    }
}
