//! Payload representation: the [`PackValue`] hooks the fused epochs'
//! inner loops are built on, and the run-encoded wire format the
//! serialized transports ship.
//!
//! A run-encoded message is conceptually `(Vec<RunSpan>, Vec<T>)`: run
//! headers saying *where* the next `len` payload values land, plus the
//! packed values themselves. Fused epochs compile the layout into the
//! receiver's plan, so their blocks carry values only: in-memory backends
//! move them as a type-erased boxed envelope; serialized backends
//! ([`TransportKind::Proc`](crate::transport::TransportKind) in-process,
//! and the multi-process `bcag spmd` pipes) move the byte encoding (with
//! zero spans, plus the sender's node index as a trailing tag):
//!
//! ```text
//! [nspans: u32] [nvals: u32] [elem_bytes: u32]      — 12-byte header
//! nspans × ([dst_local: i64] [gap: i64] [len: i64]) — 24 bytes per span
//! nvals  × (elem_bytes payload bytes)               — fixed-width values
//! ```
//!
//! All integers little-endian. A payload type opts into the wire with
//! [`PackValue::WIRE_BYTES`]`= Some(width)`; types without a fixed-width
//! encoding (`String`, `Vec`, `Option`) keep the default `None` and stay
//! on boxed envelopes (and are rejected inside a multi-process session).
//! [`wire_size`] is the *canonical* size of a message — the transport
//! byte counters charge it on every backend, serialized or not, so
//! `transport_bytes_tx`/`_rx` totals are backend-independent.

use bcag_core::error::{BcagError, Result};

/// On-the-wire run header of a run-encoded message: the next `len`
/// payload values land at `dst_local, dst_local + gap, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpan {
    /// First destination local address.
    pub dst_local: i64,
    /// Destination address step.
    pub gap: i64,
    /// Number of payload values belonging to this span.
    pub len: i64,
}

/// Payload types the communication engine can move.
///
/// The hooks cover the engine's inner loops: the run-coalesced gather
/// and scatter (`extend_run`/`write_run`) the fused epochs and
/// [`crate::pack`] are built on. The default bodies
/// clone element by element — correct for any `Clone` payload. The macro
/// below overrides them for the primitive numeric types with straight
/// copies — `extend_from_slice`/`copy_from_slice` for unit-gap runs — so
/// `i64`/`f64` payloads (the common case) never run a `clone()` call per
/// element. (Rust's coherence rules forbid a blanket `impl<T: Copy>` next
/// to the `String`/`Vec` impls, so the fast path is spelled out per
/// primitive.)
///
/// The wire hooks (`WIRE_BYTES`/`wire_write`/`wire_read`) give a type a
/// fixed-width byte encoding for the serialized transports; the numeric
/// primitives use their little-endian byte representation (`isize`/
/// `usize` widths are the host's — the multi-process launcher only ever
/// spans one machine).
///
/// The `'static` bound lets packed messages travel the type-erased pool
/// fabric (`Box<dyn Any + Send>`) and rest in buffer arenas between
/// statements.
pub trait PackValue: Clone + Send + Sync + 'static {
    /// Fixed per-element wire width in bytes, or `None` if the type has
    /// no byte-exact wire format (it then travels only as an in-memory
    /// boxed envelope).
    const WIRE_BYTES: Option<usize> = None;

    /// Appends this value's `WIRE_BYTES` encoding onto `out`. Only called
    /// when [`PackValue::WIRE_BYTES`] is `Some`.
    fn wire_write(&self, _out: &mut Vec<u8>) {
        unreachable!("payload type has no wire format (WIRE_BYTES is None)")
    }

    /// Decodes one value from exactly `WIRE_BYTES` bytes. Only called
    /// when [`PackValue::WIRE_BYTES`] is `Some`.
    fn wire_read(_bytes: &[u8]) -> Self {
        unreachable!("payload type has no wire format (WIRE_BYTES is None)")
    }

    /// Appends the `len` elements `src[addr], src[addr + gap], …` onto
    /// `out` — one traversal segment of a pack.
    fn extend_run(out: &mut Vec<Self>, src: &[Self], addr: usize, gap: usize, len: usize) {
        if gap == 1 {
            out.extend(src[addr..addr + len].iter().cloned());
        } else {
            let span = (len - 1) * gap + 1;
            out.extend(src[addr..addr + span].iter().step_by(gap).cloned());
        }
    }

    /// Writes `vals` into `dst[addr], dst[addr + gap], …` — one traversal
    /// segment of an unpack.
    fn write_run(dst: &mut [Self], addr: usize, gap: usize, vals: &[Self]) {
        if vals.is_empty() {
            return;
        }
        if gap == 1 {
            dst[addr..addr + vals.len()].clone_from_slice(vals);
        } else {
            let span = (vals.len() - 1) * gap + 1;
            for (d, v) in dst[addr..addr + span].iter_mut().step_by(gap).zip(vals) {
                *d = v.clone();
            }
        }
    }
}

/// Shared `Copy` fast paths: the macro'd primitive impls and the `[U; N]`
/// impl all delegate here, so the memcpy bodies exist once.
mod copy_fast {
    pub fn extend_run<T: Copy>(out: &mut Vec<T>, src: &[T], addr: usize, gap: usize, len: usize) {
        if gap == 1 {
            out.extend_from_slice(&src[addr..addr + len]);
            return;
        }
        // Wide-gap gather. Driving the source through `chunks_exact` (one
        // chunk per stride period, keep the head) gives the optimizer a
        // shufflable strided-load shape with an exact length; the plain
        // `step_by` extend does not vectorize. Small gaps are dispatched
        // to compile-time-constant chunk widths so the loop unrolls into
        // shuffles instead of scalar strided loads. The last element has
        // no full trailing chunk, so it is pushed separately.
        let span = (len - 1) * gap + 1;
        let src = &src[addr..addr + span];
        out.reserve(len);
        match gap {
            2 => gather_const::<T, 2>(out, src),
            3 => gather_const::<T, 3>(out, src),
            4 => gather_const::<T, 4>(out, src),
            _ => out.extend(src.chunks_exact(gap).map(|c| c[0])),
        }
        out.push(src[span - 1]);
    }

    fn gather_const<T: Copy, const G: usize>(out: &mut Vec<T>, src: &[T]) {
        out.extend(src.chunks_exact(G).map(|c| c[0]));
    }

    pub fn write_run<T: Copy>(dst: &mut [T], addr: usize, gap: usize, vals: &[T]) {
        if vals.is_empty() {
            return;
        }
        if gap == 1 {
            dst[addr..addr + vals.len()].copy_from_slice(vals);
            return;
        }
        // Scatter mirror of `extend_run`: one chunk per stride period,
        // write the head, leave the gap bytes untouched; small gaps get
        // compile-time-constant chunk widths.
        let span = (vals.len() - 1) * gap + 1;
        let dst = &mut dst[addr..addr + span];
        dst[span - 1] = vals[vals.len() - 1];
        match gap {
            2 => scatter_const::<T, 2>(dst, vals),
            3 => scatter_const::<T, 3>(dst, vals),
            4 => scatter_const::<T, 4>(dst, vals),
            _ => {
                for (c, v) in dst.chunks_exact_mut(gap).zip(vals) {
                    c[0] = *v;
                }
            }
        }
    }

    fn scatter_const<T: Copy, const G: usize>(dst: &mut [T], vals: &[T]) {
        for (c, v) in dst.chunks_exact_mut(G).zip(vals) {
            c[0] = *v;
        }
    }
}

/// Emits the two `copy_fast` delegations inside a `PackValue` impl.
macro_rules! copy_fast_methods {
    () => {
        fn extend_run(out: &mut Vec<Self>, src: &[Self], addr: usize, gap: usize, len: usize) {
            copy_fast::extend_run(out, src, addr, gap, len)
        }

        fn write_run(dst: &mut [Self], addr: usize, gap: usize, vals: &[Self]) {
            copy_fast::write_run(dst, addr, gap, vals)
        }
    };
}

macro_rules! pack_value_by_copy {
    ($($t:ty),* $(,)?) => {$(
        impl PackValue for $t {
            const WIRE_BYTES: Option<usize> = Some(std::mem::size_of::<$t>());

            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn wire_read(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("fixed wire width"))
            }

            copy_fast_methods!();
        }
    )*};
}

pack_value_by_copy!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64);

impl PackValue for bool {
    const WIRE_BYTES: Option<usize> = Some(1);

    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn wire_read(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }

    copy_fast_methods!();
}

impl PackValue for char {
    const WIRE_BYTES: Option<usize> = Some(4);

    fn wire_write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_le_bytes());
    }

    fn wire_read(bytes: &[u8]) -> Self {
        char::from_u32(u32::from_le_bytes(
            bytes.try_into().expect("fixed wire width"),
        ))
        .expect("wire bytes hold a scalar value")
    }

    copy_fast_methods!();
}

impl<U: PackValue + Copy, const N: usize> PackValue for [U; N] {
    const WIRE_BYTES: Option<usize> = match U::WIRE_BYTES {
        Some(w) => Some(w * N),
        None => None,
    };

    fn wire_write(&self, out: &mut Vec<u8>) {
        for u in self {
            u.wire_write(out);
        }
    }

    fn wire_read(bytes: &[u8]) -> Self {
        let w = U::WIRE_BYTES.expect("array wire format requires an element wire format");
        std::array::from_fn(|i| U::wire_read(&bytes[i * w..(i + 1) * w]))
    }

    copy_fast_methods!();
}

impl PackValue for String {}
impl<U: Clone + Send + Sync + 'static> PackValue for Vec<U> {}
impl<U: Clone + Send + Sync + 'static> PackValue for Option<U> {}

/// Bytes in the message header (`nspans`, `nvals`, `elem_bytes`).
const HEADER_BYTES: usize = 12;

/// Bytes per encoded [`RunSpan`] (three little-endian `i64`s).
const SPAN_BYTES: usize = 24;

/// Canonical on-the-wire size of a run-encoded message with `nspans` run
/// headers and `nvals` payload values. Defined for *every* payload type —
/// types without a wire format are charged at `size_of::<T>()` per value —
/// so the `transport_bytes_tx`/`_rx` counters are comparable across
/// backends whether or not the bytes were actually materialized.
pub fn wire_size<T: PackValue>(nspans: usize, nvals: usize) -> usize {
    let elem = T::WIRE_BYTES.unwrap_or(std::mem::size_of::<T>());
    HEADER_BYTES + nspans * SPAN_BYTES + nvals * elem
}

/// Encodes a run-encoded message. The output length is exactly
/// [`wire_size`]`::<T>(spans.len(), vals.len())`.
///
/// # Panics
///
/// If `T` has no wire format ([`PackValue::WIRE_BYTES`] is `None`) —
/// callers gate on that before choosing the serialized path.
pub fn encode<T: PackValue>(spans: &[RunSpan], vals: &[T]) -> Vec<u8> {
    let elem = T::WIRE_BYTES.expect("payload type has no wire format");
    let mut out = Vec::with_capacity(wire_size::<T>(spans.len(), vals.len()));
    out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
    out.extend_from_slice(&(vals.len() as u32).to_le_bytes());
    out.extend_from_slice(&(elem as u32).to_le_bytes());
    for sp in spans {
        out.extend_from_slice(&sp.dst_local.to_le_bytes());
        out.extend_from_slice(&sp.gap.to_le_bytes());
        out.extend_from_slice(&sp.len.to_le_bytes());
    }
    for v in vals {
        v.wire_write(&mut out);
    }
    debug_assert_eq!(out.len(), wire_size::<T>(spans.len(), vals.len()));
    out
}

/// Decodes a message produced by [`encode`], appending onto the given
/// buffers (typically arena-recycled).
///
/// Bytes from a peer process are untrusted input: a truncated header,
/// an element-width mismatch or a length that disagrees with the header
/// counts is a [`BcagError::Protocol`] error, never a panic.
///
/// # Panics
///
/// If `T` has no wire format — callers gate on that before choosing the
/// serialized path.
pub fn decode_into<T: PackValue>(
    bytes: &[u8],
    spans: &mut Vec<RunSpan>,
    vals: &mut Vec<T>,
) -> Result<()> {
    let elem = T::WIRE_BYTES.expect("payload type has no wire format");
    let Some(header) = bytes.get(..HEADER_BYTES) else {
        return Err(BcagError::Protocol("truncated wire header"));
    };
    let word = |at: usize| {
        u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]]) as usize
    };
    let (nspans, nvals, got_elem) = (word(0), word(4), word(8));
    if got_elem != elem {
        return Err(BcagError::Protocol("wire element width mismatch"));
    }
    let base = nspans
        .checked_mul(SPAN_BYTES)
        .and_then(|n| n.checked_add(HEADER_BYTES));
    let total = base.and_then(|b| nvals.checked_mul(elem)?.checked_add(b));
    let (Some(base), Some(total)) = (base, total) else {
        return Err(BcagError::Protocol("wire message length overflows"));
    };
    if bytes.len() != total {
        return Err(BcagError::Protocol("wire message length mismatch"));
    }
    let long = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at..at + 8]);
        i64::from_le_bytes(w)
    };
    spans.reserve(nspans);
    for at in (HEADER_BYTES..base).step_by(SPAN_BYTES) {
        spans.push(RunSpan {
            dst_local: long(at),
            gap: long(at + 8),
            len: long(at + 16),
        });
    }
    vals.reserve(nvals);
    vals.extend(bytes[base..].chunks_exact(elem).map(T::wire_read));
    Ok(())
}

/// [`decode_into`] into fresh vectors.
pub fn decode<T: PackValue>(bytes: &[u8]) -> Result<(Vec<RunSpan>, Vec<T>)> {
    let mut spans = Vec::new();
    let mut vals = Vec::new();
    decode_into(bytes, &mut spans, &mut vals)?;
    Ok((spans, vals))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_primitives_and_arrays() {
        let spans = vec![
            RunSpan {
                dst_local: 7,
                gap: 1,
                len: 3,
            },
            RunSpan {
                dst_local: -2,
                gap: 5,
                len: 1,
            },
        ];
        let ints = vec![1i64, -9, 1 << 40, 42];
        let bytes = encode(&spans, &ints);
        assert_eq!(bytes.len(), wire_size::<i64>(spans.len(), ints.len()));
        assert_eq!(decode::<i64>(&bytes).unwrap(), (spans.clone(), ints));

        let quads = vec![[1.5f64, -2.0, 0.0, 3.25], [f64::MAX, f64::MIN, 0.5, -0.5]];
        let bytes = encode(&spans, &quads);
        assert_eq!(bytes.len(), wire_size::<[f64; 4]>(spans.len(), quads.len()));
        assert_eq!(decode::<[f64; 4]>(&bytes).unwrap(), (spans.clone(), quads));

        let small = vec![true, false, true];
        let chars = vec!['α', 'z', '🦀'];
        assert_eq!(decode::<bool>(&encode(&spans, &small)).unwrap().1, small);
        assert_eq!(decode::<char>(&encode(&spans, &chars)).unwrap().1, chars);
    }

    #[test]
    fn empty_message_is_just_a_header() {
        let bytes = encode::<u8>(&[], &[]);
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode::<u8>(&bytes).unwrap(), (vec![], vec![]));
    }

    #[test]
    fn unencodable_types_have_no_wire_width() {
        assert_eq!(String::WIRE_BYTES, None);
        assert_eq!(Vec::<i64>::WIRE_BYTES, None);
        assert_eq!(Option::<f64>::WIRE_BYTES, None);
        // ... but the canonical size is still defined for the counters.
        assert_eq!(
            wire_size::<String>(2, 10),
            12 + 2 * 24 + 10 * std::mem::size_of::<String>()
        );
    }

    #[test]
    fn malformed_messages_are_protocol_errors() {
        let good = encode(
            &[RunSpan {
                dst_local: 0,
                gap: 1,
                len: 2,
            }],
            &[1i64, 2],
        );
        let err = |bytes: &[u8]| decode::<i64>(bytes).unwrap_err();
        // Truncated payload, truncated header, trailing garbage.
        assert_eq!(
            err(&good[..good.len() - 1]),
            BcagError::Protocol("wire message length mismatch")
        );
        assert_eq!(
            err(&good[..7]),
            BcagError::Protocol("truncated wire header")
        );
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(err(&long), BcagError::Protocol(_)));
        // A sender of a different element width.
        assert_eq!(
            decode::<i32>(&good).unwrap_err(),
            BcagError::Protocol("wire element width mismatch")
        );
        // Header counts whose byte total overflows are rejected up front.
        let mut huge = good;
        huge[..8].copy_from_slice(&[0xff; 8]);
        assert!(matches!(err(&huge), BcagError::Protocol(_)));
    }
}
