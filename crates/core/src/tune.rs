//! The L2 model: the host's L2 size and the block size a statement's
//! working set would call for.
//!
//! The paper's run tables make every statement's memory footprint
//! statically known, so whether its transfers fit in cache is a
//! plan-time fact. [`block_elems_for`] derives an L2-sized block for a
//! transfer whose working set exceeds half of L2. The fused compiler
//! (`bcag-spmd::fuse`) once split its epochs into such blocks; its
//! epochs now stage nothing, so no program is blocked, and the block
//! size and L2 size remain only as reported figures (the ledger's
//! roofline model reads the L2 size).
//!
//! The L2 size is probed from sysfs where available, defaults to
//! [`DEFAULT_L2_KB`], and is overridable with `BCAG_L2_KB` (clamped to
//! [[`MIN_L2_KB`], [`MAX_L2_KB`]]) so the block-size model is testable on
//! any host.

use std::sync::atomic::{AtomicU64, Ordering};

/// The plan-time tuning regime. No epoch is blocked any more, so this
/// has a single variant; it survives because benchmark reports still
/// record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneMode {
    /// The block size derived from each statement's working set.
    Auto,
}

impl TuneMode {
    /// Stable label for reports and bench output.
    pub fn name(&self) -> &'static str {
        "auto"
    }
}

/// The process's tuning regime (always [`TuneMode::Auto`]).
pub fn default_tune() -> TuneMode {
    TuneMode::Auto
}

/// Default L2 size assumed when neither the `BCAG_L2_KB` override nor
/// the sysfs probe yields an answer.
pub const DEFAULT_L2_KB: u64 = 512;

/// Smallest accepted `BCAG_L2_KB` value (a 32 KiB L2 exists on real
/// embedded parts; anything below is treated as a typo).
pub const MIN_L2_KB: u64 = 32;

/// Largest accepted `BCAG_L2_KB` value (1 GiB — beyond any cache, the
/// value just disables blocking).
pub const MAX_L2_KB: u64 = 1 << 20;

/// Resolves a `BCAG_L2_KB` value, mirroring the cache's
/// `BCAG_SCHED_CACHE_CAP` pattern: a parsable positive number is clamped
/// to [[`MIN_L2_KB`], [`MAX_L2_KB`]]; unset or unparsable yields `None`
/// (fall through to the probe / default).
pub fn parse_l2_kb(var: Option<&str>) -> Option<u64> {
    let kb: u64 = var?.trim().parse().ok()?;
    if kb == 0 {
        return None;
    }
    Some(kb.clamp(MIN_L2_KB, MAX_L2_KB))
}

/// Best-effort L2 size probe: the unified L2 is cache `index2` in Linux
/// sysfs, with sizes spelled like `512K` or `1M`.
fn probe_l2_kb() -> Option<u64> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64),
        b'M' | b'm' => (&s[..s.len() - 1], 1024u64),
        _ => (s, 1),
    };
    let kb = num.trim().parse::<u64>().ok()?.checked_mul(mult)?;
    (kb > 0).then(|| kb.clamp(MIN_L2_KB, MAX_L2_KB))
}

/// 0 = uninitialized; otherwise the resolved L2 size in bytes.
static L2_BYTES: AtomicU64 = AtomicU64::new(0);

/// The L2 size (bytes) the blocking model budgets against: the
/// `BCAG_L2_KB` override when set, else the sysfs probe, else
/// [`DEFAULT_L2_KB`]. Resolved once and cached.
pub fn l2_bytes() -> u64 {
    let v = L2_BYTES.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let kb = parse_l2_kb(std::env::var("BCAG_L2_KB").ok().as_deref())
        .or_else(probe_l2_kb)
        .unwrap_or(DEFAULT_L2_KB);
    let bytes = kb * 1024;
    L2_BYTES.store(bytes, Ordering::Relaxed);
    bytes
}

/// Overrides the resolved L2 size (bytes, clamped to the `BCAG_L2_KB`
/// range) for the rest of the process — differential tests shrink it so
/// blocking triggers at test-sized transfers. Programs already compiled
/// under the old value are not invalidated; tests use fresh shapes.
pub fn set_l2_bytes(bytes: u64) {
    let clamped = (bytes / 1024).clamp(MIN_L2_KB, MAX_L2_KB) * 1024;
    L2_BYTES.store(clamped, Ordering::Relaxed);
}

/// Block size (elements) for a transfer of `count` elements of
/// `elem_bytes` each against an L2 of `l2_bytes`: `0` (unblocked) while
/// twice the payload fits in L2, else a quarter of L2 per live buffer.
/// Never below 1024 elements, so tiny L2 overrides cannot shrink it to a
/// few elements.
pub fn block_elems_for(count: u64, elem_bytes: usize, l2_bytes: u64) -> usize {
    let eb = elem_bytes.max(1) as u64;
    if count.saturating_mul(eb).saturating_mul(2) <= l2_bytes {
        return 0;
    }
    ((l2_bytes / (4 * eb)).max(1024)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    const L2: u64 = 512 * 1024;

    #[test]
    fn mode_is_auto() {
        assert_eq!(default_tune(), TuneMode::Auto);
        assert_eq!(default_tune().name(), "auto");
    }

    #[test]
    fn parse_l2_kb_resolves_and_clamps_env_values() {
        assert_eq!(parse_l2_kb(None), None);
        assert_eq!(parse_l2_kb(Some("512")), Some(512));
        assert_eq!(parse_l2_kb(Some(" 1024 ")), Some(1024));
        // Clamped at both ends.
        assert_eq!(parse_l2_kb(Some("1")), Some(MIN_L2_KB));
        assert_eq!(parse_l2_kb(Some("999999999999")), Some(MAX_L2_KB));
        // Unparsable or zero falls through to the probe/default.
        assert_eq!(parse_l2_kb(Some("0")), None);
        assert_eq!(parse_l2_kb(Some("banana")), None);
        assert_eq!(parse_l2_kb(Some("-3")), None);
        assert_eq!(parse_l2_kb(Some("")), None);
    }

    #[test]
    fn l2_bytes_is_resolved_and_positive() {
        let v = l2_bytes();
        assert!(v >= MIN_L2_KB * 1024);
        assert!(v <= MAX_L2_KB * 1024);
        assert_eq!(l2_bytes(), v, "cached after first resolution");
    }

    #[test]
    fn block_size_model() {
        // Resident payloads stay unblocked.
        assert_eq!(block_elems_for(1000, 8, L2), 0);
        // 4096 contiguous f64 (32 KiB) fit comfortably.
        assert_eq!(block_elems_for(4096, 8, L2), 0);
        // 2× payload crossing L2 triggers blocking at L2/4 per buffer.
        assert_eq!(block_elems_for(1 << 20, 8, L2), (L2 / 32) as usize);
        // The floor keeps tiny L2 overrides from shredding transfers.
        assert_eq!(block_elems_for(1 << 20, 8, 32 * 1024), 1024);
        // Wider elements get proportionally fewer per block.
        assert_eq!(block_elems_for(1 << 20, 32, L2), (L2 / 128) as usize);
        // The largest accepted L2 disables blocking for any real transfer.
        assert_eq!(block_elems_for(1 << 20, 8, MAX_L2_KB * 1024), 0);
    }
}
