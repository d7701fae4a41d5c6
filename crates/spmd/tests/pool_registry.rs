//! Pool registry boot arbitration, alone in its own process.
//!
//! The pool registry is process-wide and admission control caps it at
//! `max(nproc, 2)` pools by default, so any other test booting pools in
//! the same process can evict the idle pool this test races on between
//! two of its lookups. Each integration-test binary is a separate
//! process, so this binary holds only this test.

use std::sync::Arc;

use bcag_spmd::pool::{global_with, Pool};
use bcag_spmd::TransportKind;

#[test]
fn concurrent_lookups_boot_one_pool() {
    // The shard write lock is the boot arbiter: 8 racing drivers
    // must share a single pool (worker threads spawn exactly once).
    let gate = std::sync::Barrier::new(8);
    let pools: Vec<Arc<Pool>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    gate.wait();
                    global_with(9, TransportKind::Shm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for pool in &pools[1..] {
        assert!(Arc::ptr_eq(&pools[0], pool));
    }
}
