//! The simulated SPMD machine.
//!
//! The paper's experiments ran the same node program on all 32 processors
//! of an iPSC/860 and reported the maximum time over processors. Here each
//! simulated processor is a thread executing the node program against
//! its own local memory; [`Machine::run`] is the SPMD launch, and
//! [`Machine::run_timed`] reproduces the "maximum over all processors"
//! measurement discipline.
//!
//! Node programs run on the resident worker pool ([`crate::pool`]):
//! the launching thread runs node 0, the other `p − 1` node threads
//! boot once per process, and every subsequent launch is a dispatch,
//! not a spawn.

use std::sync::Mutex;
use std::time::Duration;

use crate::pool::{self, into_clean, lock_clean};
use crate::transport::TransportKind;

/// A simulated distributed-memory machine with `p` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    p: i64,
    kind: TransportKind,
}

impl Machine {
    /// Creates a machine with `p >= 1` nodes exchanging boxed envelopes
    /// ([`TransportKind::Shm`]).
    pub fn new(p: i64) -> Self {
        Machine::with_transport(p, TransportKind::Shm)
    }

    /// Creates a machine whose node contexts exchange envelopes in an
    /// explicit payload form ([`TransportKind::Shm`] or
    /// [`TransportKind::Proc`]).
    pub fn with_transport(p: i64, kind: TransportKind) -> Self {
        assert!(p >= 1, "machine needs at least one node");
        Machine { p, kind }
    }

    /// Creates a machine and eagerly boots its worker pool, so the first
    /// statement doesn't pay the one-time thread spawn.
    pub fn with_pool(p: i64) -> Self {
        let machine = Machine::new(p);
        pool::warm(p);
        machine
    }

    /// Number of nodes.
    pub fn p(&self) -> i64 {
        self.p
    }

    /// This machine's transport.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// The one launch loop behind [`Machine::run`], [`Machine::run_timed`]
    /// and [`Machine::run_collect`]: runs `node(m)` on every node through
    /// [`pool::launch_with`], times each node, and credits `barrier_wait_ns`
    /// after the join.
    fn launch_timed<F>(&self, node: F) -> Vec<Duration>
    where
        F: Fn(usize) + Sync,
    {
        let times: Vec<Mutex<Duration>> = (0..self.p).map(|_| Mutex::new(Duration::ZERO)).collect();
        pool::launch_with(self.p, self.kind, |m, _ctx| {
            let _sp = bcag_trace::span("spmd.node");
            let t0 = std::time::Instant::now();
            node(m);
            *lock_clean(&times[m]) = t0.elapsed();
        });
        let times: Vec<Duration> = times.into_iter().map(into_clean).collect();
        record_barrier_waits(&times);
        times
    }

    /// Runs `node(m, &mut locals[m])` on every node concurrently, each
    /// with exclusive access to that node's local memory.
    ///
    /// When tracing is enabled, each node's lane is labeled `node-<m>` and
    /// carries one `spmd.node` span per launch, plus a `barrier_wait_ns`
    /// counter: the time the node idled at the implicit join barrier while
    /// the slowest node finished.
    pub fn run<T, F>(&self, locals: &mut [Vec<T>], node: F)
    where
        T: Send,
        F: Fn(usize, &mut Vec<T>) + Sync,
    {
        let _ = self.run_timed(locals, node);
    }

    /// Like [`Machine::run`], but each node times its own execution;
    /// returns the per-node durations (callers typically take the max, as
    /// the paper does).
    pub fn run_timed<T, F>(&self, locals: &mut [Vec<T>], node: F) -> Vec<Duration>
    where
        T: Send,
        F: Fn(usize, &mut Vec<T>) + Sync,
    {
        assert_eq!(locals.len() as i64, self.p, "one local memory per node");
        let slots: Vec<Mutex<&mut Vec<T>>> = locals.iter_mut().map(Mutex::new).collect();
        self.launch_timed(|m| {
            let mut slot = lock_clean(&slots[m]);
            node(m, &mut **slot)
        })
    }

    /// Runs a node program that needs no local memory (e.g. pure table
    /// construction); returns each node's result.
    pub fn run_collect<R, F>(&self, node: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..self.p).map(|_| Mutex::new(None)).collect();
        self.launch_timed(|m| {
            *lock_clean(&slots[m]) = Some(node(m));
        });
        slots
            .into_iter()
            .map(|slot| into_clean(slot).expect("node completed"))
            .collect()
    }
}

/// Credits each node lane with the time it idled at the join barrier:
/// `max(times) - times[m]`. Only the launcher knows the maximum, so this
/// runs after the join, on the launching thread.
fn record_barrier_waits(times: &[Duration]) {
    if !bcag_trace::enabled() {
        return;
    }
    let Some(max) = times.iter().max().copied() else {
        return;
    };
    for (m, &t) in times.iter().enumerate() {
        let label = format!("node-{m}");
        let wait = (max - t).as_nanos() as u64;
        bcag_trace::count_on_lane(&label, "barrier_wait_ns", wait);
        bcag_trace::record_on_lane(&label, "barrier_wait_ns", wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_gives_each_node_its_memory() {
        let machine = Machine::new(4);
        let mut locals: Vec<Vec<i64>> = (0..4).map(|m| vec![m as i64; 8]).collect();
        machine.run(&mut locals, |m, local| {
            for x in local.iter_mut() {
                *x += 100 * m as i64;
            }
        });
        for (m, local) in locals.iter().enumerate() {
            assert!(local.iter().all(|&x| x == m as i64 + 100 * m as i64));
        }
    }

    #[test]
    fn run_collect_gathers_results() {
        let machine = Machine::new(8);
        let results = machine.run_collect(|m| m * m);
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn run_timed_returns_per_node_durations() {
        let machine = Machine::new(3);
        let mut locals: Vec<Vec<u8>> = vec![vec![0; 4]; 3];
        let times = machine.run_timed(&mut locals, |_, local| {
            local.iter_mut().for_each(|x| *x = 1);
        });
        assert_eq!(times.len(), 3);
    }

    #[test]
    #[should_panic(expected = "one local memory per node")]
    fn mismatched_locals_panics() {
        let machine = Machine::new(4);
        let mut locals: Vec<Vec<u8>> = vec![vec![]; 3];
        machine.run(&mut locals, |_, _| {});
    }

    #[test]
    fn every_transport_gives_each_node_its_memory() {
        for machine in [
            Machine::with_pool(5),
            Machine::with_transport(5, TransportKind::Proc),
        ] {
            let mut locals: Vec<Vec<i64>> = (0..5).map(|m| vec![m as i64; 6]).collect();
            machine.run(&mut locals, |m, local| {
                for (i, x) in local.iter_mut().enumerate() {
                    *x = (m * 10 + i) as i64;
                }
            });
            for (m, local) in locals.iter().enumerate() {
                let want: Vec<i64> = (0..6).map(|i| (m * 10 + i) as i64).collect();
                assert_eq!(local, &want, "{}", machine.transport().name());
            }
        }
    }
}
