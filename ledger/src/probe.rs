//! Probes that do not depend on the workload: the host roofline and drift
//! anchor, and the pool and transport layers in isolation.
//!
//! Each probe runs one sample; the traced run interleaves samples with
//! its ops so host drift hits probes and ops alike.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bcag_spmd::pool::{self, Pool};
use bcag_spmd::transport;

/// Bytes of each buffer of the L2-resident memcpy (source and
/// destination together stay well inside a 2 MiB L2).
const L2_COPY_BYTES: usize = 256 << 10;
/// Bytes of each buffer of the large memcpy: source plus destination
/// span 6 MiB, the `warm_large` working set of one op.
const BIG_COPY_BYTES: usize = 3 << 20;
/// Iterations of the scalar calibration loop.
const CALIB_ITERS: u64 = 1 << 20;
/// Round trips per ping-pong sample.
const PINGPONG_TRIPS: u32 = 64;
/// `f64`s per bulk-transfer sample (1 MiB).
const BULK_ELEMS: usize = 1 << 17;

/// Buffers of the host probes, allocated once.
pub struct Host {
    l2_src: Vec<u8>,
    l2_dst: Vec<u8>,
    big_src: Vec<u8>,
    big_dst: Vec<u8>,
    gather_dst: Vec<f64>,
}

/// One round of host samples, in GB/s (bytes read plus bytes written per
/// nanosecond) and ns per calibration iteration.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    /// L2-resident memcpy.
    pub memcpy_l2: f64,
    /// `warm_large`-sized memcpy.
    pub memcpy_big: f64,
    /// Gather of one `f64` per 64-byte line.
    pub stride64: f64,
    /// Scalar calibration loop, ns per iteration.
    pub calib_ns: f64,
}

impl Default for Host {
    fn default() -> Self {
        Host {
            l2_src: vec![1u8; L2_COPY_BYTES],
            l2_dst: vec![0u8; L2_COPY_BYTES],
            big_src: vec![1u8; BIG_COPY_BYTES],
            big_dst: vec![0u8; BIG_COPY_BYTES],
            gather_dst: vec![0.0; BIG_COPY_BYTES / 64],
        }
    }
}

impl Host {
    /// One sample of every host probe.
    pub fn sample(&mut self) -> HostSample {
        let reps = 64;
        let t = Instant::now();
        for _ in 0..reps {
            self.l2_dst.copy_from_slice(black_box(&self.l2_src));
            black_box(&mut self.l2_dst);
        }
        let memcpy_l2 = (2 * L2_COPY_BYTES * reps) as f64 / t.elapsed().as_nanos() as f64;

        let reps = 4;
        let t = Instant::now();
        for _ in 0..reps {
            self.big_dst.copy_from_slice(black_box(&self.big_src));
            black_box(&mut self.big_dst);
        }
        let memcpy_big = (2 * BIG_COPY_BYTES * reps) as f64 / t.elapsed().as_nanos() as f64;

        // One f64 read per 64-byte line of the big source, packed densely.
        let src: &[u8] = black_box(&self.big_src);
        let t = Instant::now();
        for (j, out) in self.gather_dst.iter_mut().enumerate() {
            let at = j * 64;
            *out = f64::from_le_bytes(src[at..at + 8].try_into().expect("8 bytes"));
        }
        black_box(&mut self.gather_dst);
        let stride64 = (16 * self.gather_dst.len()) as f64 / t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..CALIB_ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        black_box(x);
        let calib_ns = t.elapsed().as_nanos() as f64 / CALIB_ITERS as f64;
        HostSample {
            memcpy_l2,
            memcpy_big,
            stride64,
            calib_ns,
        }
    }
}

/// The resident pool the workloads dispatch to, on the active transport.
pub fn resident_pool(p: i64) -> Arc<Pool> {
    pool::global_with(p, transport::active_transport())
}

/// Seconds of one `Pool::dispatch` with an empty body.
pub fn dispatch_s(pool: &Pool) -> f64 {
    let t = Instant::now();
    pool.dispatch(&|_, _| {});
    t.elapsed().as_secs_f64()
}

/// Seconds per round trip of a one-word `NodeCtx::send`/`recv` ping-pong
/// between nodes 0 and 1 inside one dispatch, timed on node 0.
pub fn pingpong_s(pool: &Pool) -> f64 {
    let ns = AtomicU64::new(0);
    pool.dispatch(&|m, ctx| match m {
        0 => {
            let t = Instant::now();
            for _ in 0..PINGPONG_TRIPS {
                ctx.send(1, Box::new(0u64));
                black_box(ctx.recv());
            }
            ns.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        1 => {
            for _ in 0..PINGPONG_TRIPS {
                let env = ctx.recv();
                ctx.send(0, env);
            }
        }
        _ => {}
    });
    ns.load(Ordering::Relaxed) as f64 * 1e-9 / PINGPONG_TRIPS as f64
}

/// Sender and receiver buffers of the bulk-transfer probe.
pub struct Bulk {
    src: Vec<f64>,
    dst: Mutex<Vec<f64>>,
}

impl Default for Bulk {
    fn default() -> Self {
        Bulk {
            src: (0..BULK_ELEMS).map(|i| i as f64).collect(),
            dst: Mutex::new(vec![0.0; BULK_ELEMS]),
        }
    }
}

impl Bulk {
    /// Payload GB/s of one 1 MiB transfer from node 0 to node 1 the way a
    /// fused epoch moves it: pack into an arena buffer, send, unpack on
    /// the receiver. The receiver returns the buffer as its
    /// acknowledgement, so the arenas stay at one buffer. Timed on node 0,
    /// send to acknowledgement.
    pub fn sample(&self, pool: &Pool) -> f64 {
        let ns = AtomicU64::new(0);
        pool.dispatch(&|m, ctx| match m {
            0 => {
                let t = Instant::now();
                let mut buf: Vec<f64> = ctx.take_buf();
                buf.extend_from_slice(&self.src);
                ctx.send(1, Box::new(buf));
                let back = ctx.recv();
                ns.store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                ctx.put_buf(
                    *back
                        .downcast::<Vec<f64>>()
                        .expect("bulk payload is Vec<f64>"),
                );
            }
            1 => {
                let env = ctx.recv();
                let buf = *env
                    .downcast::<Vec<f64>>()
                    .expect("bulk payload is Vec<f64>");
                self.dst
                    .lock()
                    .expect("bulk destination lock is never poisoned")
                    .copy_from_slice(&buf);
                ctx.send(0, Box::new(buf));
            }
            _ => {}
        });
        (BULK_ELEMS * 8) as f64 / ns.load(Ordering::Relaxed).max(1) as f64
    }
}
