//! Multi-process SPMD launcher: the parent side of `bcag spmd --procs p`.
//!
//! [`launch`] forks `p` OS processes, each re-invoking the current
//! executable as a hidden `spmd-node` child that interprets the same
//! script as one node (see [`run_node`]). The parent is a star router:
//! one reader thread per child drains that child's stdout frame-by-frame
//! ([`proc::read_frame`]) and forwards `DATA` frames to the destination
//! child's stdin, so node-to-node messages cross real process
//! boundaries as serialized wire bytes. `PRINT` frames carry the
//! script's output lines (the interpreter funnels them through node 0),
//! `TRACE` frames carry each node's serialized `bcag-trace-full/v1`
//! document for lane merging in the parent, and `DONE` marks orderly
//! completion. When any child's pipe closes before its `DONE`, the
//! router broadcasts a `POISON` frame to every surviving child,
//! releasing nodes blocked in a receive so the whole launch fails fast
//! instead of hanging.
//!
//! Forwarding never blocks a read on a write. Each child's stdin has one
//! writer thread fed by an unbounded queue, and reader threads (and the
//! POISON broadcast) only enqueue. A child sends every block of a
//! statement before it receives any, so a reader that wrote straight
//! into a full stdin pipe would stop draining its own child's stdout
//! while the destination, itself still sending, never read: every node
//! would block in `write`.
//!
//! Per-(src, dst) frame order is preserved: each source's frames are
//! enqueued by a single reader thread in read order, and each
//! destination's queue is written out in order by its one writer, which
//! is exactly the FIFO discipline [`proc::Session::recv_from`]'s
//! per-source demux assumes.
//!
//! The node side is intentionally thin: arrays are fully replicated in
//! every child (each materializes all `p` locals), so the interpreter
//! runs unchanged — `FORALL` reads are local everywhere and `PRINT`
//! computes identical values on every node. Only communication
//! statements touch the pipes, through the replicated run of their fused
//! programs in `bcag_spmd::fuse`.

use std::io::Write as _;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bcag_spmd::transport::proc::{
    self, Frame, KIND_DATA, KIND_DONE, KIND_POISON, KIND_PRINT, KIND_TRACE,
};

use crate::Interp;

/// What a completed multi-process launch produced.
pub struct LaunchOutcome {
    /// The script's output lines, in order (shipped by node 0).
    pub output: Vec<String>,
    /// Each node's serialized `bcag-trace-full/v1` document, sorted by
    /// node index. Empty when the launch was not traced.
    pub node_traces: Vec<(usize, String)>,
}

/// The machine size a script declares via `PROCESSORS NAME(n)` (the
/// product of the grid extents for multidimensional grids). The launcher
/// refuses to run a script whose declared size disagrees with `--procs`:
/// every child interprets the directives itself, so a mismatch would
/// silently run `p` processes of an `n`-node machine.
pub fn script_processors(src: &str) -> Result<usize, String> {
    for line in src.lines() {
        let t = line.trim();
        if !t.to_ascii_uppercase().starts_with("PROCESSORS") {
            continue;
        }
        let (Some(open), Some(close)) = (t.find('('), t.rfind(')')) else {
            return Err(format!("malformed PROCESSORS directive: {t}"));
        };
        let mut product: usize = 1;
        for part in t[open + 1..close].split(',') {
            let n: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("malformed PROCESSORS directive: {t}"))?;
            product *= n;
        }
        return Ok(product);
    }
    Err("script has no PROCESSORS directive".into())
}

/// Shared state of the star router.
struct Router {
    /// Each child's stdin queue; its writer thread writes whole frames
    /// in queue order.
    stdins: Vec<Sender<Frame>>,
    /// Set by the first router thread that sees a child die; gates the
    /// POISON broadcast to once per launch.
    poisoned: AtomicBool,
    output: Mutex<Vec<String>>,
    traces: Mutex<Vec<(usize, String)>>,
}

impl Router {
    /// Broadcasts POISON (as node `src`) to every other child. Send
    /// errors are ignored: a closed queue means that child's stdin is
    /// already dead and its own reader thread handles it.
    fn poison_all(&self, src: usize) {
        if self.poisoned.swap(true, Ordering::SeqCst) {
            return;
        }
        for (dst, stdin) in self.stdins.iter().enumerate() {
            if dst == src {
                continue;
            }
            let frame = Frame {
                kind: KIND_POISON,
                src: src as u32,
                dst: dst as u32,
                body: Vec::new(),
            };
            let _ = stdin.send(frame);
        }
    }
}

/// Spawns the writer thread of one child's stdin: writes the queued
/// frames in order until the queue closes or the pipe breaks. A write
/// failure means the child is already dead; its reader thread
/// broadcasts the poison, and later sends to this queue fail silently.
fn spawn_writer(mut stdin: ChildStdin) -> (Sender<Frame>, JoinHandle<()>) {
    let (tx, rx) = channel::<Frame>();
    let writer = std::thread::spawn(move || {
        for frame in rx {
            if proc::write_frame(&mut stdin, &frame).is_err() {
                return;
            }
        }
    });
    (tx, writer)
}

/// Locks a mutex whether or not another router thread panicked while
/// holding it (each push leaves the collected lines usable).
fn lock_either<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Forks `p` node processes running `exe spmd-node` over `script_path`
/// and routes frames between them until every child completes. `traced`
/// asks each child to record and ship its trace. Fails if any child
/// exits without an orderly `DONE`.
pub fn launch(
    exe: &Path,
    script_path: &str,
    p: usize,
    traced: bool,
) -> Result<LaunchOutcome, String> {
    if p == 0 {
        return Err("--procs must be at least 1".into());
    }
    let mut children: Vec<Child> = Vec::with_capacity(p);
    let mut stdins = Vec::with_capacity(p);
    let mut writers = Vec::with_capacity(p);
    let mut stdouts = Vec::with_capacity(p);
    for me in 0..p {
        let mut cmd = Command::new(exe);
        cmd.arg("spmd-node")
            .arg("--me")
            .arg(me.to_string())
            .arg("--procs")
            .arg(p.to_string())
            .arg("--file")
            .arg(script_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if traced {
            cmd.arg("--traced").arg("1");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning node {me}: {e}"))?;
        let (stdin, writer) = spawn_writer(child.stdin.take().expect("piped stdin"));
        stdins.push(stdin);
        writers.push(writer);
        stdouts.push(child.stdout.take().expect("piped stdout"));
        children.push(child);
    }
    let router = Arc::new(Router {
        stdins,
        poisoned: AtomicBool::new(false),
        output: Mutex::new(Vec::new()),
        traces: Mutex::new(Vec::new()),
    });

    // One reader thread per child: drain its stdout, forward DATA,
    // collect PRINT/TRACE, report whether an orderly DONE arrived.
    let mut threads = Vec::with_capacity(p);
    for (me, mut out) in stdouts.into_iter().enumerate() {
        let router = Arc::clone(&router);
        threads.push(std::thread::spawn(move || -> bool {
            loop {
                let frame = match proc::read_frame(&mut out) {
                    Ok(Some(frame)) => frame,
                    Ok(None) | Err(_) => {
                        // Pipe closed without DONE: the child died.
                        router.poison_all(me);
                        return false;
                    }
                };
                match frame.kind {
                    KIND_DATA => {
                        let dst = frame.dst as usize;
                        if dst >= router.stdins.len() {
                            router.poison_all(me);
                            return false;
                        }
                        // A send failure means dst's stdin is already
                        // dead; its own reader thread broadcasts the
                        // poison.
                        let _ = router.stdins[dst].send(frame);
                    }
                    KIND_PRINT => lock_either(&router.output)
                        .push(String::from_utf8_lossy(&frame.body).into_owned()),
                    KIND_TRACE => lock_either(&router.traces)
                        .push((me, String::from_utf8_lossy(&frame.body).into_owned())),
                    KIND_DONE => return true,
                    _ => {
                        router.poison_all(me);
                        return false;
                    }
                }
            }
        }));
    }

    let mut failed: Vec<usize> = Vec::new();
    for (me, thread) in threads.into_iter().enumerate() {
        let done = thread.join().unwrap_or(false);
        if !done {
            failed.push(me);
        }
    }
    let router = Arc::try_unwrap(router).unwrap_or_else(|_| unreachable!("threads joined"));
    // Every child is done or dead: closing the queues lets each writer
    // flush what is left (to a dead child, it fails fast) and exit.
    drop(router.stdins);
    for writer in writers {
        let _ = writer.join();
    }
    for (me, child) in children.iter_mut().enumerate() {
        let status = child
            .wait()
            .map_err(|e| format!("waiting for node {me}: {e}"))?;
        if !status.success() && !failed.contains(&me) {
            failed.push(me);
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "node process(es) {failed:?} failed (see their stderr above)"
        ));
    }

    let output = router
        .output
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let mut node_traces = router
        .traces
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    node_traces.sort_by_key(|(me, _)| *me);
    Ok(LaunchOutcome {
        output,
        node_traces,
    })
}

/// The body of a `bcag spmd-node` child: installs the process-global
/// proc session over stdin/stdout, interprets the script as node `me`
/// of `p`, ships output lines (node 0 only) and — when `traced` — this
/// node's serialized trace, then signals orderly completion.
///
/// `BCAG_SPMD_PANIC_NODE=<m>` makes node `m` fail right after session
/// setup; the launcher's poison broadcast then releases its peers. This
/// is the failure-propagation test hook.
pub fn run_node(me: usize, p: usize, src: &str, traced: bool) -> Result<(), String> {
    if me >= p {
        return Err(format!("node index {me} out of range for --procs {p}"));
    }
    let session = proc::install(
        me,
        p,
        Box::new(std::io::stdin()),
        Box::new(std::io::stdout()),
    );
    if traced {
        bcag_trace::start();
        bcag_trace::set_lane_label(&format!("node-{me}"));
    }
    if let Ok(v) = std::env::var("BCAG_SPMD_PANIC_NODE") {
        if v.parse() == Ok(me) {
            return Err(format!(
                "node {me}: injected failure (BCAG_SPMD_PANIC_NODE)"
            ));
        }
    }
    let output = Interp::run(src).map_err(|e| e.to_string())?;
    if me == 0 {
        for line in &output {
            session.send_print(line);
        }
    }
    if traced {
        let trace = bcag_trace::stop();
        session.send_trace(&bcag_trace::export::to_json(&trace).to_string());
    }
    session.send_done();
    // Flush is per-frame in write_frame; stdout needs no teardown.
    std::io::stdout()
        .flush()
        .map_err(|e| format!("node {me}: flushing stdout: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_processors_reads_the_directive() {
        assert_eq!(script_processors("PROCESSORS P(4)\nREAL A(8)\n"), Ok(4));
        assert_eq!(script_processors("  processors Grid(2, 3)\n"), Ok(6));
        assert!(script_processors("REAL A(8)\n").is_err());
        assert!(script_processors("PROCESSORS P\n").is_err());
        assert!(script_processors("PROCESSORS P(x)\n").is_err());
    }
}
