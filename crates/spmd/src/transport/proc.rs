//! Multi-process SPMD session: the child side of `bcag spmd --procs p`.
//!
//! The launcher (in `bcag-rt`) forks `p` OS processes, each running the
//! same script as one node, and routes frames between them in a star
//! topology: every child's stdout is read by a parent router thread,
//! which forwards DATA frames to the destination child's stdin. A child
//! process installs a process-global [`Session`] here; the fused
//! statement runs detect it and exchange the serialized run-encoded
//! wire format (`comm::wire`) over it instead of in-memory envelopes —
//! real process isolation, real bytes.
//!
//! Framing (all integers little-endian):
//!
//! ```text
//! [kind: u8] [src: u32] [dst: u32] [len: u32] [body: len bytes]
//! ```
//!
//! `DATA` frames carry node-to-node payloads (wire-encoded fused message
//! blocks); `PRINT` ships an output line to the launcher; `TRACE` ships a
//! node's serialized trace (`bcag-trace-full/v1`) for lane merging;
//! `DONE` marks orderly completion; `POISON` is broadcast by the router
//! when a peer process dies, releasing nodes blocked in
//! [`Session::recv_from`] with an error.
//!
//! There is no cross-process epoch barrier, so a fast node's frames for
//! statement N+1 can arrive while a slow node still drains statement N.
//! Delivery is FIFO per (src, dst) — the router forwards each source's
//! frames in order — so [`Session::recv_from`] demultiplexes *by
//! source*: frames from other sources are parked in per-source queues
//! instead of being consumed out of turn. Receiving "from src" is
//! therefore deterministic even without global ordering.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex, OnceLock};

use bcag_core::error::{BcagError, Result};

use crate::pool::lock_clean;

/// Node-to-node payload, routed parent-side to `dst`'s stdin.
pub const KIND_DATA: u8 = 0;
/// An output line for the launcher to emit (sent by node 0).
pub const KIND_PRINT: u8 = 1;
/// A node's serialized `bcag-trace-full/v1` document.
pub const KIND_TRACE: u8 = 2;
/// Orderly end of a node's run.
pub const KIND_DONE: u8 = 3;
/// Broadcast by the router when a peer process died.
pub const KIND_POISON: u8 = 4;

/// One framed message on a child's stdio pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `KIND_*` constants.
    pub kind: u8,
    /// Originating node.
    pub src: u32,
    /// Destination node (meaningful for `DATA`; 0 otherwise).
    pub dst: u32,
    /// Payload bytes.
    pub body: Vec<u8>,
}

/// Writes one frame and flushes (frames are the unit of progress; a
/// buffered half-frame would deadlock the star).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut header = [0u8; 13];
    header[0] = frame.kind;
    header[1..5].copy_from_slice(&frame.src.to_le_bytes());
    header[5..9].copy_from_slice(&frame.dst.to_le_bytes());
    header[9..13].copy_from_slice(&(frame.body.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.body)?;
    w.flush()
}

/// Body bytes [`read_frame`] reserves before any arrive.
const FRAME_PREALLOC: usize = 1 << 20;

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; 13];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) as usize;
    // The length is the sender's claim: grow the body as bytes actually
    // arrive rather than allocating the claimed size up front.
    let mut body = Vec::with_capacity(len.min(FRAME_PREALLOC));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "EOF inside a frame body",
        ));
    }
    Ok(Some(Frame {
        kind: header[0],
        src: u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")),
        dst: u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")),
        body,
    }))
}

/// A child process's connection to the launcher's star router.
pub struct Session {
    me: usize,
    p: usize,
    io: Mutex<SessionIo>,
}

struct SessionIo {
    writer: Box<dyn Write + Send>,
    reader: Box<dyn Read + Send>,
    /// DATA bodies received ahead of order, parked per source.
    pending: Vec<VecDeque<Vec<u8>>>,
}

static SESSION: OnceLock<Arc<Session>> = OnceLock::new();

/// Installs the process-global session for node `me` of `p`, speaking
/// frames over the given pipe ends (stdin/stdout in a real child).
/// Panics if a session is already installed — a child process is one
/// node for its whole lifetime.
pub fn install(
    me: usize,
    p: usize,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
) -> Arc<Session> {
    let session = Arc::new(Session::over(me, p, reader, writer));
    SESSION
        .set(Arc::clone(&session))
        .unwrap_or_else(|_| panic!("spmd session already installed"));
    session
}

/// The installed session, if this process is an `spmd-node` child.
pub fn active() -> Option<Arc<Session>> {
    SESSION.get().cloned()
}

impl Session {
    /// A session for node `me` of `p` over the given pipe ends, without
    /// installing it process-wide (in-memory pipes in tests).
    pub fn over(
        me: usize,
        p: usize,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
    ) -> Session {
        Session {
            me,
            p,
            io: Mutex::new(SessionIo {
                writer,
                reader,
                pending: (0..p).map(|_| VecDeque::new()).collect(),
            }),
        }
    }

    /// This node's index in `0..p`.
    pub fn me(&self) -> usize {
        self.me
    }

    /// The machine size.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Ships a DATA payload to node `dst`.
    pub fn send_data(&self, dst: usize, body: Vec<u8>) {
        assert_ne!(dst, self.me, "self-transfers are applied locally");
        self.write(Frame {
            kind: KIND_DATA,
            src: self.me as u32,
            dst: dst as u32,
            body,
        });
    }

    /// Blocks for the next DATA payload *from `src`*, parking frames
    /// from other sources in their per-source queues.
    ///
    /// Inbound frames are peer input, so every violation is a typed
    /// [`BcagError::Protocol`] error rather than a panic: a source
    /// outside `0..p` (asked for or announced by a frame), a frame kind
    /// no node should receive, POISON (a peer process died) and a
    /// closed or failing pipe.
    pub fn recv_from(&self, src: usize) -> Result<Vec<u8>> {
        if src >= self.p {
            return Err(BcagError::Protocol(
                "receive from a node outside the session",
            ));
        }
        let mut io = lock_clean(&self.io);
        if let Some(body) = io.pending[src].pop_front() {
            return Ok(body);
        }
        loop {
            let frame = match read_frame(&mut io.reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Err(BcagError::Protocol("launcher closed the pipe")),
                Err(_) => return Err(BcagError::Protocol("pipe read failed mid-frame")),
            };
            match frame.kind {
                KIND_DATA if frame.src as usize >= self.p => {
                    return Err(BcagError::Protocol(
                        "frame from a source node outside the session",
                    ))
                }
                KIND_DATA if frame.src as usize == src => return Ok(frame.body),
                KIND_DATA => io.pending[frame.src as usize].push_back(frame.body),
                KIND_POISON => return Err(BcagError::Protocol("a peer node process failed")),
                _ => return Err(BcagError::Protocol("unexpected frame kind inbound")),
            }
        }
    }

    /// Ships an output line to the launcher (the interpreter funnels all
    /// user-visible output through node 0).
    pub fn send_print(&self, line: &str) {
        self.write(Frame {
            kind: KIND_PRINT,
            src: self.me as u32,
            dst: 0,
            body: line.as_bytes().to_vec(),
        });
    }

    /// Ships this node's serialized trace document to the launcher.
    pub fn send_trace(&self, json: &str) {
        self.write(Frame {
            kind: KIND_TRACE,
            src: self.me as u32,
            dst: 0,
            body: json.as_bytes().to_vec(),
        });
    }

    /// Marks orderly completion.
    pub fn send_done(&self) {
        self.write(Frame {
            kind: KIND_DONE,
            src: self.me as u32,
            dst: 0,
            body: Vec::new(),
        });
    }

    fn write(&self, frame: Frame) {
        let mut io = lock_clean(&self.io);
        write_frame(&mut io.writer, &frame)
            .unwrap_or_else(|e| panic!("spmd node {}: pipe error: {e}", self.me));
    }
}

/// In-memory sessions for tests: node `me` of `p` reading `frames`
/// from its inbound pipe, with its outbound frames collected in a shared
/// buffer.
#[cfg(test)]
pub(crate) fn session_reading(
    me: usize,
    p: usize,
    frames: &[Frame],
) -> (Session, Arc<Mutex<Vec<u8>>>) {
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock_clean(&self.0).write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut inbound = Vec::new();
    for f in frames {
        write_frame(&mut inbound, f).expect("in-memory write");
    }
    let sent = Arc::new(Mutex::new(Vec::new()));
    let session = Session::over(
        me,
        p,
        Box::new(std::io::Cursor::new(inbound)),
        Box::new(Sink(Arc::clone(&sent))),
    );
    (session, sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let frames = [
            Frame {
                kind: KIND_DATA,
                src: 3,
                dst: 1,
                body: vec![1, 2, 3, 4, 5],
            },
            Frame {
                kind: KIND_PRINT,
                src: 0,
                dst: 0,
                body: b"SUM A = 42".to_vec(),
            },
            Frame {
                kind: KIND_DONE,
                src: 2,
                dst: 0,
                body: vec![],
            },
        ];
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame {
                kind: KIND_DATA,
                src: 0,
                dst: 1,
                body: vec![9; 10],
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // A header claiming a 4 GiB body over a 3-byte stream fails
        // without reserving the claimed size.
        let mut lying = vec![KIND_DATA, 0, 0, 0, 0, 1, 0, 0, 0];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        lying.extend_from_slice(&[1, 2, 3]);
        let mut r = &lying[..];
        assert!(read_frame(&mut r).is_err());
    }

    fn session_reading(p: usize, frames: &[Frame]) -> Session {
        super::session_reading(0, p, frames).0
    }

    fn data(src: u32, body: Vec<u8>) -> Frame {
        Frame {
            kind: KIND_DATA,
            src,
            dst: 0,
            body,
        }
    }

    #[test]
    fn recv_from_demuxes_by_source() {
        // The router's inbound stream: frames from src 2 arrive before
        // the frame from src 1 that the node asks for first.
        let session = session_reading(
            3,
            &[data(2, vec![20]), data(2, vec![21]), data(1, vec![10])],
        );
        assert_eq!(session.recv_from(1).unwrap(), vec![10]);
        assert_eq!(session.recv_from(2).unwrap(), vec![20]);
        assert_eq!(session.recv_from(2).unwrap(), vec![21]);
    }

    #[test]
    fn hostile_frames_are_protocol_errors() {
        let protocol = |r: Result<Vec<u8>>| matches!(r, Err(BcagError::Protocol(_)));
        // A frame announcing a source past the machine size.
        let s = session_reading(3, &[data(7, vec![1])]);
        assert!(protocol(s.recv_from(1)));
        // Asking for a source past the machine size.
        let s = session_reading(3, &[data(1, vec![1])]);
        assert!(protocol(s.recv_from(3)));
        // POISON, an unknown kind, and EOF all fail the receive.
        for kind in [KIND_POISON, KIND_PRINT, 99] {
            let frame = Frame {
                kind,
                src: 1,
                dst: 0,
                body: Vec::new(),
            };
            assert!(protocol(session_reading(3, &[frame]).recv_from(1)));
        }
        assert!(protocol(session_reading(3, &[]).recv_from(2)));
        // A frame cut off mid-body.
        let mut cut = Vec::new();
        write_frame(&mut cut, &data(1, vec![5; 10])).unwrap();
        cut.truncate(cut.len() - 4);
        let s = session_reading(3, &[]);
        lock_clean(&s.io).reader = Box::new(std::io::Cursor::new(cut));
        assert!(protocol(s.recv_from(1)));
    }
}
