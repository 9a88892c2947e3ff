//! Worker↔worker transport abstraction for the direct data plane.
//!
//! PR 7's backend routed every cross-group byte through the supervisor
//! (two hops per message). Phase 2 lets workers talk to each other
//! directly once the supervisor has brokered introductions; this module
//! is the socket flavor behind that plane:
//!
//! * **Unix-domain** (`unix:<path>`) — the default on one host; the
//!   listener socket lives in the run directory the supervisor names on
//!   the worker's command line.
//! * **TCP** (`tcp:<host:port>`) — for workers that do not share a
//!   filesystem; selected with `DistConfig::peer_tcp` (loopback bind).
//!
//! Addresses travel as strings inside HELLO/ASSIGN payloads, so the
//! parser here is network-facing: malformed flavors fail typed, never
//! panic.
//!
//! **Half-open-socket discipline**: every peer stream is created with a
//! bounded *write* timeout. When the remote end was SIGKILLed mid-run, a
//! plain `write` on a full socket buffer would block forever and wedge
//! the thread running the sending rank, which makes the write itself
//! inside the send; with the timeout it fails typed, the sender drops the
//! connection (idempotently — see [`PeerStream::close`]) and falls back
//! to supervisor relay. A dialed stream's writes wait [`WRITE_SLICE`] at a
//! time, retried up to the timeout by the worker. The regression test at
//! the bottom of this module holds a writer against a never-reading peer
//! and asserts it errors out instead of hanging.

use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use ssp_runtime::RunError;

/// How long a peer-socket write may block before the sender declares the
/// peer half-open and falls back to the supervisor relay path.
pub const PEER_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long one write on a dialed peer stream waits for room (rounded up
/// to a clock tick), so its writer can hand on a read duty and retry.
pub const WRITE_SLICE: Duration = Duration::from_millis(1);

fn proto_err(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// A worker's direct-plane listening address, as carried in HELLO and
/// brokered to peers via ASSIGN/PEERS frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP endpoint in `host:port` form.
    Tcp(String),
}

impl PeerAddr {
    /// Parse the wire form (`unix:<path>` or `tcp:<host:port>`). Total
    /// over arbitrary strings: unknown flavors and empty operands fail
    /// typed — this reads network bytes.
    pub fn parse(s: &str) -> Result<PeerAddr, RunError> {
        if let Some(p) = s.strip_prefix("unix:") {
            if p.is_empty() {
                return Err(proto_err("peer address has empty unix path".into()));
            }
            return Ok(PeerAddr::Unix(PathBuf::from(p)));
        }
        if let Some(a) = s.strip_prefix("tcp:") {
            if a.is_empty() || !a.contains(':') {
                return Err(proto_err(format!("peer address has malformed tcp endpoint {a:?}")));
            }
            return Ok(PeerAddr::Tcp(a.to_string()));
        }
        Err(proto_err(format!("peer address has unknown flavor: {s:?}")))
    }

    /// Wire form, the inverse of [`PeerAddr::parse`].
    pub fn to_wire(&self) -> String {
        match self {
            PeerAddr::Unix(p) => format!("unix:{}", p.display()),
            PeerAddr::Tcp(a) => format!("tcp:{a}"),
        }
    }

    /// Dial the peer, returning a stream whose writes wait at most
    /// [`WRITE_SLICE`].
    pub fn connect(&self) -> io::Result<PeerStream> {
        let s = match self {
            PeerAddr::Unix(p) => PeerStream::Unix(UnixStream::connect(p)?),
            PeerAddr::Tcp(a) => PeerStream::Tcp(TcpStream::connect(a.as_str())?),
        };
        s.set_write_timeout(Some(WRITE_SLICE))?;
        Ok(s)
    }
}

/// A worker's direct-plane accept socket.
pub enum PeerListener {
    /// A Unix-domain listener (workers on one host).
    Unix(UnixListener),
    /// A loopback TCP listener (the cross-host wire flavor).
    Tcp(TcpListener),
}

impl PeerListener {
    /// Bind a Unix-domain listener at `path`.
    pub fn bind_unix(path: PathBuf) -> io::Result<(PeerListener, PeerAddr)> {
        let l = UnixListener::bind(&path)?;
        Ok((PeerListener::Unix(l), PeerAddr::Unix(path)))
    }

    /// Bind a loopback TCP listener on an ephemeral port.
    pub fn bind_tcp() -> io::Result<(PeerListener, PeerAddr)> {
        let l = TcpListener::bind("127.0.0.1:0")?;
        let addr = l.local_addr()?.to_string();
        Ok((PeerListener::Tcp(l), PeerAddr::Tcp(addr)))
    }

    /// Accept one inbound peer connection (blocking), its write timeout
    /// [`PEER_WRITE_TIMEOUT`].
    pub fn accept(&self) -> io::Result<PeerStream> {
        let s = match self {
            PeerListener::Unix(l) => PeerStream::Unix(l.accept()?.0),
            PeerListener::Tcp(l) => PeerStream::Tcp(l.accept()?.0),
        };
        s.set_write_timeout(Some(PEER_WRITE_TIMEOUT))?;
        Ok(s)
    }
}

/// One direct worker↔worker connection; flavor-agnostic `Read`/`Write`.
pub enum PeerStream {
    /// Over a Unix-domain socket.
    Unix(UnixStream),
    /// Over TCP.
    Tcp(TcpStream),
}

impl PeerStream {
    /// Clone the underlying socket handle (for a dedicated reader
    /// thread alongside the writer).
    pub fn try_clone(&self) -> io::Result<PeerStream> {
        Ok(match self {
            PeerStream::Unix(s) => PeerStream::Unix(s.try_clone()?),
            PeerStream::Tcp(s) => PeerStream::Tcp(s.try_clone()?),
        })
    }

    /// Bound how long writes may block (None restores blocking writes).
    pub fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            PeerStream::Unix(s) => s.set_write_timeout(d),
            PeerStream::Tcp(s) => s.set_write_timeout(d),
        }
    }

    /// Bound how long reads may block (None restores blocking reads).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            PeerStream::Unix(s) => s.set_read_timeout(d),
            PeerStream::Tcp(s) => s.set_read_timeout(d),
        }
    }

    /// Shut the connection down in both directions. Idempotent: a
    /// second close (or closing an already-reset socket) is not an
    /// error — teardown paths may race worker death and must never
    /// propagate a failure from a corpse's socket.
    pub fn close(&self) {
        let _ = match self {
            PeerStream::Unix(s) => s.shutdown(Shutdown::Both),
            PeerStream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for PeerStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            PeerStream::Unix(s) => s.read(buf),
            PeerStream::Tcp(s) => s.read(buf),
        }
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        match self {
            PeerStream::Unix(s) => s.read_vectored(bufs),
            PeerStream::Tcp(s) => s.read_vectored(bufs),
        }
    }
}

impl Write for PeerStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            PeerStream::Unix(s) => s.write(buf),
            PeerStream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            PeerStream::Unix(s) => s.write_vectored(bufs),
            PeerStream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            PeerStream::Unix(s) => s.flush(),
            PeerStream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn addr_wire_forms_round_trip_and_reject_garbage() {
        for s in ["unix:/tmp/x/peer-0.sock", "tcp:127.0.0.1:9", "tcp:[::1]:80"] {
            let a = PeerAddr::parse(s).unwrap();
            assert_eq!(a.to_wire(), s);
        }
        for bad in ["", "unix:", "tcp:", "tcp:nohostport", "udp:127.0.0.1:9", "sock"] {
            assert!(
                matches!(PeerAddr::parse(bad), Err(RunError::Protocol { .. })),
                "{bad:?} should fail typed"
            );
        }
    }

    #[test]
    fn unix_and_tcp_flavors_carry_bytes() {
        let dir = std::env::temp_dir().join(format!("ssp-transport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ul, ua) = PeerListener::bind_unix(dir.join("p.sock")).unwrap();
        let (tl, ta) = PeerListener::bind_tcp().unwrap();
        for (l, a) in [(ul, ua), (tl, ta)] {
            let a2 = PeerAddr::parse(&a.to_wire()).unwrap();
            let h = std::thread::spawn(move || {
                let mut s = a2.connect().unwrap();
                s.write_all(b"ping").unwrap();
                let mut back = [0u8; 4];
                s.read_exact(&mut back).unwrap();
                back
            });
            let mut conn = l.accept().unwrap();
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
            conn.write_all(b"pong").unwrap();
            assert_eq!(&h.join().unwrap(), b"pong");
            conn.close();
            conn.close(); // idempotent
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The half-open-peer regression: a writer pushing frames at a peer
    /// that never reads (the observable behavior of a SIGKILLed worker
    /// whose socket buffer is full) must error out within the write
    /// timeout instead of blocking forever.
    #[test]
    fn write_to_stalled_peer_times_out_instead_of_hanging() {
        let (l, a) = PeerListener::bind_tcp().unwrap();
        let mut s = a.connect().unwrap();
        s.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
        let _held = l.accept().unwrap(); // accepted but never read from
        let start = Instant::now();
        let chunk = vec![0u8; 64 * 1024];
        let mut result = Ok(());
        for _ in 0..4096 {
            if let Err(e) = s.write_all(&chunk) {
                result = Err(e);
                break;
            }
        }
        let e = result.expect_err("write against a stalled peer should fail, not succeed");
        assert!(
            matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "unexpected error kind {:?}",
            e.kind()
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "writer took {:?} — effectively hung",
            start.elapsed()
        );
    }
}
