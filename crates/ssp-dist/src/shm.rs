//! Shared-memory data plane: a file-backed SPSC byte ring per ordered
//! pair of co-located workers.
//!
//! Co-located workers (the common case on this host) should not pay a
//! socket copy per halo payload. Each ordered pair `(from, to)` that
//! exchanges data gets one ring file `shm-<from>-<to>.ring` in the run's
//! temp directory; the sender writes payload bytes into the ring and
//! sends a tiny fixed-size **doorbell** (`DATA_SHM` frame: channel, seq,
//! ring offset, length, checksum) over the already-open direct peer
//! socket. The receiver reads the payload out of the ring, verifies the
//! FNV-1a-64 checksum, and returns a cumulative `SHM_ACK` so the sender
//! can reclaim space.
//!
//! The ring discipline is `spsc.rs`'s protocol transplanted across
//! address spaces: a single producer cursor (`written`, owned by the
//! sender), a single consumer cursor (`acked`, owned by the receiver and
//! carried back on the ack frame), and the invariant
//! `written - acked <= capacity` enforced before every push. Both sides
//! address the same kernel page cache through `pread`/`pwrite` at
//! absolute offsets, so payload bytes cross without a userspace socket
//! copy; the doorbell rides the peer socket, which also keeps shm
//! deliveries ordered with `DATA_DIRECT` frames on the same connection
//! (one FIFO carries both doorbells and fallback payloads).
//!
//! The header and every doorbell field are network-facing: truncation,
//! byte flips, absurd capacities and checksum mismatches all fail typed
//! ([`ssp_runtime::RunError::Protocol`]), never panic — the hostile-input
//! tests below walk those paths.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ssp_runtime::proc::Reader;
use ssp_runtime::{fnv1a_64, RunError};

/// Ring header magic.
pub const SHM_MAGIC: &[u8; 8] = b"SSPSHMR1";
/// Current header version.
pub const SHM_VERSION: u32 = 1;
/// Fixed header length; payload bytes start at this file offset.
pub const SHM_HEADER_LEN: u64 = 64;
/// Default per-pair ring capacity.
pub const SHM_CAPACITY: u64 = 1 << 20;
/// Upper bound a receiver will accept from a header (an allocation /
/// file-size bomb guard — a hostile header cannot make us map gigabytes).
pub const SHM_MAX_CAPACITY: u64 = 1 << 30;

fn proto_err(detail: String) -> RunError {
    RunError::Protocol { proc: 0, detail }
}

/// Parsed ring-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmHeader {
    /// Format version ([`SHM_VERSION`]).
    pub version: u32,
    /// Reserved (must be zero in version 1).
    pub flags: u32,
    /// Ring capacity in bytes (the file is `SHM_HEADER_LEN + capacity`).
    pub capacity: u64,
}

/// Encode the fixed 64-byte header block.
pub fn encode_shm_header(h: &ShmHeader) -> [u8; SHM_HEADER_LEN as usize] {
    let mut out = [0u8; SHM_HEADER_LEN as usize];
    out[..8].copy_from_slice(SHM_MAGIC);
    out[8..12].copy_from_slice(&h.version.to_le_bytes());
    out[12..16].copy_from_slice(&h.flags.to_le_bytes());
    out[16..24].copy_from_slice(&h.capacity.to_le_bytes());
    out
}

/// Decode and validate a ring header. Total over arbitrary bytes: short
/// input, bad magic, unknown version, nonzero reserved flags and
/// out-of-range capacities all fail typed.
pub fn decode_shm_header(buf: &[u8]) -> Result<ShmHeader, RunError> {
    let mut r = Reader::new("shm ring header", buf);
    let magic = r.take(SHM_MAGIC.len(), "magic")?;
    if magic != SHM_MAGIC {
        return Err(r.error(format_args!("bad magic {magic:02x?}")));
    }
    let version = r.u32("version")?;
    if version != SHM_VERSION {
        return Err(r.error(format_args!("unsupported version {version}")));
    }
    let flags = r.u32("flags")?;
    if flags != 0 {
        return Err(r.error(format_args!("reserved flags {flags:#x} set")));
    }
    let capacity = r.u64("capacity")?;
    if capacity == 0 || capacity > SHM_MAX_CAPACITY {
        return Err(r.error(format_args!("capacity {capacity} out of range")));
    }
    r.take(SHM_HEADER_LEN as usize - 24, "reserved header bytes")?;
    Ok(ShmHeader { version, flags, capacity })
}

/// Producer side of one ring file. Single producer by construction: the
/// owning worker keeps it in its peer book and writes only under that
/// book's lock.
pub struct ShmSender {
    file: File,
    cap: u64,
    /// Producer cursor: total payload bytes ever pushed.
    written: u64,
    /// Consumer cursor mirror, advanced by the peer-connection reader
    /// thread as cumulative `SHM_ACK` frames arrive.
    acked: Arc<AtomicU64>,
}

impl ShmSender {
    /// Create (truncating) the ring file and write its header.
    pub fn create(path: &Path, capacity: u64) -> io::Result<ShmSender> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.set_len(SHM_HEADER_LEN + capacity)?;
        let hdr =
            encode_shm_header(&ShmHeader { version: SHM_VERSION, flags: 0, capacity });
        file.write_all_at(&hdr, 0)?;
        Ok(ShmSender { file, cap: capacity, written: 0, acked: Arc::new(AtomicU64::new(0)) })
    }

    /// Handle the ack-reader thread uses to advance the consumer cursor.
    pub fn acked_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.acked)
    }

    /// Bytes currently free for pushing.
    pub fn free(&self) -> u64 {
        self.cap - (self.written - self.acked.load(Ordering::Acquire))
    }

    /// Push one payload into the ring. Returns the payload's absolute
    /// stream offset (what the doorbell carries) or `None` when the ring
    /// lacks space — the caller falls back to `DATA_DIRECT` on the
    /// socket, so a full ring degrades throughput, never correctness.
    pub fn push(&mut self, payload: &[u8]) -> io::Result<Option<u64>> {
        let len = payload.len() as u64;
        if len == 0 || len > self.free() {
            return Ok(if len == 0 { Some(self.written) } else { None });
        }
        let off = self.written;
        let pos = off % self.cap;
        let first = (self.cap - pos).min(len) as usize;
        self.file.write_all_at(&payload[..first], SHM_HEADER_LEN + pos)?;
        if first < payload.len() {
            self.file.write_all_at(&payload[first..], SHM_HEADER_LEN)?;
        }
        self.written = off + len;
        Ok(Some(off))
    }
}

/// Consumer side of one ring file.
pub struct ShmReceiver {
    file: File,
    cap: u64,
    /// Consumer cursor: total payload bytes ever consumed (the
    /// cumulative value carried back on `SHM_ACK`).
    consumed: u64,
}

impl ShmReceiver {
    /// Open a ring created by a peer's [`ShmSender`], validating the
    /// header (network-facing: a hostile or torn file fails typed).
    pub fn open(path: &Path) -> Result<ShmReceiver, RunError> {
        let file = File::open(path)
            .map_err(|e| proto_err(format!("shm ring {}: {e}", path.display())))?;
        let mut hdr = [0u8; SHM_HEADER_LEN as usize];
        file.read_exact_at(&mut hdr, 0)
            .map_err(|e| proto_err(format!("shm ring {}: header read: {e}", path.display())))?;
        let h = decode_shm_header(&hdr)?;
        let want = SHM_HEADER_LEN + h.capacity;
        let got = file
            .metadata()
            .map_err(|e| proto_err(format!("shm ring {}: {e}", path.display())))?
            .len();
        if got < want {
            return Err(proto_err(format!(
                "shm ring {} is {got} bytes, header promises {want}",
                path.display()
            )));
        }
        Ok(ShmReceiver { file, cap: h.capacity, consumed: 0 })
    }

    /// Read the payload a doorbell points at and verify its checksum.
    /// Advances the consumer cursor on success; the caller sends the
    /// returned cumulative ack value back to the producer.
    pub fn read(&mut self, off: u64, len: u32, checksum: u64) -> Result<(Vec<u8>, u64), RunError> {
        let len64 = len as u64;
        if len64 > self.cap {
            return Err(proto_err(format!(
                "shm doorbell length {len} exceeds ring capacity {}",
                self.cap
            )));
        }
        if off != self.consumed {
            return Err(proto_err(format!(
                "shm doorbell offset {off} does not match consumer cursor {}",
                self.consumed
            )));
        }
        let mut buf = vec![0u8; len as usize];
        let pos = off % self.cap;
        let first = (self.cap - pos).min(len64) as usize;
        let fail = |e: io::Error| proto_err(format!("shm ring read: {e}"));
        self.file.read_exact_at(&mut buf[..first], SHM_HEADER_LEN + pos).map_err(fail)?;
        if first < buf.len() {
            self.file.read_exact_at(&mut buf[first..], SHM_HEADER_LEN).map_err(fail)?;
        }
        let got = fnv1a_64(&buf);
        if got != checksum {
            return Err(proto_err(format!(
                "shm payload checksum mismatch at offset {off}: doorbell says \
                 {checksum:#018x}, ring bytes hash to {got:#018x}"
            )));
        }
        self.consumed = off + len64;
        Ok((buf, self.consumed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = ShmHeader { version: SHM_VERSION, flags: 0, capacity: SHM_CAPACITY };
        let bytes = encode_shm_header(&h);
        assert_eq!(decode_shm_header(&bytes).unwrap(), h);
    }

    #[test]
    fn hostile_headers_fail_typed_never_panic() {
        let good = encode_shm_header(&ShmHeader {
            version: SHM_VERSION,
            flags: 0,
            capacity: SHM_CAPACITY,
        });
        // Truncation at every prefix length.
        for cut in 0..good.len() {
            assert!(matches!(decode_shm_header(&good[..cut]), Err(RunError::Protocol { .. })));
        }
        // A byte flip in any meaningful field is rejected (magic,
        // version, flags; capacity flips must land out of range or
        // change the value, so flip its high byte).
        for i in [0, 3, 7, 8, 11, 12, 15, 23] {
            let mut bad = good;
            bad[i] ^= 0x80;
            assert!(
                matches!(decode_shm_header(&bad), Err(RunError::Protocol { .. })),
                "flip at byte {i} was accepted"
            );
        }
        // Zero and absurd capacities.
        for cap in [0u64, SHM_MAX_CAPACITY + 1, u64::MAX] {
            let mut bad = good;
            bad[16..24].copy_from_slice(&cap.to_le_bytes());
            assert!(matches!(decode_shm_header(&bad), Err(RunError::Protocol { .. })));
        }
    }

    #[test]
    fn ring_wraps_acks_and_refuses_overrun() {
        let dir = std::env::temp_dir().join(format!("ssp-shm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shm-0-1.ring");
        let mut tx = ShmSender::create(&path, 64).unwrap();
        let acked = tx.acked_handle();
        let mut rx = ShmReceiver::open(&path).unwrap();

        let mut cursor = 0u64;
        // Enough pushes to wrap the 64-byte ring several times, with
        // payload sizes that straddle the boundary.
        for round in 0..20u8 {
            let payload: Vec<u8> = (0..23).map(|i| i ^ round).collect();
            let off = tx.push(&payload).unwrap().expect("ring has room");
            assert_eq!(off, cursor);
            let (back, ack) = rx.read(off, payload.len() as u32, fnv1a_64(&payload)).unwrap();
            assert_eq!(back, payload, "round {round} corrupted across the wrap");
            cursor += payload.len() as u64;
            assert_eq!(ack, cursor);
            acked.store(ack, Ordering::Release);
        }

        // Fill to capacity, then verify push refuses rather than
        // overwriting unconsumed bytes.
        let big = vec![7u8; 64];
        let off = tx.push(&big).unwrap().expect("exactly-capacity push fits");
        assert_eq!(tx.free(), 0);
        assert_eq!(tx.push(&[1]).unwrap(), None, "overrun must be refused");
        let (_, ack) = rx.read(off, 64, fnv1a_64(&big)).unwrap();
        acked.store(ack, Ordering::Release);
        assert_eq!(tx.free(), 64);

        // Hostile doorbells: oversized length, stale offset, bad checksum.
        assert!(matches!(rx.read(ack, 65, 0), Err(RunError::Protocol { .. })));
        assert!(matches!(rx.read(ack + 3, 1, 0), Err(RunError::Protocol { .. })));
        let off = tx.push(&[9, 9]).unwrap().unwrap();
        assert!(matches!(rx.read(off, 2, 0xbad), Err(RunError::Protocol { .. })));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
