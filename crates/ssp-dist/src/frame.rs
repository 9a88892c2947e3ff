//! Length-prefixed frame protocol for the supervisor⇄worker sockets.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [length: u32 le][type: u8][payload: length-1 bytes]
//! ```
//!
//! `length` counts the type byte plus the payload, so an empty-payload
//! frame has `length == 1`. Frames are the *only* thing on the socket;
//! there is no out-of-band data, so a reader is always either at a frame
//! boundary (where a clean close is a normal [`FrameError::Eof`]) or
//! mid-frame (where a close is a *torn frame*, reported as
//! [`FrameError::Io`] — the signature of a killed peer).
//!
//! `length` is capped at [`MAX_FRAME_LEN`]; an oversized header is a
//! protocol violation ([`FrameError::Malformed`]), not an allocation —
//! the cap is checked before any buffer is reserved, so a hostile or
//! corrupt peer cannot force an allocation bomb.
//!
//! A payload may be written in pieces ([`write_frame_parts`]): a rank's
//! final snapshot goes out from its own buffer beside a 12-byte trailer,
//! and the header and pieces leave in one vectored write. Writes lock
//! nothing here — callers that share a socket between threads (the
//! worker's scheduler threads, which send DATA, and its completion
//! threads) serialize whole frames under their own mutex so frames never
//! interleave.

use std::io::{self, IoSlice, IoSliceMut, Read, Write};

use ssp_runtime::proc::{push_u32, push_u64, Reader};
use ssp_runtime::RunError;

/// Upper bound on the `length` field (type byte + payload): 64 MiB.
/// Generous for checkpointed snapshots, far below anything a corrupt
/// header could use to exhaust memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// The kind of a frame, carried as the byte after the length prefix. Every
/// payload is binary (see [`crate::proto`] for the control payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Worker → supervisor, first frame: identifies the worker index.
    Hello = 0,
    /// Supervisor → worker: host a group of ranks — its workload spec,
    /// ranks, data plane, peer table, checkpoint cadence and, on a restart,
    /// the checkpoint it resumes from ([`crate::proto::Assign`]).
    Assign = 1,
    /// Either direction: one message on one cross-group channel.
    /// Payload: `[chan: u32 le][seq: u64 le][encoded message bytes]`
    /// where `seq` is the message's absolute per-channel ordinal. The
    /// supervisor forwards it to the reader's worker: every message on the
    /// star plane, and on the direct planes one whose direct delivery
    /// failed (peer unreachable).
    Data = 2,
    /// Worker → supervisor: a group finished; its metrics and, when
    /// recording, its flight log ([`crate::proto::GroupDone`]). Follows one
    /// [`FrameType::Snapshot`] per rank of the group.
    GroupDone = 3,
    /// Worker → supervisor: fatal worker-side error (UTF-8 detail).
    Error = 4,
    /// Supervisor → worker: exit cleanly. Empty payload.
    Shutdown = 5,
    /// Worker → worker, first frame on a direct peer connection:
    /// identifies the dialer. Payload:
    /// `[from worker: u32 le][generation: u64 le]`.
    PeerHello = 6,
    /// Supervisor → worker: refreshed rank placement + peer address
    /// table after a membership change, with the channels to replay from
    /// the send logs after a migration ([`crate::proto::Membership`]).
    Peers = 7,
    /// Worker → supervisor, in response to SHUTDOWN: final data-plane
    /// and send-log counters ([`crate::proto::Bye`]).
    Bye = 8,
    /// Worker → worker: one message on one cross-group channel,
    /// bypassing the supervisor. Same payload layout as [`FrameType::Data`].
    DataDirect = 9,
    /// Worker → worker: a shared-memory ring doorbell. Payload:
    /// `[chan: u32 le][seq: u64 le][ring offset: u64 le][len: u32 le]
    /// [fnv1a-64 checksum: u64 le]`.
    DataShm = 10,
    /// Worker → worker: cumulative shm-ring consumption ack. Payload:
    /// `[consumed bytes: u64 le]`.
    ShmAck = 11,
    /// Supervisor → worker: the readers' consumed frontiers, from their
    /// groups' latest checkpoints
    /// ([`crate::proto::encode_channel_counts`]); sent only with
    /// checkpointing on.
    Cut = 12,
    /// Supervisor → worker: stop after the given number of cross-group
    /// sends ([`crate::proto::encode_chaos`]). Worker → supervisor: the
    /// stop was reached, with the sends made per channel
    /// ([`crate::proto::encode_channel_counts`]); the supervisor kills the
    /// worker.
    Chaos = 13,
    /// Worker → supervisor: a group's new checkpoint
    /// ([`crate::proto::encode_manifest`]); sent only with checkpointing
    /// on.
    Manifest = 14,
    /// Worker → supervisor: one finished rank's final snapshot, ahead of
    /// its group's GROUP_DONE. Payload: `[snapshot bytes][rank: u32 le]
    /// [group: u64 le]` ([`crate::proto::snapshot_trailer`]); the trailer
    /// is last, so the reader keeps the snapshot in the frame's own buffer.
    Snapshot = 15,
}

impl FrameType {
    /// Every frame type, indexed by its wire byte.
    const ALL: [FrameType; 16] = [
        FrameType::Hello,
        FrameType::Assign,
        FrameType::Data,
        FrameType::GroupDone,
        FrameType::Error,
        FrameType::Shutdown,
        FrameType::PeerHello,
        FrameType::Peers,
        FrameType::Bye,
        FrameType::DataDirect,
        FrameType::DataShm,
        FrameType::ShmAck,
        FrameType::Cut,
        FrameType::Chaos,
        FrameType::Manifest,
        FrameType::Snapshot,
    ];
}

/// One decoded frame: its type and raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What kind of frame this is.
    pub ty: FrameType,
    /// The bytes after the type byte.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(ty: FrameType, payload: Vec<u8>) -> Frame {
        Frame { ty, payload }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream closed cleanly at a frame boundary.
    Eof,
    /// The stream failed or closed mid-frame (a torn frame — the
    /// signature of a killed peer).
    Io(io::Error),
    /// The bytes violate the frame grammar (oversized length, unknown
    /// frame type).
    Malformed(String),
}

impl FrameError {
    /// Convert into the runtime's typed error space, attributing the
    /// failure to `who` (a rank id or 0 for the supervisor).
    pub fn into_run_error(self, who: usize) -> RunError {
        let detail = match self {
            FrameError::Eof => "unexpected end of stream".to_string(),
            FrameError::Io(e) => format!("torn frame: {e}"),
            FrameError::Malformed(m) => m,
        };
        RunError::Protocol { proc: who, detail }
    }
}

/// Write one frame; [`write_frame_parts`] on the frame's own payload.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    write_frame_parts(w, frame.ty, &[&frame.payload])
}

/// The most pieces [`write_frame_parts`] takes for one payload: a
/// snapshot and its trailer.
pub const MAX_PARTS: usize = 2;

/// Write one frame whose payload is `parts` laid end to end, from borrowed
/// buffers: the 5-byte header and the pieces go out in one vectored write,
/// continued after a short write, with no staging copy. The caller
/// serializes concurrent writers, so a frame hits the socket whole. A
/// payload too long for [`MAX_FRAME_LEN`], or more than [`MAX_PARTS`]
/// pieces, is `InvalidInput`, and nothing is written.
pub fn write_frame_parts(w: &mut impl Write, ty: FrameType, parts: &[&[u8]]) -> io::Result<()> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let len = payload_len
        .checked_add(1)
        .filter(|&l| l <= MAX_FRAME_LEN as usize && parts.len() <= MAX_PARTS)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {payload_len} bytes in {} pieces exceeds MAX_FRAME_LEN \
                     or MAX_PARTS",
                    parts.len()
                ),
            )
        })?;
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4] = ty as u8;
    let mut slices = [IoSlice::new(&[]); MAX_PARTS + 1];
    slices[0] = IoSlice::new(&header);
    for (slice, part) in slices[1..].iter_mut().zip(parts) {
        *slice = IoSlice::new(part);
    }
    let mut bufs = &mut slices[..=parts.len()];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Fill `bufs` exactly, in as few vectored reads as the stream allows.
/// Distinguishes a clean close before the first byte (`Ok(false)`) from a
/// short read after it (`Err`).
fn read_full(r: &mut impl Read, mut bufs: &mut [IoSliceMut<'_>]) -> io::Result<bool> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut filled = 0;
    while !bufs.is_empty() {
        match r.read_vectored(bufs) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream closed after {filled} of {total} bytes"),
                ))
            }
            Ok(n) => {
                filled += n;
                IoSliceMut::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame. A clean close at a frame boundary is [`FrameError::Eof`];
/// a close anywhere inside a frame is a torn frame ([`FrameError::Io`]).
///
/// The 4-byte length is read and checked on its own, so a bad one is
/// [`FrameError::Malformed`] without waiting for a byte more. The type
/// byte and the payload then arrive in one vectored read, straight into
/// the payload's own buffer.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; 4];
    match read_full(r, &mut [IoSliceMut::new(&mut header)]) {
        Ok(true) => {}
        Ok(false) => return Err(FrameError::Eof),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(FrameError::Malformed(format!(
            "frame length {len} outside 1..={MAX_FRAME_LEN}"
        )));
    }
    let mut ty = [0u8; 1];
    let mut payload = vec![0u8; len as usize - 1];
    match read_full(r, &mut [IoSliceMut::new(&mut ty), IoSliceMut::new(&mut payload)]) {
        Ok(true) => {}
        Ok(false) => {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream closed between frame header and body",
            )))
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let ty = FrameType::ALL
        .get(ty[0] as usize)
        .copied()
        .ok_or_else(|| FrameError::Malformed(format!("unknown frame type {}", ty[0])))?;
    Ok(Frame { ty, payload })
}

/// Bytes before the message in a DATA-family payload: channel and seq.
pub(crate) const DATA_HEADER_LEN: usize = 12;

/// Encode a DATA / DATA_DIRECT payload:
/// `[chan: u32 le][seq: u64 le][message bytes]`.
pub fn encode_data(chan: usize, seq: u64, msg: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(DATA_HEADER_LEN + msg.len());
    push_u32(&mut out, chan as u32);
    push_u64(&mut out, seq);
    out.extend_from_slice(msg);
    out
}

/// Decode a DATA-family payload into `(chan, seq, message bytes)`.
pub fn decode_data(payload: &[u8]) -> Result<(usize, u64, &[u8]), RunError> {
    let mut r = Reader::new("DATA", payload);
    Ok((r.u32("channel")? as usize, r.u64("seq")?, r.rest()))
}

/// Encode a DATA_SHM doorbell payload:
/// `[chan: u32 le][seq: u64 le][ring offset: u64 le][len: u32 le]
/// [checksum: u64 le]`.
pub fn encode_shm_doorbell(chan: usize, seq: u64, off: u64, len: u32, checksum: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    push_u32(&mut out, chan as u32);
    push_u64(&mut out, seq);
    push_u64(&mut out, off);
    push_u32(&mut out, len);
    push_u64(&mut out, checksum);
    out
}

/// Decode a DATA_SHM doorbell into `(chan, seq, offset, len, checksum)`.
/// Total over arbitrary bytes; exact length is enforced (a doorbell is
/// fixed-size, so trailing garbage means corruption).
pub fn decode_shm_doorbell(payload: &[u8]) -> Result<(usize, u64, u64, u32, u64), RunError> {
    let mut r = Reader::new("DATA_SHM doorbell", payload);
    let bell = (
        r.u32("channel")? as usize,
        r.u64("seq")?,
        r.u64("ring offset")?,
        r.u32("length")?,
        r.u64("checksum")?,
    );
    r.finish(bell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::new(FrameType::Hello, vec![3]),
            Frame::new(FrameType::Data, encode_data(42, 9, b"payload")),
            Frame::new(FrameType::DataDirect, encode_data(1, 0, b"p2p")),
            Frame::new(FrameType::DataShm, encode_shm_doorbell(3, 11, 4096, 24, 0xfeed)),
            Frame::new(FrameType::ShmAck, 4120u64.to_le_bytes().to_vec()),
            Frame::new(FrameType::PeerHello, vec![0; 12]),
            Frame::new(FrameType::Shutdown, vec![]),
            Frame::new(FrameType::GroupDone, vec![0xff; 1000]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = Cursor::new(wire);
        for f in &frames {
            assert_eq!(&read_frame(&mut r).unwrap(), f);
        }
        assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
    }

    #[test]
    fn torn_frames_are_io_errors_not_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::new(FrameType::Data, encode_data(1, 0, b"abcdef"))).unwrap();
        // Every possible truncation point inside the frame is torn, not a
        // clean EOF — this is how a SIGKILLed peer looks to the reader.
        for cut in 1..wire.len() {
            let r = read_frame(&mut Cursor::new(&wire[..cut]));
            assert!(matches!(r, Err(FrameError::Io(_))), "cut at {cut}: {r:?}");
        }
        // Zero bytes is the clean close.
        assert!(matches!(read_frame(&mut Cursor::new(&[][..])), Err(FrameError::Eof)));
    }

    #[test]
    fn hostile_headers_are_malformed_without_allocation() {
        // Length zero.
        let r = read_frame(&mut Cursor::new(0u32.to_le_bytes().to_vec()));
        assert!(matches!(r, Err(FrameError::Malformed(_))), "{r:?}");
        // Length far over the cap: rejected before any buffer is reserved.
        let r = read_frame(&mut Cursor::new(u32::MAX.to_le_bytes().to_vec()));
        assert!(matches!(r, Err(FrameError::Malformed(_))), "{r:?}");
        // Unknown frame type: the first byte past the last one.
        let mut wire = 1u32.to_le_bytes().to_vec();
        wire.push(FrameType::ALL.len() as u8);
        let r = read_frame(&mut Cursor::new(wire));
        assert!(matches!(r, Err(FrameError::Malformed(_))), "{r:?}");
        for (byte, ty) in FrameType::ALL.iter().enumerate() {
            assert_eq!(*ty as usize, byte, "ALL must be in wire-byte order");
        }
        assert_eq!(FrameType::ALL.last(), Some(&FrameType::Snapshot));
        assert_eq!(FrameType::Snapshot as u8, 15);
        assert_eq!(FrameType::Data as u8, 2);
    }

    #[test]
    fn oversized_payload_is_invalid_input_and_writes_nothing() {
        // One byte over the cap once the type byte is counted. `vec![0; n]`
        // is a zeroed allocation, never touched here, so it costs no memory.
        let huge = vec![0u8; MAX_FRAME_LEN as usize];
        let mut wire = Vec::new();
        let e = write_frame_parts(&mut wire, FrameType::Data, &[&huge]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
        // So is the same payload split in pieces, and one piece too many.
        let (a, b) = huge.split_at(7);
        let e = write_frame_parts(&mut wire, FrameType::Snapshot, &[a, b]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
        let e =
            write_frame_parts(&mut wire, FrameType::Data, &[&b"x"[..]; MAX_PARTS + 1]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
        assert!(wire.is_empty(), "a rejected frame must not leave a partial header");
        // The largest legal payload still passes the check.
        write_frame_parts(&mut io::sink(), FrameType::Data, &[&huge[1..]]).unwrap();
        write_frame_parts(&mut io::sink(), FrameType::Data, &[&a[1..], b]).unwrap();
    }

    /// Passes at most `k` bytes per `read`/`write` call, vectored or not,
    /// the way a socket under load may.
    struct Trickle<T> {
        inner: T,
        k: usize,
    }

    impl<W: Write> Write for Trickle<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(&buf[..buf.len().min(self.k)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut chunk = Vec::new();
            for b in bufs {
                let take = b.len().min(self.k - chunk.len());
                chunk.extend_from_slice(&b[..take]);
            }
            self.inner.write(&chunk)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.k);
            self.inner.read(&mut buf[..n])
        }
        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let mut total = 0;
            for b in bufs.iter_mut() {
                let want = b.len().min(self.k - total);
                let n = self.inner.read(&mut b[..want])?;
                total += n;
                if n < want {
                    break;
                }
            }
            Ok(total)
        }
    }

    #[test]
    fn every_frame_type_round_trips_under_partial_io() {
        let payloads: [&[u8]; 4] = [b"", b"x", b"0123456789ab", &[0xa5; 300]];
        for k in [1, 2, 3, 4, 5, 7, 64] {
            for ty in FrameType::ALL {
                for payload in payloads {
                    let frame = Frame::new(ty, payload.to_vec());
                    let mut whole = Vec::new();
                    write_frame(&mut whole, &frame).unwrap();
                    let mut trickled = Trickle { inner: Vec::new(), k };
                    write_frame_parts(&mut trickled, ty, &[payload]).unwrap();
                    assert_eq!(trickled.inner, whole, "k={k} {ty:?}: short writes changed bytes");

                    let mut r = Trickle { inner: Cursor::new(&whole), k };
                    assert_eq!(read_frame(&mut r).unwrap(), frame, "k={k} {ty:?}");
                    assert!(matches!(read_frame(&mut r), Err(FrameError::Eof)));
                    for cut in 0..whole.len() {
                        let r = read_frame(&mut Trickle { inner: Cursor::new(&whole[..cut]), k });
                        match r {
                            Err(FrameError::Eof) if cut == 0 => {}
                            Err(FrameError::Io(_)) if cut > 0 => {}
                            other => panic!("k={k} {ty:?} cut at {cut}: {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_frame_written_in_pieces_is_the_one_slice_frame_under_short_writes() {
        let payload: Vec<u8> = (0..40).collect();
        for k in 1..=7 {
            for ty in [FrameType::Snapshot, FrameType::Data] {
                let mut whole = Vec::new();
                write_frame(&mut whole, &Frame::new(ty, payload.clone())).unwrap();
                // Every split into two pieces, empty pieces included, so
                // short writes end inside, at and across the piece boundary.
                for i in 0..=payload.len() {
                    let (a, b) = payload.split_at(i);
                    let mut pieces = Trickle { inner: Vec::new(), k };
                    write_frame_parts(&mut pieces, ty, &[a, b]).unwrap();
                    assert_eq!(pieces.inner, whole, "k={k} {ty:?} split at {i}");
                }
                let mut pieces = Trickle { inner: Vec::new(), k };
                write_frame_parts(&mut pieces, ty, &[&payload[..9], &payload[9..]]).unwrap();
                let read = read_frame(&mut Cursor::new(pieces.inner)).unwrap();
                assert_eq!(read, Frame::new(ty, payload.clone()), "k={k} {ty:?}");
            }
        }
    }

    #[test]
    fn bad_length_is_malformed_without_waiting_for_more_bytes() {
        // The writer stays open and sends nothing past the length, so a
        // reader that wanted a fifth byte before judging would block; the
        // timeout turns such a hang into an `Io` error the match rejects.
        for len in [0, MAX_FRAME_LEN + 1, u32::MAX] {
            let (mut tx, mut rx) = std::os::unix::net::UnixStream::pair().unwrap();
            rx.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
            tx.write_all(&len.to_le_bytes()).unwrap();
            let r = read_frame(&mut rx);
            assert!(matches!(r, Err(FrameError::Malformed(_))), "length {len}: {r:?}");
            drop(tx);
        }
    }

    /// Pinned bytes: a codec change may not move this layout (the frame
    /// sizes that traffic counts measure) without failing here.
    #[test]
    fn data_payload_bytes_are_pinned() {
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        assert_eq!(hex(encode_data(42, 9, b"payload")), "2a00000009000000000000007061796c6f6164");
        assert_eq!(hex(encode_data(70_000, u64::MAX, b"")), "70110100ffffffffffffffff");
    }

    #[test]
    fn data_payload_codec_round_trips_and_rejects_short_input() {
        let p = encode_data(7, 41, b"xyz");
        assert_eq!(decode_data(&p).unwrap(), (7, 41, &b"xyz"[..]));
        assert_eq!(decode_data(&encode_data(0, 0, b"")).unwrap(), (0, 0, &b""[..]));
        for cut in 0..12 {
            assert!(decode_data(&p[..cut]).is_err());
        }
    }

    #[test]
    fn shm_doorbell_codec_round_trips_and_rejects_wrong_sizes() {
        let p = encode_shm_doorbell(5, 99, 1 << 33, 4096, 0xdead_beef_cafe);
        assert_eq!(decode_shm_doorbell(&p).unwrap(), (5, 99, 1 << 33, 4096, 0xdead_beef_cafe));
        for cut in 0..32 {
            assert!(decode_shm_doorbell(&p[..cut]).is_err(), "cut {cut}");
        }
        let mut long = p.clone();
        long.push(0);
        assert!(decode_shm_doorbell(&long).is_err(), "trailing garbage accepted");
    }
}
