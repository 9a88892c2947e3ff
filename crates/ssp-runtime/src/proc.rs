//! The deterministic-process abstraction.
//!
//! A [`Process`] is a resumable state machine over a private address space.
//! The runner repeatedly calls [`Process::resume`]; each call performs at
//! most one *atomic action* of the paper's model and reports it as an
//! [`Effect`]. Determinism — the requirement of Theorem 1 — means the
//! sequence of effects a process produces is a function only of its initial
//! state and the messages delivered to it, never of scheduling.
//!
//! Process state and messages become bytes for snapshots and whenever they
//! cross a process boundary; the writers (`push_*`) and the one bounds-checked
//! [`Reader`] that decodes them live here too.

use crate::chan::ChannelId;
use crate::error::RunError;

/// Index of a process within a process collection (`0..n_procs`).
pub type ProcId = usize;

/// The outcome of resuming a process: the single atomic action it performed
/// or now requires.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect<M> {
    /// The process performed a block of local computation (mutating only its
    /// own address space). `units` is a process-reported cost in abstract
    /// work units (e.g. flops), used by cost models; it does not affect
    /// semantics.
    Compute {
        /// Process-reported cost in abstract work units.
        units: u64,
    },
    /// The process sent `msg` on `chan`. The runner enqueues it; sends never
    /// block on an infinite-slack channel.
    Send {
        /// Channel sent on.
        chan: ChannelId,
        /// The message.
        msg: M,
    },
    /// The process wants to receive from `chan`. The runner will deliver the
    /// message as the `delivery` argument of the *next* `resume` call, which
    /// may be arbitrarily delayed if the channel is empty (a blocking
    /// receive).
    Recv {
        /// Channel to receive from.
        chan: ChannelId,
    },
    /// The process has terminated. `resume` must not be called again.
    Halt,
    /// The process detected an unrecoverable error (typically a protocol
    /// violation: a message of an unexpected kind). The runner aborts the
    /// run and surfaces `error` as the run's result; `resume` must not be
    /// called again. This is the structured alternative to panicking
    /// inside a process body.
    Fault {
        /// The error to surface from the run.
        error: RunError,
    },
}

impl<M> Effect<M> {
    /// True if this effect ends the process.
    pub fn is_halt(&self) -> bool {
        matches!(self, Effect::Halt)
    }
}

/// A sequential, deterministic process with a private address space.
///
/// The contract with the runner:
///
/// * The first call is `resume(None)`.
/// * After the process returns [`Effect::Recv`], the next call is
///   `resume(Some(msg))` with the message popped from the requested channel
///   (in FIFO order). After any other effect, the next call is `resume(None)`.
/// * After [`Effect::Halt`], `resume` is never called again.
///
/// Implementations must be deterministic: no clocks, no randomness that is
/// not fixed by the initial state, no reads of anything outside the private
/// state and the delivered messages.
pub trait Process: Send {
    /// Message type carried on this system's channels.
    type Msg: Send;

    /// Perform the next atomic action. See the trait docs for the
    /// `delivery` protocol.
    fn resume(&mut self, delivery: Option<Self::Msg>) -> Effect<Self::Msg>;

    /// A byte snapshot of the process's observable final state, used to
    /// compare outcomes across interleavings (Theorem 1) and across runners.
    /// Two runs are considered to end in "the same final state" iff every
    /// process's snapshot is byte-identical.
    fn snapshot(&self) -> Vec<u8>;

    /// A control-position fingerprint (e.g. a program counter). Two
    /// mid-execution process states are identical only if both their
    /// [`Process::snapshot`] *and* their `progress` agree — the snapshot
    /// alone may omit control state that is equal at termination but
    /// differs mid-run. Used by state-graph exploration to deduplicate
    /// soundly; the default (constant 0) is safe only for processes whose
    /// snapshot fully determines their continuation.
    fn progress(&self) -> u64 {
        0
    }

    /// Approximate payload size of a message in bytes, used by the
    /// execution-metrics layer to attribute traffic volume per channel.
    /// Purely observational — it never affects semantics. The default of 0
    /// means "unknown"; override it to get meaningful byte counts in
    /// [`crate::trace::RunMetrics`].
    fn msg_size_bytes(msg: &Self::Msg) -> u64 {
        let _ = msg;
        0
    }
}

// ---------------------------------------------------------------------------
// The byte codec: snapshots, and every byte that crosses a process.
// ---------------------------------------------------------------------------

/// Extend a snapshot buffer with an `f64` in a canonical (bit-exact,
/// little-endian) encoding. `-0.0` and `0.0` are distinct, as are NaN
/// payloads: snapshot equality is *bitwise* equality, the strongest
/// notion of "identical results" and the one the paper reports.
pub fn push_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Extend a snapshot buffer with a `u64`.
pub fn push_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Extend a buffer with a `u32` (little-endian): the width of every count,
/// length and id on the wire.
pub fn push_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Extend a buffer with a byte string behind its `u32` length; the inverse
/// of [`Reader::bytes`].
pub fn push_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    push_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Extend a buffer with every element of an `f64` slice and no length (the
/// caller writes the count); the inverse of [`Reader::f64s`].
pub fn push_f64s(buf: &mut Vec<u8>, xs: &[f64]) {
    buf.reserve(8 * xs.len());
    for &x in xs {
        push_f64(buf, x);
    }
}

/// Extend a snapshot buffer with every element of an `f64` slice.
pub fn push_f64_slice(buf: &mut Vec<u8>, xs: &[f64]) {
    push_u64(buf, xs.len() as u64);
    push_f64s(buf, xs);
}

/// The one reader of untrusted bytes: wire frames, migrated process state
/// and sealed manifests are all decoded through it, so the hostility
/// contract is written once. Every read is bounds-checked and fails with a
/// typed [`RunError::Protocol`] that names the codec, the field and how the
/// buffer fell short — never a panic — and every count is checked against
/// the bytes that remain before anything is allocated for it. Values come
/// back exactly: floats are read from their IEEE-754 bit patterns, so a
/// cut or payload survives the trip bitwise (Theorem 1's standard).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    codec: &'static str,
    proc: ProcId,
}

impl<'a> Reader<'a> {
    /// A reader over `buf` whose errors are prefixed with `codec` and
    /// attributed to process 0 (see [`Reader::for_proc`]).
    pub fn new(codec: &'static str, buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0, codec, proc: 0 }
    }

    /// Attribute this reader's errors to `proc` (the rank whose state or
    /// traffic is being decoded).
    pub fn for_proc(self, proc: ProcId) -> Reader<'a> {
        Reader { proc, ..self }
    }

    /// A typed error naming this codec, for checks the caller makes on
    /// what it read.
    pub fn error(&self, detail: impl std::fmt::Display) -> RunError {
        RunError::Protocol { proc: self.proc, detail: format!("{}: {detail}", self.codec) }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], RunError> {
        match self.pos.checked_add(n).filter(|&end| end <= self.buf.len()) {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.error(format_args!(
                "truncated reading {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ))),
        }
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], RunError> {
        Ok(self.take(N, what)?.try_into().expect("take returns exactly N bytes"))
    }

    /// A `u8`.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8, RunError> {
        Ok(self.take(1, what)?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32, RunError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64, RunError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bit pattern.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, RunError> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u32` element count that at least `min_each` bytes per element
    /// must follow: refused before any allocation if the rest of the buffer
    /// cannot hold it.
    pub fn count(&mut self, min_each: usize, what: &str) -> Result<usize, RunError> {
        let n = self.u32(what)? as usize;
        let need = n
            .checked_mul(min_each)
            .ok_or_else(|| self.error(format_args!("{what} count {n} overflows")))?;
        if need > self.remaining() {
            return Err(self.error(format_args!(
                "{what} count {n} exceeds payload: needs {need} bytes, have {}",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A byte string behind its `u32` length ([`push_bytes`]).
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], RunError> {
        let n = self.count(1, what)?;
        self.take(n, what)
    }

    /// UTF-8 text behind its `u32` length ([`push_bytes`] of its bytes).
    pub fn str(&mut self, what: &str) -> Result<&'a str, RunError> {
        let bytes = self.bytes(what)?;
        std::str::from_utf8(bytes).map_err(|e| self.error(format_args!("{what} is not UTF-8: {e}")))
    }

    /// A presence byte: `0` or `1`, anything else is an error. An optional
    /// field is written as its presence byte, then the value if present.
    pub fn flag(&mut self, what: &str) -> Result<bool, RunError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.error(format_args!("{what} flag is {b}, not 0 or 1"))),
        }
    }

    /// `n` floats ([`push_f64s`]), read in one bounds check.
    pub fn f64s(&mut self, n: usize, what: &str) -> Result<Vec<f64>, RunError> {
        Ok(self.take(n.saturating_mul(8), what)?.chunks_exact(8).map(bits_to_f64).collect())
    }

    /// Fill `out` with floats ([`push_f64s`]), read in one bounds check.
    pub fn f64s_into(&mut self, out: &mut [f64], what: &str) -> Result<(), RunError> {
        let bytes = self.take(8 * out.len(), what)?;
        for (x, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *x = bits_to_f64(b);
        }
        Ok(())
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// End of input: `value`, decoded from a layout read in full, if no
    /// trailing bytes follow it.
    pub fn finish<T>(self, value: T) -> Result<T, RunError> {
        match self.remaining() {
            0 => Ok(value),
            n => Err(self.error(format_args!("{n} trailing bytes"))),
        }
    }
}

#[inline]
fn bits_to_f64(b: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(b.try_into().expect("chunks_exact(8) yields 8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_encoding_is_bitwise() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        push_f64(&mut a, 0.0);
        push_f64(&mut b, -0.0);
        assert_ne!(a, b, "snapshots distinguish +0.0 from -0.0");

        let mut c = Vec::new();
        let mut d = Vec::new();
        push_f64(&mut c, 1.5);
        push_f64(&mut d, 1.5);
        assert_eq!(c, d);
    }

    #[test]
    fn slice_encoding_includes_length() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        // [0.0] and [] followed by a raw 0.0 must not collide.
        push_f64_slice(&mut a, &[0.0]);
        push_f64_slice(&mut b, &[]);
        push_f64(&mut b, 0.0);
        assert_ne!(a, b);
    }

    #[test]
    fn halt_is_halt() {
        let e: Effect<()> = Effect::Halt;
        assert!(e.is_halt());
        let e: Effect<()> = Effect::Compute { units: 3 };
        assert!(!e.is_halt());
    }
}
