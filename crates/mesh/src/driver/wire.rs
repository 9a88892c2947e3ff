//! Byte codec for [`MeshMsg`] — the payload format of the distributed
//! backend's DATA frames.
//!
//! The distributed supervisor routes messages between worker processes as
//! opaque bytes; this module is where a mesh message becomes those bytes
//! and back. Two properties matter:
//!
//! * **Bitwise fidelity.** Floats cross the wire as their IEEE-754 bit
//!   patterns (`f64::to_bits`, little-endian), so a value survives the
//!   round trip exactly — including negative zero and NaN payloads. This
//!   is what lets the distributed run's final snapshots be *bitwise*
//!   identical to the in-process drivers' (the paper's §4.5 standard).
//! * **Hostility tolerance.** [`decode_mesh_msg`] is network-facing: every
//!   malformed input — short buffer, unknown tag, truncated payload,
//!   trailing garbage — yields a typed [`RunError::Protocol`], never a
//!   panic. Allocation is bounded by the input length (element counts are
//!   validated against the remaining bytes *before* any allocation). Both
//!   come from `ssp_runtime::proc::Reader`, the workspace's one reader of
//!   untrusted bytes.
//!
//! Layout: `[tag: u8][count: u32 le][elements…]` where tag 0=Halo, 1=Vec,
//! 2=Contribs, 3=Block. Float variants carry `count` × 8-byte bit
//! patterns; `Contribs` carries `count` × 20-byte records
//! `(bin: u32 le, order: u64 le, value: f64 bits le)` — the same 20-byte
//! element size [`MeshMsg::size_bytes`] already accounts, so traffic
//! metrics and wire bytes agree up to the fixed 5-byte header.

use ssp_runtime::proc::{push_f64, push_f64s, push_u32, push_u64, Reader};
use ssp_runtime::RunError;

use crate::plan::Contribution;

use super::msg::MeshMsg;

/// Wire tag of each [`MeshMsg`] variant.
const TAG_HALO: u8 = 0;
const TAG_VEC: u8 = 1;
const TAG_CONTRIBS: u8 = 2;
const TAG_BLOCK: u8 = 3;

/// Append contributions as 20-byte records `(bin: u32, order: u64, value)`;
/// shared with the process-state codec in `msg.rs`.
pub(super) fn push_contribs(out: &mut Vec<u8>, cs: &[Contribution]) {
    for c in cs {
        push_u32(out, c.bin);
        push_u64(out, c.order);
        push_f64(out, c.value);
    }
}

/// Read `n` contribution records written by [`push_contribs`].
pub(super) fn read_contribs(r: &mut Reader<'_>, n: usize) -> Result<Vec<Contribution>, RunError> {
    (0..n)
        .map(|_| {
            let bin = r.u32("contrib bin")?;
            let order = r.u64("contrib order")?;
            Ok(Contribution { bin, order, value: r.f64("contrib value")? })
        })
        .collect()
}

/// Encode a mesh message for a DATA frame. Infallible; the inverse of
/// [`decode_mesh_msg`].
pub fn encode_mesh_msg(msg: &MeshMsg) -> Vec<u8> {
    let (tag, count) = match msg {
        MeshMsg::Halo(v) => (TAG_HALO, v.len()),
        MeshMsg::Vec(v) => (TAG_VEC, v.len()),
        MeshMsg::Contribs(c) => (TAG_CONTRIBS, c.len()),
        MeshMsg::Block(v) => (TAG_BLOCK, v.len()),
    };
    let mut out = Vec::with_capacity(5 + msg.size_bytes() as usize);
    out.push(tag);
    push_u32(&mut out, count as u32);
    match msg {
        MeshMsg::Halo(v) | MeshMsg::Vec(v) | MeshMsg::Block(v) => push_f64s(&mut out, v),
        MeshMsg::Contribs(cs) => push_contribs(&mut out, cs),
    }
    out
}

/// Decode a DATA-frame payload back into a [`MeshMsg`].
///
/// Total function over arbitrary bytes: any malformed input yields
/// [`RunError::Protocol`] naming what was wrong. The element count is
/// validated against the remaining buffer before anything is allocated,
/// so a hostile count cannot force an oversized allocation.
pub fn decode_mesh_msg(buf: &[u8]) -> Result<MeshMsg, RunError> {
    let mut r = Reader::new("mesh msg", buf);
    let tag = r.u8("tag")?;
    let elem = match tag {
        TAG_CONTRIBS => 20,
        TAG_HALO | TAG_VEC | TAG_BLOCK => 8,
        t => return Err(r.error(format_args!("unknown tag {t}"))),
    };
    let count = r.count(elem, "element")?;
    let msg = match tag {
        TAG_CONTRIBS => MeshMsg::Contribs(read_contribs(&mut r, count)?),
        TAG_HALO => MeshMsg::Halo(r.f64s(count, "float element")?),
        TAG_VEC => MeshMsg::Vec(r.f64s(count, "float element")?),
        _ => MeshMsg::Block(r.f64s(count, "float element")?),
    };
    r.finish(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_every_variant_bitwise() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001); // payload-carrying NaN
        let msgs = vec![
            MeshMsg::Halo(vec![1.5, -0.0, nan]),
            MeshMsg::Vec(vec![]),
            MeshMsg::Vec(vec![f64::MIN, f64::MAX, f64::EPSILON]),
            MeshMsg::Contribs(vec![
                Contribution { bin: 7, order: u64::MAX, value: -3.25 },
                Contribution { bin: 0, order: 0, value: nan },
            ]),
            MeshMsg::Block(vec![2.0_f64.powi(-1040)]), // subnormal
        ];
        for m in msgs {
            let bytes = encode_mesh_msg(&m);
            let back = decode_mesh_msg(&bytes).unwrap();
            // PartialEq is false for NaN; compare bit patterns instead.
            assert_eq!(encode_mesh_msg(&back), bytes, "round trip changed {m:?}");
        }
    }

    /// Pinned bytes: a codec change may not move this layout (the frame
    /// sizes that traffic counts measure) without failing here.
    #[test]
    fn wire_bytes_are_pinned() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let cases = [
            (
                MeshMsg::Halo(vec![1.5, -0.0, nan]),
                "0003000000000000000000f83f00000000000000800100efbeaddef87f",
            ),
            (MeshMsg::Vec(vec![]), "0100000000"),
            (
                MeshMsg::Contribs(vec![Contribution { bin: 7, order: u64::MAX - 1, value: -3.25 }]),
                "020100000007000000feffffffffffffff0000000000000ac0",
            ),
            (MeshMsg::Block(vec![f64::from_bits(1)]), "03010000000100000000000000"),
        ];
        for (msg, golden) in cases {
            let hex: String = encode_mesh_msg(&msg).iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{msg:?}");
        }
    }

    #[test]
    fn encoded_length_is_header_plus_size_bytes() {
        let m = MeshMsg::Halo(vec![1.0; 9]);
        assert_eq!(encode_mesh_msg(&m).len() as u64, 5 + m.size_bytes());
        let m = MeshMsg::Contribs(vec![Contribution { bin: 1, order: 2, value: 3.0 }; 4]);
        assert_eq!(encode_mesh_msg(&m).len() as u64, 5 + m.size_bytes());
    }

    #[test]
    fn malformed_inputs_yield_protocol_errors_not_panics() {
        // Empty, bare tag, truncated count.
        for bad in [&[][..], &[0][..], &[1, 3, 0][..]] {
            assert!(matches!(decode_mesh_msg(bad), Err(RunError::Protocol { .. })));
        }
        // Unknown tag.
        let r = decode_mesh_msg(&[9, 0, 0, 0, 0]);
        assert!(matches!(r, Err(RunError::Protocol { .. })), "got {r:?}");
        // Count promises more than the buffer holds (no allocation bomb).
        let r = decode_mesh_msg(&[1, 255, 255, 255, 255]);
        assert!(matches!(r, Err(RunError::Protocol { .. })), "got {r:?}");
        // Trailing garbage after a valid payload.
        let mut ok = encode_mesh_msg(&MeshMsg::Vec(vec![1.0]));
        ok.push(0);
        assert!(matches!(decode_mesh_msg(&ok), Err(RunError::Protocol { .. })));
        // Truncated mid-element.
        let full = encode_mesh_msg(&MeshMsg::Contribs(vec![Contribution {
            bin: 1,
            order: 2,
            value: 3.0,
        }]));
        for cut in 1..full.len() {
            let r = decode_mesh_msg(&full[..cut]);
            assert!(matches!(r, Err(RunError::Protocol { .. })), "cut at {cut}: {r:?}");
        }
    }
}
