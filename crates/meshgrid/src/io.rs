//! Grid serialization for the file-I/O communication path.
//!
//! The mesh archetype's file input/output operations (§4.2) move whole grids
//! between a host process and the grid processes, or between a grid and a
//! file. These helpers give grids a canonical byte encoding (little-endian
//! IEEE-754 bits, lexicographic interior order, extent header) so that the
//! host redistribution path and the on-disk format agree and results can be
//! compared bitwise across program versions.

use std::io::{self, Read, Write};

use crate::grid::Grid3;

const MAGIC: &[u8; 8] = b"MESHGRD3";

/// Serialize a 3-D grid's interior to a writer (header + payload).
pub fn write_grid3<W: Write>(w: &mut W, g: &Grid3<f64>) -> io::Result<()> {
    w.write_all(&grid3_to_bytes(g))
}

/// Length in bytes of a grid's [`write_grid3`] encoding.
pub fn grid3_encoded_len(g: &Grid3<f64>) -> usize {
    MAGIC.len() + 3 * 8 + 8 * g.interior_len()
}

/// Append a grid's [`write_grid3`] encoding to `buf`, interior z-rows
/// copied straight from grid storage.
pub fn append_grid3(buf: &mut Vec<u8>, g: &Grid3<f64>) {
    let (nx, ny, nz) = g.extent();
    buf.reserve(grid3_encoded_len(g));
    buf.extend_from_slice(MAGIC);
    for n in [nx, ny, nz] {
        buf.extend_from_slice(&(n as u64).to_le_bytes());
    }
    for i in 0..nx as isize {
        for j in 0..ny as isize {
            for v in g.row(i, j, 0, nz as isize) {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Deserialize a 3-D grid written by [`write_grid3`], giving it `ghost`
/// ghost layers (ghost contents default to zero).
pub fn read_grid3<R: Read>(r: &mut R, ghost: usize) -> io::Result<Grid3<f64>> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad grid magic"));
    }
    let mut dims = [0usize; 3];
    for d in &mut dims {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        *d = u64::from_le_bytes(b) as usize;
    }
    let [nx, ny, nz] = dims;
    let mut vals = vec![0.0f64; nx * ny * nz];
    for v in &mut vals {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        *v = f64::from_bits(u64::from_le_bytes(b));
    }
    let mut g = Grid3::new(nx, ny, nz, ghost);
    g.interior_from_slice(&vals);
    Ok(g)
}

/// Canonical byte encoding of a grid interior (for snapshots and digests).
pub fn grid3_to_bytes(g: &Grid3<f64>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(grid3_encoded_len(g));
    append_grid3(&mut buf, g);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoding as it was first written — interior copied out, then one
    /// `write_all` per value — kept as the reference for the row-wise one.
    fn write_grid3_per_value<W: Write>(w: &mut W, g: &Grid3<f64>) -> io::Result<()> {
        let (nx, ny, nz) = g.extent();
        w.write_all(MAGIC)?;
        for n in [nx, ny, nz] {
            w.write_all(&(n as u64).to_le_bytes())?;
        }
        for v in g.interior_to_vec() {
            w.write_all(&v.to_bits().to_le_bytes())?;
        }
        Ok(())
    }

    #[test]
    fn row_wise_encoding_equals_the_per_value_encoding() {
        for (n, ghost) in [((3, 4, 5), 1), ((1, 1, 7), 2), ((2, 3, 1), 0), ((0, 2, 2), 1)] {
            let mut g = Grid3::from_fn(n.0, n.1, n.2, ghost, |i, j, k| {
                (i as f64).sin() - (j as f64) * 1e-300 + (k as f64) * 7.5e200
            });
            // Ghost cells must not leak into the encoding.
            if ghost > 0 && n.0 > 0 {
                g.set(-1, 0, 0, f64::NAN);
            }
            let mut old = Vec::new();
            write_grid3_per_value(&mut old, &g).unwrap();
            let new = grid3_to_bytes(&g);
            assert_eq!(new, old, "{n:?} ghost {ghost}");
            assert_eq!(new.len(), grid3_encoded_len(&g));
            assert_eq!(new.capacity(), new.len(), "buffer sized exactly");
            let mut via_writer = Vec::new();
            write_grid3(&mut via_writer, &g).unwrap();
            assert_eq!(via_writer, old);
        }
    }

    #[test]
    fn grid_roundtrips_through_bytes() {
        let g = Grid3::from_fn(3, 4, 5, 1, |i, j, k| {
            (i as f64) * 0.25 + (j as f64) * 1e-7 - (k as f64) * 3.5e9
        });
        let bytes = grid3_to_bytes(&g);
        let h = read_grid3(&mut bytes.as_slice(), 1).unwrap();
        assert!(g.interior_bitwise_eq(&h));
        assert_eq!(h.ghost(), 1);
    }

    #[test]
    fn roundtrip_preserves_nan_and_signed_zero_bits() {
        let mut g: Grid3<f64> = Grid3::new(2, 1, 1, 0);
        g.set(0, 0, 0, f64::NAN);
        g.set(1, 0, 0, -0.0);
        let bytes = grid3_to_bytes(&g);
        let h = read_grid3(&mut bytes.as_slice(), 0).unwrap();
        assert_eq!(h.get(0, 0, 0).to_bits(), f64::NAN.to_bits());
        assert_eq!(h.get(1, 0, 0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = grid3_to_bytes(&Grid3::<f64>::new(1, 1, 1, 0));
        bytes[0] ^= 0xff;
        assert!(read_grid3(&mut bytes.as_slice(), 0).is_err());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = grid3_to_bytes(&Grid3::<f64>::new(2, 2, 2, 0));
        let cut = &bytes[..bytes.len() - 4];
        assert!(read_grid3(&mut &cut[..], 0).is_err());
    }
}
