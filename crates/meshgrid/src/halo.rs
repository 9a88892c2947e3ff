//! Ghost-boundary (halo) slab extraction and insertion.
//!
//! A boundary exchange (§4.2, "Exchange of boundary values") moves, for each
//! face shared by two neighbouring local sections, a slab of boundary cells
//! of depth `ghost` from one process's *interior* into the other process's
//! *ghost region*. These routines produce and consume the flat `Vec<f64>`
//! payloads the communication layers carry; the mesh archetype contexts
//! decide who sends what to whom.

use crate::error::HaloError;
use crate::grid::Grid3;
use crate::partition::Block3;

/// A face of a 3-D local section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face3 {
    /// Low-x face (axis 0, direction −1).
    XLo,
    /// High-x face (axis 0, direction +1).
    XHi,
    /// Low-y face.
    YLo,
    /// High-y face.
    YHi,
    /// Low-z face.
    ZLo,
    /// High-z face.
    ZHi,
}

impl Face3 {
    /// All six faces in a fixed canonical order.
    pub const ALL: [Face3; 6] =
        [Face3::XLo, Face3::XHi, Face3::YLo, Face3::YHi, Face3::ZLo, Face3::ZHi];

    /// `(axis, dir)` of the face.
    pub fn axis_dir(self) -> (usize, isize) {
        match self {
            Face3::XLo => (0, -1),
            Face3::XHi => (0, 1),
            Face3::YLo => (1, -1),
            Face3::YHi => (1, 1),
            Face3::ZLo => (2, -1),
            Face3::ZHi => (2, 1),
        }
    }

    /// The face seen from the other side (what the neighbour calls it).
    pub fn opposite(self) -> Face3 {
        match self {
            Face3::XLo => Face3::XHi,
            Face3::XHi => Face3::XLo,
            Face3::YLo => Face3::YHi,
            Face3::YHi => Face3::YLo,
            Face3::ZLo => Face3::ZHi,
            Face3::ZHi => Face3::ZLo,
        }
    }

    /// Construct from `(axis, dir)`.
    ///
    /// Panics on an invalid pair; [`Face3::try_from_axis_dir`] is the
    /// fallible form.
    pub fn from_axis_dir(axis: usize, dir: isize) -> Face3 {
        Self::try_from_axis_dir(axis, dir).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Face3::from_axis_dir`] returning a typed error instead of
    /// panicking.
    pub fn try_from_axis_dir(axis: usize, dir: isize) -> Result<Face3, HaloError> {
        match (axis, dir) {
            (0, -1) => Ok(Face3::XLo),
            (0, 1) => Ok(Face3::XHi),
            (1, -1) => Ok(Face3::YLo),
            (1, 1) => Ok(Face3::YHi),
            (2, -1) => Ok(Face3::ZLo),
            (2, 1) => Ok(Face3::ZHi),
            _ => Err(HaloError::InvalidFace { axis, dir }),
        }
    }

    /// The face's name, as used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Face3::XLo => "XLo",
            Face3::XHi => "XHi",
            Face3::YLo => "YLo",
            Face3::YHi => "YHi",
            Face3::ZLo => "ZLo",
            Face3::ZHi => "ZHi",
        }
    }
}

/// A set of [`Face3`]s: which ghost faces of a field a boundary exchange
/// refreshes. A stencil that differences in one direction only reads one
/// ghost layer per axis, so the set an exchange carries is derived from the
/// kernel's index expressions, not from the shape of the array.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaceSet3(u8);

impl FaceSet3 {
    /// No face.
    pub const EMPTY: FaceSet3 = FaceSet3(0);
    /// All six faces.
    pub const ALL: FaceSet3 = FaceSet3(0b11_1111);

    /// The set holding exactly `faces`.
    pub const fn of(faces: &[Face3]) -> FaceSet3 {
        let mut bits = 0;
        let mut i = 0;
        while i < faces.len() {
            bits |= 1 << faces[i] as u8;
            i += 1;
        }
        FaceSet3(bits)
    }

    /// True if `face` is in the set.
    pub const fn contains(self, face: Face3) -> bool {
        self.0 & (1 << face as u8) != 0
    }

    /// The set without `face`.
    pub const fn without(self, face: Face3) -> FaceSet3 {
        FaceSet3(self.0 & !(1 << face as u8))
    }

    /// The members, in [`Face3::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Face3> {
        Face3::ALL.into_iter().filter(move |&f| self.contains(f))
    }
}

impl std::fmt::Debug for FaceSet3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(Face3::name)).finish()
    }
}

/// Index ranges (per axis, in signed local coordinates) of the slab of depth
/// `width` adjacent to `face` of the sub-block `at` of a grid's interior.
/// `interior = true` selects the sub-block's cells to *send*; `false`
/// selects the cells just outside it to *fill* (ghost cells when `at` is
/// the whole interior).
fn slab_ranges3(at: &Block3, width: usize, face: Face3, interior: bool) -> [(isize, isize); 3] {
    let (lo, hi) = (at.lo, at.hi);
    let full = [(lo.0, hi.0), (lo.1, hi.1), (lo.2, hi.2)].map(|(a, b)| (a as isize, b as isize));
    let w = width as isize;
    let (axis, dir) = face.axis_dir();
    let (a0, a1) = full[axis];
    let r = match (interior, dir < 0) {
        (true, true) => (a0, a0 + w),
        (true, false) => (a1 - w, a1),
        (false, true) => (a0 - w, a0),
        (false, false) => (a1, a1 + w),
    };
    let mut out = full;
    out[axis] = r;
    out
}

/// Number of cells in the slab for `face` at depth `width`.
pub fn slab_len3(extent: (usize, usize, usize), width: usize, face: Face3) -> usize {
    let r = slab_ranges3(&Block3::at_origin(extent), width, face, true);
    r.iter().map(|(lo, hi)| (hi - lo) as usize).product()
}

/// Extract the interior boundary slab adjacent to `face` (depth = the grid's
/// ghost width) as a flat payload in lexicographic order.
pub fn extract_face3(g: &Grid3<f64>, face: Face3) -> Vec<f64> {
    let mut out = Vec::new();
    extract_face3_into(g, face, &mut out);
    out
}

/// [`extract_face3`] packing into a caller-supplied buffer (appended; same
/// lexicographic order), so a recycled buffer can carry the slab without a
/// fresh allocation per exchange.
pub fn extract_face3_into(g: &Grid3<f64>, face: Face3, out: &mut Vec<f64>) {
    extract_block_face3_into(g, &Block3::at_origin(g.extent()), face, out);
}

/// The boundary slab adjacent to `face` of the sub-block `at` of `g`'s
/// interior (depth = the grid's ghost width), appended to `out` in
/// lexicographic order: what one rank's section sends when several
/// sections share one grid. [`extract_face3_into`] is the whole interior.
pub fn extract_block_face3_into(g: &Grid3<f64>, at: &Block3, face: Face3, out: &mut Vec<f64>) {
    let r = slab_ranges3(at, g.ghost(), face, true);
    out.reserve(slab_len3(at.extent(), g.ghost(), face));
    // z is the storage-contiguous axis, so each (i, j) row of the slab is
    // one slice copy; for x/y faces that is the whole cross-section row.
    for i in r[0].0..r[0].1 {
        for j in r[1].0..r[1].1 {
            out.extend_from_slice(g.row(i, j, r[2].0, r[2].1));
        }
    }
}

/// Insert a payload (produced by the *neighbour's* [`extract_face3`] on the
/// opposite face) into the ghost slab adjacent to `face`.
///
/// Panics on a size mismatch; [`try_insert_ghost3`] is the fallible form
/// used where the payload arrived over a channel.
pub fn insert_ghost3(g: &mut Grid3<f64>, face: Face3, payload: &[f64]) {
    try_insert_ghost3(g, face, payload).unwrap_or_else(|e| panic!("{e}"))
}

/// [`insert_ghost3`] returning a typed error instead of panicking. On
/// error the grid is untouched.
pub fn try_insert_ghost3(
    g: &mut Grid3<f64>,
    face: Face3,
    payload: &[f64],
) -> Result<(), HaloError> {
    try_insert_block_ghost3(g, &Block3::at_origin(g.extent()), face, payload)
}

/// Insert a payload into the cells just outside `face` of the sub-block
/// `at` of `g`'s interior — the sub-block's ghost slab, which lies in `g`'s
/// ghost layer where the face is on the grid's boundary. The fallible form
/// of [`insert_ghost3`] for one section of several sharing one grid; on
/// error the grid is untouched.
pub fn try_insert_block_ghost3(
    g: &mut Grid3<f64>,
    at: &Block3,
    face: Face3,
    payload: &[f64],
) -> Result<(), HaloError> {
    let r = slab_ranges3(at, g.ghost(), face, false);
    let expect: usize = r.iter().map(|(lo, hi)| (hi - lo) as usize).product();
    if payload.len() != expect {
        return Err(HaloError::PayloadSizeMismatch {
            face: face.name(),
            got: payload.len(),
            expected: expect,
        });
    }
    let row = (r[2].1 - r[2].0) as usize;
    let mut off = 0;
    for i in r[0].0..r[0].1 {
        for j in r[1].0..r[1].1 {
            g.row_mut(i, j, r[2].0, r[2].1)
                .copy_from_slice(&payload[off..off + row]);
            off += row;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HaloError;

    #[test]
    fn opposite_faces_pair_up() {
        for f in Face3::ALL {
            assert_eq!(f.opposite().opposite(), f);
            let (axis, dir) = f.axis_dir();
            let (oaxis, odir) = f.opposite().axis_dir();
            assert_eq!(axis, oaxis);
            assert_eq!(dir, -odir);
            assert_eq!(Face3::from_axis_dir(axis, dir), f);
        }
    }

    #[test]
    fn face_sets_hold_exactly_their_members() {
        let s = FaceSet3::of(&[Face3::YHi, Face3::XLo, Face3::YHi]);
        assert_eq!(s.iter().collect::<Vec<_>>(), [Face3::XLo, Face3::YHi]);
        assert!(s.contains(Face3::XLo) && !s.contains(Face3::XHi));
        assert_eq!(s.without(Face3::XLo), FaceSet3::of(&[Face3::YHi]));
        assert_eq!(s.without(Face3::ZLo), s);
        assert_eq!(FaceSet3::ALL.iter().collect::<Vec<_>>(), Face3::ALL);
        assert_eq!(FaceSet3::EMPTY.iter().count(), 0);
        assert_eq!(FaceSet3::of(&Face3::ALL), FaceSet3::ALL);
        assert_eq!(format!("{s:?}"), r#"{"XLo", "YHi"}"#);
    }

    #[test]
    fn slab_len_matches_extraction() {
        let g = Grid3::from_fn(4, 5, 6, 2, |i, j, k| (i * 100 + j * 10 + k) as f64);
        for f in Face3::ALL {
            let payload = extract_face3(&g, f);
            assert_eq!(payload.len(), slab_len3(g.extent(), g.ghost(), f));
        }
        assert_eq!(slab_len3((4, 5, 6), 2, Face3::XLo), 2 * 5 * 6);
        assert_eq!(slab_len3((4, 5, 6), 1, Face3::ZHi), 4 * 5);
    }

    #[test]
    fn exchange_between_two_grids_matches_global_truth() {
        // Two 4-wide sections of a global 8-cell x-axis, ghost width 1.
        // Global value at (i,j,k) = i*100 + j*10 + k.
        let left = Grid3::from_fn(4, 3, 3, 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let right =
            Grid3::from_fn(4, 3, 3, 1, |i, j, k| ((i + 4) * 100 + j * 10 + k) as f64);

        // left's XHi ghost should become right's XLo interior slab and vice
        // versa.
        let mut left2 = left.clone();
        let mut right2 = right.clone();
        let from_right = extract_face3(&right, Face3::XLo);
        let from_left = extract_face3(&left, Face3::XHi);
        insert_ghost3(&mut left2, Face3::XHi, &from_right);
        insert_ghost3(&mut right2, Face3::XLo, &from_left);

        for j in 0..3isize {
            for k in 0..3isize {
                // left ghost cell at i=4 holds global i=4 = right's local 0.
                assert_eq!(left2.get(4, j, k), (400 + j * 10 + k) as f64);
                // right ghost at i=-1 holds global i=3 = left's local 3.
                assert_eq!(right2.get(-1, j, k), (300 + j * 10 + k) as f64);
            }
        }
        // Interiors untouched by the exchange.
        assert!(left2.interior_bitwise_eq(&left));
        assert!(right2.interior_bitwise_eq(&right));
    }

    #[test]
    fn ghost_width_two_slabs_round_trip() {
        let g = Grid3::from_fn(5, 4, 3, 2, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let payload = extract_face3(&g, Face3::YHi);
        assert_eq!(payload.len(), 5 * 2 * 3);
        let mut h: Grid3<f64> = Grid3::new(5, 4, 3, 2);
        insert_ghost3(&mut h, Face3::YLo, &payload);
        // h's YLo ghost at j=-2 should hold g's interior j=2 (the deeper of
        // the two sent layers), j=-1 holds j=3.
        for i in 0..5isize {
            for k in 0..3isize {
                assert_eq!(h.get(i, -2, k), (i * 100 + 20 + k) as f64);
                assert_eq!(h.get(i, -1, k), (i * 100 + 30 + k) as f64);
            }
        }
    }

    #[test]
    fn a_sub_block_packs_and_unpacks_as_its_own_section_would() {
        // A 6×5×4 grid holding two 3×5×4 sections along x.
        let g = Grid3::from_fn(6, 5, 4, 1, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let right = Block3 { lo: (3, 0, 0), hi: (6, 5, 4) };
        let own = g.sub_grid(&right);
        for f in Face3::ALL {
            let mut sub = Vec::new();
            extract_block_face3_into(&g, &right, f, &mut sub);
            assert_eq!(sub, extract_face3(&own, f), "{f:?}");
        }
        // The section's XLo ghost slab is the left section's last layer.
        let mut h = g.clone();
        let slab = vec![-1.0; slab_len3(right.extent(), 1, Face3::XLo)];
        try_insert_block_ghost3(&mut h, &right, Face3::XLo, &slab).unwrap();
        assert_eq!(h.get(2, 4, 3), -1.0);
        assert_eq!(h.get(1, 4, 3), g.get(1, 4, 3));
        let err = try_insert_block_ghost3(&mut h, &right, Face3::XLo, &slab[1..]).unwrap_err();
        assert_eq!(err, HaloError::PayloadSizeMismatch { face: "XLo", got: 19, expected: 20 });
        // The whole interior is the whole-grid call.
        let whole = Block3::at_origin(g.extent());
        let mut sub = Vec::new();
        extract_block_face3_into(&g, &whole, Face3::ZHi, &mut sub);
        assert_eq!(sub, extract_face3(&g, Face3::ZHi));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_payload_size_panics() {
        let mut g: Grid3<f64> = Grid3::new(2, 2, 2, 1);
        insert_ghost3(&mut g, Face3::XLo, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fallible_insertion_reports_the_mismatch_and_leaves_the_grid_alone() {
        use crate::error::HaloError;
        let mut g: Grid3<f64> = Grid3::new(2, 2, 2, 1);
        let before = g.clone();
        let err = try_insert_ghost3(&mut g, Face3::XLo, &[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            HaloError::PayloadSizeMismatch { face: "XLo", got: 3, expected: 4 }
        );
        assert_eq!(g, before, "failed insertion must not partially write");
        // The happy path matches the panicking original.
        try_insert_ghost3(&mut g, Face3::XLo, &[1.0; 4]).unwrap();

        assert_eq!(
            Face3::try_from_axis_dir(0, 2),
            Err(HaloError::InvalidFace { axis: 0, dir: 2 })
        );
        assert_eq!(Face3::try_from_axis_dir(1, 1), Ok(Face3::YHi));
    }
}
