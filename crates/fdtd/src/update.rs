//! The Yee update kernels and boundary conditions.
//!
//! These functions are the *shared* computational core: the plain
//! sequential drivers ([`crate::seq`]) and the archetype plans
//! ([`crate::par`]) call exactly these, on global and on local sections
//! respectively, so every execution performs bitwise-identical per-cell
//! arithmetic — the property behind the paper's "results identical to those
//! of the original sequential code" for the near-field calculations.
//!
//! Differencing convention (normalized `dx = dy = dz = 1`):
//!
//! * `update_e` uses *backward* differences — reads the low-side ghost
//!   layer of H;
//! * `update_h` uses *forward* differences — reads the high-side ghost
//!   layer of E.
//!
//! Hence the exchange pattern of one time step: exchange E → update H →
//! exchange H → update E.
//!
//! ## Kernel shape
//!
//! Each pass (E or H) is one loop over flat contiguous z-rows
//! ([`meshgrid::Grid3::row`] / [`meshgrid::Grid3::row_pair`]) that updates
//! all three components of the pass: the nine source rows and the two
//! coefficient rows are loaded once for the three outputs — 14 loads per
//! cell where three single-component loops made 21. Every slice
//! is cut to the row's length up front, so LLVM autovectorizes the loop
//! with no bounds checks, and the explicit `mul_add` lowers to hardware
//! FMA. An `(i, j)` tiling loop keeps the rows a tile touches resident in
//! cache. Because each cell of one pass depends only on the *pre-pass*
//! values of the other field, cells within a pass are independent: any
//! partition of the cell set — flat, tiled, or the boundary-shell/interior
//! split the overlapped plans use — performs the identical per-cell
//! arithmetic and is therefore bitwise identical (DESIGN.md §14).

use meshgrid::Grid3;

use crate::fields::Fields;
use crate::material::{Coefficient, Material};
use crate::params::BoundaryCondition;

/// Flops per cell of one E update (3 components × (2 mul + 3 sub + 1 add);
/// a fused multiply-add still counts as two).
pub const FLOPS_PER_CELL_E: u64 = 18;
/// Flops per cell of one H update.
pub const FLOPS_PER_CELL_H: u64 = 18;

/// Width of the E-side boundary shell in the split update: the first-order
/// Mur condition reads the *post-update* first inner layer (index 1 /
/// `n−2`), so the shell computed before the halo sends must be ≥ 2 deep.
pub const E_SHELL: usize = 2;
/// Width of the H-side boundary shell: only the outermost layer feeds the
/// halo sends.
pub const H_SHELL: usize = 1;

/// Default `(i, j)` tile edge of the cache-tiling loop.
const TILE: usize = 8;

/// Which global boundaries this section touches (low/high per axis) — the
/// §4.4 "calculations that must be done differently in different grid
/// processes".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryFlags {
    /// `at_lo[a]`: the section touches the global low boundary on axis `a`.
    pub at_lo: [bool; 3],
    /// `at_hi[a]`: the section touches the global high boundary on axis `a`.
    pub at_hi: [bool; 3],
}

impl BoundaryFlags {
    /// Flags for a single section covering the whole domain.
    pub fn whole() -> BoundaryFlags {
        BoundaryFlags { at_lo: [true; 3], at_hi: [true; 3] }
    }
}

/// A half-open `(i, j, k)` box of a section's interior cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Inclusive low i.
    pub i0: isize,
    /// Exclusive high i.
    pub i1: isize,
    /// Inclusive low j.
    pub j0: isize,
    /// Exclusive high j.
    pub j1: isize,
    /// Inclusive low k.
    pub k0: isize,
    /// Exclusive high k.
    pub k1: isize,
}

impl Span {
    /// The whole interior of a section with the given extent.
    pub fn whole(extent: (usize, usize, usize)) -> Span {
        Span {
            i0: 0,
            i1: extent.0 as isize,
            j0: 0,
            j1: extent.1 as isize,
            k0: 0,
            k1: extent.2 as isize,
        }
    }

    /// True if the box contains no cells.
    pub fn is_empty(&self) -> bool {
        self.i0 >= self.i1 || self.j0 >= self.j1 || self.k0 >= self.k1
    }

    /// Number of cells in the box.
    pub fn cells(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (self.i1 - self.i0) as u64 * (self.j1 - self.j0) as u64 * (self.k1 - self.k0) as u64
        }
    }

    /// True if the box contains the cell `(i, j, k)`.
    pub fn contains(&self, i: isize, j: isize, k: isize) -> bool {
        i >= self.i0 && i < self.i1 && j >= self.j0 && j < self.j1 && k >= self.k0 && k < self.k1
    }
}

/// The *defining* per-cell arithmetic of one Yee curl update:
///
/// ```text
/// out = a·out ± b·((p0 − m0) − (p1 − m1))
/// ```
///
/// (`+` for E, `−` for H, selected by `NEG` at compile time). The
/// multiply-accumulate is an explicit `mul_add` that `target-cpu=native`
/// lowers to hardware FMA. Every caller — sequential driver, archetype
/// plan, flat or tiled or boundary/interior split — funnels through this
/// one function, so per-cell results are bitwise identical by
/// construction.
#[inline(always)]
fn yee_cell<const NEG: bool>(
    o: f64,
    a: f64,
    b: f64,
    p0: f64,
    m0: f64,
    p1: f64,
    m1: f64,
) -> f64 {
    let c = b * ((p0 - m0) - (p1 - m1));
    a.mul_add(o, if NEG { -c } else { c })
}

/// The nine source rows one pass reads at one `(i, j)`: each source
/// component's own row and its rows one cell along the two other axes —
/// one cell *down* for E's backward differences, *up* for H's forward
/// ones. The three outputs of the pass share them.
struct Sources<'a> {
    x: &'a [f64],
    x_j: &'a [f64],
    x_k: &'a [f64],
    y: &'a [f64],
    y_i: &'a [f64],
    y_k: &'a [f64],
    z: &'a [f64],
    z_i: &'a [f64],
    z_j: &'a [f64],
}

impl<'a> Sources<'a> {
    /// The rows `k0..k1` around `(i, j)` of the grids `[x, y, z]`, shifted
    /// one cell up (`UP`, H's pass) or down (E's). A z-shifted row comes
    /// out of one slice with its own row ([`Grid3::row_pair`]), so the
    /// kernel addresses both off one pointer.
    fn gather<const UP: bool>(
        [gx, gy, gz]: [&'a Grid3<f64>; 3],
        i: isize,
        j: isize,
        k0: isize,
        k1: isize,
    ) -> Self {
        let d = if UP { 1 } else { -1 };
        let own_and_k = |g: &'a Grid3<f64>| {
            if UP {
                let (up, own) = g.row_pair(i, j, k0 + 1, k1 + 1);
                (own, up)
            } else {
                g.row_pair(i, j, k0, k1)
            }
        };
        let ((x, x_k), (y, y_k)) = (own_and_k(gx), own_and_k(gy));
        Sources {
            x,
            x_j: gx.row(i, j + d, k0, k1),
            x_k,
            y,
            y_i: gy.row(i + d, j, k0, k1),
            y_k,
            z: gz.row(i, j, k0, k1),
            z_i: gz.row(i + d, j, k0, k1),
            z_j: gz.row(i, j + d, k0, k1),
        }
    }
}

/// One z-row of a pass, all three components at once — the one loop both
/// kernels run, applying [`yee_cell`] per cell:
///
/// ```text
/// ox ← a·ox ± b·(∂j z − ∂k y)
/// oy ← a·oy ± b·(∂k x − ∂i z)
/// oz ← a·oz ± b·(∂i y − ∂j x)
/// ```
///
/// A difference `∂j z` is `z − z_j` for E (`NEG = false`) and `z_j − z`
/// for H, with `z_j` the row one cell along j ([`Sources`]). Each source
/// and coefficient row is loaded once for the three outputs: 14 loads per
/// cell against 21 for three single-component loops. Every slice is cut to
/// the output's length up front, so the loop body carries no bounds checks
/// and autovectorizes.
#[inline(always)]
fn yee_row<const NEG: bool>(
    ox: &mut [f64],
    oy: &mut [f64],
    oz: &mut [f64],
    s: &Sources<'_>,
    (a, b): (&[f64], &[f64]),
) {
    let n = ox.len();
    let (oy, oz) = (&mut oy[..n], &mut oz[..n]);
    let (a, b) = (&a[..n], &b[..n]);
    let (x, x_j, x_k) = (&s.x[..n], &s.x_j[..n], &s.x_k[..n]);
    let (y, y_i, y_k) = (&s.y[..n], &s.y_i[..n], &s.y_k[..n]);
    let (z, z_i, z_j) = (&s.z[..n], &s.z_i[..n], &s.z_j[..n]);
    // `(p, m)` of one difference, from the own and the shifted value.
    let d = |own: f64, shifted: f64| if NEG { (shifted, own) } else { (own, shifted) };
    for k in 0..n {
        let (ak, bk) = (a[k], b[k]);
        let ((zp, zm), (yp, ym)) = (d(z[k], z_j[k]), d(y[k], y_k[k]));
        ox[k] = yee_cell::<NEG>(ox[k], ak, bk, zp, zm, yp, ym);
        let ((xp, xm), (zp, zm)) = (d(x[k], x_k[k]), d(z[k], z_i[k]));
        oy[k] = yee_cell::<NEG>(oy[k], ak, bk, xp, xm, zp, zm);
        let ((yp, ym), (xp, xm)) = (d(y[k], y_i[k]), d(x[k], x_j[k]));
        oz[k] = yee_cell::<NEG>(oz[k], ak, bk, yp, ym, xp, xm);
    }
}

/// Advance `out` over one `(i, j)` box from the curl of `src`, z-row by
/// z-row: E (`NEG = false`, backward differences, `out ← a·out + b·curl`)
/// or H (`NEG = true`, forward, `out ← a·out − b·curl`).
fn update_span<const NEG: bool>(
    [ox, oy, oz]: [&mut Grid3<f64>; 3],
    src: [&Grid3<f64>; 3],
    (a, b): (&Coefficient, &Coefficient),
    s: Span,
) {
    if s.is_empty() {
        return;
    }
    let (k0, k1) = (s.k0, s.k1);
    for i in s.i0..s.i1 {
        for j in s.j0..s.j1 {
            let rows = Sources::gather::<NEG>(src, i, j, k0, k1);
            let (ox, oy) = (ox.row_mut(i, j, k0, k1), oy.row_mut(i, j, k0, k1));
            let oz = oz.row_mut(i, j, k0, k1);
            let c = (a.row(i, j, k0, k1), b.row(i, j, k0, k1));
            yee_row::<NEG>(ox, oy, oz, &rows, c);
        }
    }
}

/// Advance E over one `(i, j)` box: `E ← Ca·E + Cb·curl(H)`.
fn update_e_span(f: &mut Fields, m: &Material, s: Span) {
    let Fields { ex, ey, ez, hx, hy, hz } = f;
    update_span::<false>([ex, ey, ez], [hx, hy, hz], (&m.ca, &m.cb), s);
}

/// Advance H over one `(i, j)` box: `H ← Da·H − Db·curl(E)`.
fn update_h_span(f: &mut Fields, m: &Material, s: Span) {
    let Fields { ex, ey, ez, hx, hy, hz } = f;
    update_span::<true>([hx, hy, hz], [ex, ey, ez], (&m.da, &m.db), s);
}

/// Visit `span` as `(i, j)` tiles of edge `tile` (k untouched), in
/// lexicographic tile order. An edge of 0 is taken as 1.
fn for_each_tile(s: Span, tile: usize, mut f: impl FnMut(Span)) {
    let t = tile.clamp(1, isize::MAX as usize) as isize;
    let mut i0 = s.i0;
    while i0 < s.i1 {
        let i1 = s.i1.min(i0.saturating_add(t));
        let mut j0 = s.j0;
        while j0 < s.j1 {
            let j1 = s.j1.min(j0.saturating_add(t));
            f(Span { i0, i1, j0, j1, k0: s.k0, k1: s.k1 });
            j0 = j1;
        }
        i0 = i1;
    }
}

/// Advance E over `span`, visiting `(i, j)` in `tile`-edge cache tiles
/// (`usize::MAX` degenerates to one flat pass). Cell independence within a
/// pass makes every tiling bitwise identical.
pub fn update_e_region(f: &mut Fields, m: &Material, span: Span, tile: usize) {
    for_each_tile(span, tile, |t| update_e_span(f, m, t));
}

/// Advance H over `span`, tiled like [`update_e_region`].
pub fn update_h_region(f: &mut Fields, m: &Material, span: Span, tile: usize) {
    for_each_tile(span, tile, |t| update_h_span(f, m, t));
}

/// Advance E one step: `E ← Ca·E + Cb·curl(H)`.
pub fn update_e(f: &mut Fields, m: &Material) {
    update_e_region(f, m, Span::whole(f.extent()), TILE);
}

/// Advance H one half-step: `H ← Da·H − Db·curl(E)`.
pub fn update_h(f: &mut Fields, m: &Material) {
    update_h_region(f, m, Span::whole(f.extent()), TILE);
}

/// Clamp the interior range of one axis to a shell of width `s`.
fn clamp_shell(n: isize, s: isize) -> (isize, isize) {
    let lo = s.min(n);
    (lo, (n - s).max(lo))
}

/// Decompose a section's interior into six disjoint boundary slabs (some
/// possibly empty) plus the interior core, for shell width `shell`. The
/// seven boxes partition the interior exactly, whatever the extents.
pub fn shell_spans(extent: (usize, usize, usize), shell: usize) -> ([Span; 6], Span) {
    let (nx, ny, nz) = (extent.0 as isize, extent.1 as isize, extent.2 as isize);
    let s = shell as isize;
    let (ilo, ihi) = clamp_shell(nx, s);
    let (jlo, jhi) = clamp_shell(ny, s);
    let (klo, khi) = clamp_shell(nz, s);
    let slabs = [
        Span { i0: 0, i1: ilo, j0: 0, j1: ny, k0: 0, k1: nz },
        Span { i0: ihi, i1: nx, j0: 0, j1: ny, k0: 0, k1: nz },
        Span { i0: ilo, i1: ihi, j0: 0, j1: jlo, k0: 0, k1: nz },
        Span { i0: ilo, i1: ihi, j0: jhi, j1: ny, k0: 0, k1: nz },
        Span { i0: ilo, i1: ihi, j0: jlo, j1: jhi, k0: 0, k1: klo },
        Span { i0: ilo, i1: ihi, j0: jlo, j1: jhi, k0: khi, k1: nz },
    ];
    (slabs, Span { i0: ilo, i1: ihi, j0: jlo, j1: jhi, k0: klo, k1: khi })
}

/// Cells in the interior core left by a shell of width `shell`.
pub fn interior_cells(extent: (usize, usize, usize), shell: usize) -> u64 {
    shell_spans(extent, shell).1.cells()
}

/// Cells in the boundary shell of width `shell`.
pub fn boundary_cells(extent: (usize, usize, usize), shell: usize) -> u64 {
    (extent.0 * extent.1 * extent.2) as u64 - interior_cells(extent, shell)
}

/// True if local cell `pos` lies inside the boundary shell of width
/// `shell` — decides which half of a split update owns a cell-local
/// side effect (the soft source).
pub fn in_shell(extent: (usize, usize, usize), shell: usize, pos: (isize, isize, isize)) -> bool {
    !shell_spans(extent, shell).1.contains(pos.0, pos.1, pos.2)
}

/// Advance E over the [`E_SHELL`]-deep boundary shell only (the half of
/// the split update that must finish before the halo sends).
pub fn update_e_boundary(f: &mut Fields, m: &Material) {
    let (slabs, _) = shell_spans(f.extent(), E_SHELL);
    for s in slabs {
        update_e_span(f, m, s);
    }
}

/// Advance E over the interior core only (overlaps the in-flight halo
/// exchange in the split plans).
pub fn update_e_interior(f: &mut Fields, m: &Material) {
    let (_, core) = shell_spans(f.extent(), E_SHELL);
    update_e_region(f, m, core, TILE);
}

/// Advance H over the [`H_SHELL`]-deep boundary shell only.
pub fn update_h_boundary(f: &mut Fields, m: &Material) {
    let (slabs, _) = shell_spans(f.extent(), H_SHELL);
    for s in slabs {
        update_h_span(f, m, s);
    }
}

/// Advance H over the interior core only.
pub fn update_h_interior(f: &mut Fields, m: &Material) {
    let (_, core) = shell_spans(f.extent(), H_SHELL);
    update_h_region(f, m, core, TILE);
}

/// Pin tangential E to zero on the touched global boundary faces (PEC box).
pub fn apply_pec(f: &mut Fields, flags: &BoundaryFlags) {
    let (nx, ny, nz) = f.extent();
    let (nxi, nyi, nzi) = (nx as isize, ny as isize, nz as isize);
    // x faces: tangential components ey, ez.
    for (cond, i) in [(flags.at_lo[0], 0), (flags.at_hi[0], nxi - 1)] {
        if cond {
            for j in 0..nyi {
                f.ey.row_mut(i, j, 0, nzi).fill(0.0);
                f.ez.row_mut(i, j, 0, nzi).fill(0.0);
            }
        }
    }
    // y faces: ex, ez.
    for (cond, j) in [(flags.at_lo[1], 0), (flags.at_hi[1], nyi - 1)] {
        if cond {
            for i in 0..nxi {
                f.ex.row_mut(i, j, 0, nzi).fill(0.0);
                f.ez.row_mut(i, j, 0, nzi).fill(0.0);
            }
        }
    }
    // z faces: ex, ey.
    for (cond, k) in [(flags.at_lo[2], 0), (flags.at_hi[2], nzi - 1)] {
        if cond {
            for i in 0..nxi {
                for j in 0..nyi {
                    f.ex.set(i, j, k, 0.0);
                    f.ey.set(i, j, k, 0.0);
                }
            }
        }
    }
}

/// A Mur boundary was requested for a section too thin to carry it: the
/// first-order condition needs both a boundary layer and an inner layer,
/// so every axis touching a Mur face must span at least two cells. A
/// high-P partition can produce 1-cell sections; this is a configuration/
/// geometry error, not a programming error, so it is typed rather than a
/// panic (surfaced as `RunError::Protocol` by the plan drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MurGeometryError {
    /// The offending axis (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// The section's extent on that axis.
    pub extent: usize,
}

impl std::fmt::Display for MurGeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Mur boundary on axis {} needs a section at least 2 cells wide, got {}",
            self.axis, self.extent
        )
    }
}

impl std::error::Error for MurGeometryError {}

/// Saved pre-update layers of one touched Mur face: the boundary layer and
/// the first inner layer of each of the two tangential E components,
/// indexed `[a1 * n2 + a2]` over the face's two in-plane axes in ascending
/// axis order (`n2` = extent of the faster, higher-numbered axis).
#[derive(Debug, Clone)]
struct MurFace {
    /// First tangential component (component order x < y < z): boundary
    /// layer, then inner layer.
    t1_b: Vec<f64>,
    t1_i: Vec<f64>,
    /// Second tangential component: boundary layer, then inner layer.
    t2_b: Vec<f64>,
    t2_i: Vec<f64>,
}

impl MurFace {
    fn with_capacity(plane: usize) -> MurFace {
        MurFace {
            t1_b: Vec::with_capacity(plane),
            t1_i: Vec::with_capacity(plane),
            t2_b: Vec::with_capacity(plane),
            t2_i: Vec::with_capacity(plane),
        }
    }
}

/// Saved pre-update boundary layers for the first-order Mur ABC: for each
/// touched face, indexed planes of the two outermost layers of the
/// tangential E components taken *before* `update_e`. Save and apply are
/// both O(face): the planes are addressed directly, replacing the former
/// per-cell linear scan of coordinate tuples that made `apply_mur`
/// O(face²).
#[derive(Debug, Clone, Default)]
pub struct MurSaved {
    /// Face order: x-lo, x-hi, y-lo, y-hi, z-lo, z-hi.
    faces: [Option<MurFace>; 6],
}

/// Record the layers [`apply_mur`] will need. Call immediately before
/// `update_e`. Every axis touching a Mur face must span at least two
/// cells; thinner sections yield a typed [`MurGeometryError`].
pub fn save_mur_layers(f: &Fields, flags: &BoundaryFlags) -> Result<MurSaved, MurGeometryError> {
    let (nx, ny, nz) = f.extent();
    // Validate every touched axis up front so failure never leaves a
    // partially-populated save.
    for (axis, extent) in [(0, nx), (1, ny), (2, nz)] {
        if (flags.at_lo[axis] || flags.at_hi[axis]) && extent < 2 {
            return Err(MurGeometryError { axis, extent });
        }
    }
    let (nxi, nyi, nzi) = (nx as isize, ny as isize, nz as isize);
    let mut saved = MurSaved::default();
    // x faces (tangential ey, ez): layers i = {0, 1} and {n-1, n-2}; the
    // plane runs over (j, k), z contiguous — whole-row copies.
    for (cond, slot, b, inner) in [
        (flags.at_lo[0], 0, 0, 1),
        (flags.at_hi[0], 1, nxi - 1, nxi - 2),
    ] {
        if cond {
            let mut face = MurFace::with_capacity(ny * nz);
            for j in 0..nyi {
                face.t1_b.extend_from_slice(f.ey.row(b, j, 0, nzi));
                face.t1_i.extend_from_slice(f.ey.row(inner, j, 0, nzi));
                face.t2_b.extend_from_slice(f.ez.row(b, j, 0, nzi));
                face.t2_i.extend_from_slice(f.ez.row(inner, j, 0, nzi));
            }
            saved.faces[slot] = Some(face);
        }
    }
    // y faces (tangential ex, ez): plane over (i, k), rows contiguous.
    for (cond, slot, b, inner) in [
        (flags.at_lo[1], 2, 0, 1),
        (flags.at_hi[1], 3, nyi - 1, nyi - 2),
    ] {
        if cond {
            let mut face = MurFace::with_capacity(nx * nz);
            for i in 0..nxi {
                face.t1_b.extend_from_slice(f.ex.row(i, b, 0, nzi));
                face.t1_i.extend_from_slice(f.ex.row(i, inner, 0, nzi));
                face.t2_b.extend_from_slice(f.ez.row(i, b, 0, nzi));
                face.t2_i.extend_from_slice(f.ez.row(i, inner, 0, nzi));
            }
            saved.faces[slot] = Some(face);
        }
    }
    // z faces (tangential ex, ey): plane over (i, j) at fixed k — strided,
    // per-cell reads, still O(face).
    for (cond, slot, b, inner) in [
        (flags.at_lo[2], 4, 0, 1),
        (flags.at_hi[2], 5, nzi - 1, nzi - 2),
    ] {
        if cond {
            let mut face = MurFace::with_capacity(nx * ny);
            for i in 0..nxi {
                for j in 0..nyi {
                    face.t1_b.push(f.ex.get(i, j, b));
                    face.t1_i.push(f.ex.get(i, j, inner));
                    face.t2_b.push(f.ey.get(i, j, b));
                    face.t2_i.push(f.ey.get(i, j, inner));
                }
            }
            saved.faces[slot] = Some(face);
        }
    }
    Ok(saved)
}

/// Apply the first-order Mur condition to the tangential E components of
/// every touched face. Call immediately after `update_e` (and the source):
///
/// ```text
/// E_tan^{n+1}(boundary) = E_tan^n(inner) + k · (E_tan^{n+1}(inner) − E_tan^n(boundary))
/// k = (c·Δt − Δx)/(c·Δt + Δx)
/// ```
///
/// Faces are applied in the fixed order x-lo, x-hi, y-lo, y-hi, z-lo,
/// z-hi; later faces read edge cells already rewritten by earlier ones,
/// which is part of the defined (and deterministic) update.
pub fn apply_mur(f: &mut Fields, saved: &MurSaved, flags: &BoundaryFlags, dt: f64) {
    let kc = (dt - 1.0) / (dt + 1.0);
    let (nx, ny, nz) = f.extent();
    let (nxi, nyi, nzi) = (nx as isize, ny as isize, nz as isize);
    let face = |slot: usize| {
        saved.faces[slot].as_ref().expect("Mur layers were saved for every touched face")
    };
    // x faces.
    for (cond, slot, b, inner) in [
        (flags.at_lo[0], 0, 0, 1),
        (flags.at_hi[0], 1, nxi - 1, nxi - 2),
    ] {
        if cond {
            let s = face(slot);
            for j in 0..nyi {
                for k in 0..nzi {
                    let p = (j * nzi + k) as usize;
                    let v = s.t1_i[p] + kc * (f.ey.get(inner, j, k) - s.t1_b[p]);
                    f.ey.set(b, j, k, v);
                    let v = s.t2_i[p] + kc * (f.ez.get(inner, j, k) - s.t2_b[p]);
                    f.ez.set(b, j, k, v);
                }
            }
        }
    }
    // y faces.
    for (cond, slot, b, inner) in [
        (flags.at_lo[1], 2, 0, 1),
        (flags.at_hi[1], 3, nyi - 1, nyi - 2),
    ] {
        if cond {
            let s = face(slot);
            for i in 0..nxi {
                for k in 0..nzi {
                    let p = (i * nzi + k) as usize;
                    let v = s.t1_i[p] + kc * (f.ex.get(i, inner, k) - s.t1_b[p]);
                    f.ex.set(i, b, k, v);
                    let v = s.t2_i[p] + kc * (f.ez.get(i, inner, k) - s.t2_b[p]);
                    f.ez.set(i, b, k, v);
                }
            }
        }
    }
    // z faces.
    for (cond, slot, b, inner) in [
        (flags.at_lo[2], 4, 0, 1),
        (flags.at_hi[2], 5, nzi - 1, nzi - 2),
    ] {
        if cond {
            let s = face(slot);
            for i in 0..nxi {
                for j in 0..nyi {
                    let p = (i * nyi + j) as usize;
                    let v = s.t1_i[p] + kc * (f.ex.get(i, j, inner) - s.t1_b[p]);
                    f.ex.set(i, j, b, v);
                    let v = s.t2_i[p] + kc * (f.ey.get(i, j, inner) - s.t2_b[p]);
                    f.ey.set(i, j, b, v);
                }
            }
        }
    }
}

/// Apply the configured outer boundary condition after an E update.
/// For Mur, `saved` must come from [`save_mur_layers`] taken before the
/// update.
pub fn apply_bc(
    f: &mut Fields,
    bc: BoundaryCondition,
    flags: &BoundaryFlags,
    saved: &MurSaved,
    dt: f64,
) {
    match bc {
        BoundaryCondition::Pec => apply_pec(f, flags),
        BoundaryCondition::Mur1 => apply_mur(f, saved, flags, dt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::MaterialSpec;
    use meshgrid::Block3;

    fn vacuum(n: (usize, usize, usize)) -> Material {
        Material::build(&MaterialSpec::Vacuum, Block3 { lo: (0, 0, 0), hi: n }, 0.5)
    }

    /// The section `n` in three media: free space (one coefficient value
    /// throughout), a lossy sphere crossing it (rows through the sphere
    /// vary along z), and a PEC box over the low half of every z-row
    /// (`Ca = Cb = 0` next to free space in every E row).
    fn media(n: (usize, usize, usize)) -> [(&'static str, Material); 3] {
        let block = Block3 { lo: (0, 0, 0), hi: n };
        let (x, y, z) = (n.0 as f64, n.1 as f64, n.2 as f64);
        let sphere = MaterialSpec::dielectric_sphere(
            (x / 2.0, y / 2.0, z / 2.0),
            0.35 * x.max(y).max(z),
            4.0,
            0.05,
        );
        let pec = MaterialSpec::PecBox { lo: (0, 0, 0), hi: (n.0, n.1, n.2 / 2) };
        [
            ("vacuum", vacuum(n)),
            ("sphere", Material::build(&sphere, block, 0.5)),
            ("half-PEC", Material::build(&pec, block, 0.5)),
        ]
    }

    /// Deterministic pseudo-random field content (SplitMix64-flavoured).
    fn scramble(f: &mut Fields, seed: u64) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z = z ^ (z >> 31);
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for g in [&mut f.ex, &mut f.ey, &mut f.ez, &mut f.hx, &mut f.hy, &mut f.hz] {
            g.for_each_interior(|_, _, _, v| *v = next());
        }
    }

    /// The scalar get/set reference for `update_e`: the same per-cell
    /// arithmetic (fused multiply-add) expressed cell by cell.
    fn scalar_update_e(f: &mut Fields, m: &Material) {
        let (nx, ny, nz) = f.extent();
        for i in 0..nx as isize {
            for j in 0..ny as isize {
                for k in 0..nz as isize {
                    let ca = m.ca.get(i, j, k);
                    let cb = m.cb.get(i, j, k);
                    let ex = ca.mul_add(
                        f.ex.get(i, j, k),
                        cb * ((f.hz.get(i, j, k) - f.hz.get(i, j - 1, k))
                            - (f.hy.get(i, j, k) - f.hy.get(i, j, k - 1))),
                    );
                    let ey = ca.mul_add(
                        f.ey.get(i, j, k),
                        cb * ((f.hx.get(i, j, k) - f.hx.get(i, j, k - 1))
                            - (f.hz.get(i, j, k) - f.hz.get(i - 1, j, k))),
                    );
                    let ez = ca.mul_add(
                        f.ez.get(i, j, k),
                        cb * ((f.hy.get(i, j, k) - f.hy.get(i - 1, j, k))
                            - (f.hx.get(i, j, k) - f.hx.get(i, j - 1, k))),
                    );
                    f.ex.set(i, j, k, ex);
                    f.ey.set(i, j, k, ey);
                    f.ez.set(i, j, k, ez);
                }
            }
        }
    }

    /// The scalar get/set reference for `update_h`.
    fn scalar_update_h(f: &mut Fields, m: &Material) {
        let (nx, ny, nz) = f.extent();
        for i in 0..nx as isize {
            for j in 0..ny as isize {
                for k in 0..nz as isize {
                    let da = m.da.get(i, j, k);
                    let db = m.db.get(i, j, k);
                    let hx = da.mul_add(
                        f.hx.get(i, j, k),
                        -(db * ((f.ez.get(i, j + 1, k) - f.ez.get(i, j, k))
                            - (f.ey.get(i, j, k + 1) - f.ey.get(i, j, k)))),
                    );
                    let hy = da.mul_add(
                        f.hy.get(i, j, k),
                        -(db * ((f.ex.get(i, j, k + 1) - f.ex.get(i, j, k))
                            - (f.ez.get(i + 1, j, k) - f.ez.get(i, j, k)))),
                    );
                    let hz = da.mul_add(
                        f.hz.get(i, j, k),
                        -(db * ((f.ey.get(i + 1, j, k) - f.ey.get(i, j, k))
                            - (f.ex.get(i, j + 1, k) - f.ex.get(i, j, k)))),
                    );
                    f.hx.set(i, j, k, hx);
                    f.hy.set(i, j, k, hy);
                    f.hz.set(i, j, k, hz);
                }
            }
        }
    }

    #[test]
    fn zero_fields_stay_zero() {
        let n = (5, 5, 5);
        let mut f = Fields::zeros(n.0, n.1, n.2);
        let m = vacuum(n);
        update_h(&mut f, &m);
        update_e(&mut f, &m);
        assert_eq!(f.energy(), 0.0);
    }

    #[test]
    fn point_excitation_spreads_causally() {
        let n = (9, 9, 9);
        let mut f = Fields::zeros(n.0, n.1, n.2);
        let m = vacuum(n);
        f.ez.set(4, 4, 4, 1.0);
        update_h(&mut f, &m);
        update_e(&mut f, &m);
        // After one step the disturbance reaches only nearest neighbours.
        assert_ne!(f.hx.get(4, 3, 4), 0.0);
        assert_eq!(f.hx.get(4, 0, 4), 0.0, "far cells untouched after one step");
        assert!(f.energy() > 0.0);
    }

    #[test]
    fn row_kernels_match_the_scalar_reference_bitwise() {
        for n in [(9, 9, 9), (6, 5, 4), (1, 7, 3), (4, 1, 1), (2, 2, 17)] {
            for (what, m) in media(n) {
                let mut a = Fields::zeros(n.0, n.1, n.2);
                scramble(&mut a, 42);
                let mut b = a.clone();
                for _ in 0..3 {
                    update_h(&mut a, &m);
                    update_e(&mut a, &m);
                    scalar_update_h(&mut b, &m);
                    scalar_update_e(&mut b, &m);
                }
                assert!(a.bitwise_eq(&b), "row kernel diverged from the reference: {what} {n:?}");
            }
        }
    }

    #[test]
    fn every_tiling_is_bitwise_identical() {
        let n = (11, 9, 13);
        for (what, m) in media(n) {
            let mut base = Fields::zeros(n.0, n.1, n.2);
            scramble(&mut base, 7);
            let mut reference = base.clone();
            update_h(&mut reference, &m);
            update_e(&mut reference, &m);
            for tile in [0, 1, 3, 8, usize::MAX] {
                let mut f = base.clone();
                update_h_region(&mut f, &m, Span::whole(n), tile);
                update_e_region(&mut f, &m, Span::whole(n), tile);
                assert!(f.bitwise_eq(&reference), "{what}: tile = {tile} changed a bit");
            }
        }
    }

    #[test]
    fn boundary_plus_interior_equals_the_full_update() {
        for n in [(12, 10, 9), (5, 5, 5), (2, 3, 9), (1, 1, 1), (4, 2, 2)] {
            for (what, m) in media(n) {
                let mut whole = Fields::zeros(n.0, n.1, n.2);
                scramble(&mut whole, 99);
                let mut split = whole.clone();
                update_h(&mut whole, &m);
                update_e(&mut whole, &m);
                update_h_boundary(&mut split, &m);
                update_h_interior(&mut split, &m);
                update_e_boundary(&mut split, &m);
                update_e_interior(&mut split, &m);
                assert!(split.bitwise_eq(&whole), "split diverged: {what} {n:?}");
            }
        }
    }

    #[test]
    fn shell_spans_partition_the_interior_exactly() {
        for n in [(12, 10, 9), (4, 4, 4), (2, 3, 9), (1, 1, 1), (3, 1, 5)] {
            for shell in [1usize, 2, 3] {
                let (slabs, core) = shell_spans(n, shell);
                let mut count: u64 = core.cells();
                for s in &slabs {
                    count += s.cells();
                }
                assert_eq!(count, (n.0 * n.1 * n.2) as u64, "n={n:?} shell={shell}");
                assert_eq!(
                    boundary_cells(n, shell) + interior_cells(n, shell),
                    (n.0 * n.1 * n.2) as u64
                );
                // Disjointness: every cell claimed by exactly one box.
                let mut seen = vec![false; n.0 * n.1 * n.2];
                let mut claim = |s: &Span| {
                    for i in s.i0..s.i1 {
                        for j in s.j0..s.j1 {
                            for k in s.k0..s.k1 {
                                let idx = ((i as usize) * n.1 + j as usize) * n.2 + k as usize;
                                assert!(!seen[idx], "cell ({i},{j},{k}) claimed twice");
                                seen[idx] = true;
                            }
                        }
                    }
                };
                for s in &slabs {
                    claim(s);
                }
                claim(&core);
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn energy_stays_bounded_under_pec() {
        // 200 steps in a PEC box: the scheme must not blow up.
        let n = (8, 8, 8);
        let mut f = Fields::zeros(n.0, n.1, n.2);
        let m = vacuum(n);
        f.ez.set(4, 4, 4, 1.0);
        let flags = BoundaryFlags::whole();
        let mut peak: f64 = 0.0;
        for _ in 0..200 {
            update_h(&mut f, &m);
            update_e(&mut f, &m);
            apply_pec(&mut f, &flags);
            peak = peak.max(f.energy());
        }
        assert!(f.energy().is_finite());
        assert!(peak < 100.0, "bounded energy, got peak {peak}");
    }

    #[test]
    fn pec_zeroes_tangential_components_only() {
        let n = (4, 4, 4);
        let mut f = Fields::zeros(n.0, n.1, n.2);
        for g in [&mut f.ex, &mut f.ey, &mut f.ez] {
            g.for_each_interior(|_, _, _, v| *v = 1.0);
        }
        apply_pec(&mut f, &BoundaryFlags::whole());
        // x = 0 face: ey, ez zero; ex untouched.
        assert_eq!(f.ey.get(0, 2, 2), 0.0);
        assert_eq!(f.ez.get(0, 2, 2), 0.0);
        assert_eq!(f.ex.get(0, 2, 2), 1.0);
        // Interior untouched.
        assert_eq!(f.ey.get(2, 2, 2), 1.0);
    }

    #[test]
    fn mur_absorbs_better_than_pec() {
        // A pulse launched in a box: after enough steps for the wave to hit
        // the walls and come back, Mur should retain much less energy than
        // the perfectly reflecting PEC.
        let n = (12, 12, 12);
        let m = vacuum(n);
        let run = |bc: BoundaryCondition| {
            let mut f = Fields::zeros(n.0, n.1, n.2);
            f.ez.set(6, 6, 6, 1.0);
            let flags = BoundaryFlags::whole();
            for _ in 0..60 {
                let saved = match bc {
                    BoundaryCondition::Mur1 => {
                        save_mur_layers(&f, &flags).expect("12-cell sections carry Mur")
                    }
                    BoundaryCondition::Pec => MurSaved::default(),
                };
                update_h(&mut f, &m);
                update_e(&mut f, &m);
                apply_bc(&mut f, bc, &flags, &saved, 0.5);
            }
            f.energy()
        };
        let pec = run(BoundaryCondition::Pec);
        let mur = run(BoundaryCondition::Mur1);
        assert!(mur < pec * 0.5, "Mur {mur} vs PEC {pec}");
        assert!(mur.is_finite() && mur >= 0.0);
    }

    /// The retired tuple-scan form of the Mur save/apply, replicated
    /// verbatim as the regression oracle for the indexed-plane rewrite.
    mod tuple_form {
        use super::*;

        #[derive(Default)]
        pub struct TupleSaved {
            ex: Vec<(isize, isize, isize, f64)>,
            ey: Vec<(isize, isize, isize, f64)>,
            ez: Vec<(isize, isize, isize, f64)>,
        }

        pub fn save(f: &Fields, flags: &BoundaryFlags) -> TupleSaved {
            let (nx, ny, nz) = f.extent();
            let (nxi, nyi, nzi) = (nx as isize, ny as isize, nz as isize);
            let mut saved = TupleSaved::default();
            let mut grab = |comp: usize, i: isize, j: isize, k: isize, v: f64| match comp {
                0 => saved.ex.push((i, j, k, v)),
                1 => saved.ey.push((i, j, k, v)),
                _ => saved.ez.push((i, j, k, v)),
            };
            for (cond, layers) in
                [(flags.at_lo[0], [0, 1]), (flags.at_hi[0], [nxi - 1, nxi - 2])]
            {
                if cond {
                    for &i in &layers {
                        for j in 0..nyi {
                            for k in 0..nzi {
                                grab(1, i, j, k, f.ey.get(i, j, k));
                                grab(2, i, j, k, f.ez.get(i, j, k));
                            }
                        }
                    }
                }
            }
            for (cond, layers) in
                [(flags.at_lo[1], [0, 1]), (flags.at_hi[1], [nyi - 1, nyi - 2])]
            {
                if cond {
                    for &j in &layers {
                        for i in 0..nxi {
                            for k in 0..nzi {
                                grab(0, i, j, k, f.ex.get(i, j, k));
                                grab(2, i, j, k, f.ez.get(i, j, k));
                            }
                        }
                    }
                }
            }
            for (cond, layers) in
                [(flags.at_lo[2], [0, 1]), (flags.at_hi[2], [nzi - 1, nzi - 2])]
            {
                if cond {
                    for &k in &layers {
                        for i in 0..nxi {
                            for j in 0..nyi {
                                grab(0, i, j, k, f.ex.get(i, j, k));
                                grab(1, i, j, k, f.ey.get(i, j, k));
                            }
                        }
                    }
                }
            }
            saved
        }

        fn lookup(saved: &[(isize, isize, isize, f64)], i: isize, j: isize, k: isize) -> f64 {
            saved
                .iter()
                .find(|&&(si, sj, sk, _)| si == i && sj == j && sk == k)
                .map(|&(_, _, _, v)| v)
                .expect("Mur layer was saved")
        }

        pub fn apply(f: &mut Fields, saved: &TupleSaved, flags: &BoundaryFlags, dt: f64) {
            let kc = (dt - 1.0) / (dt + 1.0);
            let (nx, ny, nz) = f.extent();
            let (nxi, nyi, nzi) = (nx as isize, ny as isize, nz as isize);
            for (cond, b, inner) in
                [(flags.at_lo[0], 0, 1), (flags.at_hi[0], nxi - 1, nxi - 2)]
            {
                if cond {
                    for j in 0..nyi {
                        for k in 0..nzi {
                            let old_b = lookup(&saved.ey, b, j, k);
                            let old_i = lookup(&saved.ey, inner, j, k);
                            let v = old_i + kc * (f.ey.get(inner, j, k) - old_b);
                            f.ey.set(b, j, k, v);
                            let old_b = lookup(&saved.ez, b, j, k);
                            let old_i = lookup(&saved.ez, inner, j, k);
                            let v = old_i + kc * (f.ez.get(inner, j, k) - old_b);
                            f.ez.set(b, j, k, v);
                        }
                    }
                }
            }
            for (cond, b, inner) in
                [(flags.at_lo[1], 0, 1), (flags.at_hi[1], nyi - 1, nyi - 2)]
            {
                if cond {
                    for i in 0..nxi {
                        for k in 0..nzi {
                            let old_b = lookup(&saved.ex, i, b, k);
                            let old_i = lookup(&saved.ex, i, inner, k);
                            let v = old_i + kc * (f.ex.get(i, inner, k) - old_b);
                            f.ex.set(i, b, k, v);
                            let old_b = lookup(&saved.ez, i, b, k);
                            let old_i = lookup(&saved.ez, i, inner, k);
                            let v = old_i + kc * (f.ez.get(i, inner, k) - old_b);
                            f.ez.set(i, b, k, v);
                        }
                    }
                }
            }
            for (cond, b, inner) in
                [(flags.at_lo[2], 0, 1), (flags.at_hi[2], nzi - 1, nzi - 2)]
            {
                if cond {
                    for i in 0..nxi {
                        for j in 0..nyi {
                            let old_b = lookup(&saved.ex, i, j, b);
                            let old_i = lookup(&saved.ex, i, j, inner);
                            let v = old_i + kc * (f.ex.get(i, j, inner) - old_b);
                            f.ex.set(i, j, b, v);
                            let old_b = lookup(&saved.ey, i, j, b);
                            let old_i = lookup(&saved.ey, i, j, inner);
                            let v = old_i + kc * (f.ey.get(i, j, inner) - old_b);
                            f.ey.set(i, j, b, v);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_mur_planes_match_the_tuple_scan_bitwise() {
        // Both forms save the same pre-update state, both apply after the
        // same update: final fields must agree to the bit. Partial flag
        // sets cover sections touching only some global faces.
        let cases = [
            (BoundaryFlags::whole(), (7, 6, 5)),
            (
                BoundaryFlags { at_lo: [true, false, true], at_hi: [false, true, false] },
                (6, 6, 6),
            ),
            (
                BoundaryFlags { at_lo: [false, false, false], at_hi: [false, false, true] },
                (4, 5, 6),
            ),
        ];
        for (flags, n) in cases {
            let m = vacuum(n);
            let mut a = Fields::zeros(n.0, n.1, n.2);
            scramble(&mut a, 1234);
            let mut b = a.clone();
            for _ in 0..4 {
                // Indexed-plane path.
                let saved = save_mur_layers(&a, &flags).expect("sections are wide enough");
                update_h(&mut a, &m);
                update_e(&mut a, &m);
                apply_mur(&mut a, &saved, &flags, 0.5);
                // Tuple-scan oracle.
                let old = tuple_form::save(&b, &flags);
                update_h(&mut b, &m);
                update_e(&mut b, &m);
                tuple_form::apply(&mut b, &old, &flags, 0.5);
            }
            assert!(a.bitwise_eq(&b), "indexed planes diverged for flags {flags:?}");
        }
    }

    #[test]
    fn thin_sections_yield_a_typed_error_not_a_panic() {
        let flags = BoundaryFlags::whole();
        let f = Fields::zeros(1, 5, 5);
        assert_eq!(
            save_mur_layers(&f, &flags).unwrap_err(),
            MurGeometryError { axis: 0, extent: 1 },
            "1-cell x section touching a Mur face is rejected"
        );
        let f = Fields::zeros(5, 5, 1);
        let err = save_mur_layers(&f, &flags).unwrap_err();
        assert_eq!(err, MurGeometryError { axis: 2, extent: 1 });
        assert!(err.to_string().contains("axis 2"), "{err}");
        // A thin axis that touches no Mur face is fine.
        let narrow = BoundaryFlags { at_lo: [true, true, false], at_hi: [true, true, false] };
        let f = Fields::zeros(5, 5, 1);
        assert!(save_mur_layers(&f, &narrow).is_ok());
        // Exactly two cells is the minimum and succeeds.
        let f = Fields::zeros(2, 2, 2);
        assert!(save_mur_layers(&f, &flags).is_ok());
    }

    #[test]
    fn updates_are_deterministic() {
        let n = (6, 5, 4);
        let m = vacuum(n);
        let mut a = Fields::zeros(n.0, n.1, n.2);
        a.ey.set(2, 2, 2, 0.125);
        let mut b = a.clone();
        for _ in 0..10 {
            update_h(&mut a, &m);
            update_e(&mut a, &m);
            update_h(&mut b, &m);
            update_e(&mut b, &m);
        }
        assert!(a.bitwise_eq(&b));
    }
}
