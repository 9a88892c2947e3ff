//! The archetype form of Versions A and C: local state + mesh-archetype
//! plans, produced by following the §4.4 transformation guidelines.
//!
//! The §4.4 steps map onto this module as follows:
//!
//! 1. *identify distributed vs duplicated variables* — the six field
//!    components and the material coefficients are distributed (one local
//!    section each), the step counter and far-field results are duplicated;
//! 2. *partition the data* — `init_*` builds each rank's local section from
//!    its [`Env::block`];
//! 3. *fit the archetype pattern* — each time step is local computation
//!    (H update; E update + source + boundary condition) alternating with
//!    two boundary exchanges, each carrying exactly the ghost faces the
//!    next update reads ([`HaloFaces::YEE`]): the three E components into
//!    their transverse high-side ghosts before the H update, the three H
//!    components into their transverse low-side ghosts before the E update;
//! 4. *boundary-specific computation* — ranks touching the global boundary
//!    apply the outer boundary condition (their [`BoundaryFlags`]);
//! 5. *insert archetype communication calls* — the `exchange`, `reduce` and
//!    `ordered_reduce` phases.

use std::sync::Arc;

use mesh_archetype::driver::MeshLocal;
use mesh_archetype::plan::InitFn;
use mesh_archetype::reduce::ReduceOp;
use mesh_archetype::{Env, ExchangeSpec, Plan};
use meshgrid::halo::Face3::{XHi, XLo, YHi, YLo, ZHi, ZLo};
use meshgrid::{Block3, FaceSet3, Grid3, ProcGrid3};
use ssp_runtime::proc::{push_f64s, push_u32, push_u64, Reader};
use ssp_runtime::RunError;

use crate::farfield::{FarFieldAccumulator, FarFieldSpec, FarFieldStrategy};
use crate::fields::Fields;
use crate::material::Material;
use crate::params::{BoundaryCondition, Params};
use crate::update::{
    apply_bc, boundary_cells, in_shell, interior_cells, save_mur_layers, update_e,
    update_e_boundary, update_e_interior, update_h, update_h_boundary, update_h_interior,
    BoundaryFlags, MurGeometryError, MurSaved, E_SHELL, FLOPS_PER_CELL_E, FLOPS_PER_CELL_H,
    H_SHELL,
};

/// Per-rank state of the archetype Version A.
///
/// `Clone` makes the compiled message-passing program checkpointable by
/// the crash-recovery supervisor ([`ssp_runtime::run_recovering`]).
#[derive(Clone)]
pub struct LocalA {
    /// The rank's local field section.
    pub fields: Fields,
    material: Material,
    params: Arc<Params>,
    flags: BoundaryFlags,
    /// Local coordinates of the source cell, if this rank owns it.
    source_local: Option<(isize, isize, isize)>,
    /// Duplicated step counter (advanced identically on every rank).
    step: usize,
    /// In a fused box: the first of its ranks' sections too thin for the
    /// Mur boundary it touches, which the per-rank program faults on.
    thin: Option<MurGeometryError>,
}

impl LocalA {
    /// The state at step 0 of the section `env.block`: a rank's, or a
    /// fused box's (which reads nothing of `env` but the block and the
    /// process grid).
    fn new(params: &Arc<Params>, env: &Env) -> LocalA {
        let (nx, ny, nz) = env.block.extent();
        LocalA {
            fields: Fields::zeros(nx, ny, nz),
            material: Material::build(&params.material, env.block, params.dt),
            flags: boundary_flags(env),
            source_local: source_local(env, params),
            params: params.clone(),
            step: 0,
            thin: thin_section(params, env),
        }
    }

    /// The snapshot (six interiors, then the step counter) in a buffer with
    /// room for `tail` more bytes.
    fn snapshot_with_tail(&self, tail: usize) -> Vec<u8> {
        let mut buf = self.fields.snapshot_with_tail(8 + tail);
        buf.extend_from_slice(&(self.step as u64).to_le_bytes());
        buf
    }
}

impl MeshLocal for LocalA {
    fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_with_tail(0)
    }

    /// Six sub-grids and the replicated step counter; the rest is what the
    /// rank's own section is built with.
    fn cut(&self, whole: &Env, member: &Env) -> Option<Self> {
        let fields = self.fields.sub_fields(&member.block.within(&whole.block));
        Some(LocalA { fields, step: self.step, ..LocalA::new(&self.params, member) })
    }
}

impl mesh_archetype::driver::MeshLocalCodec for LocalA {
    /// Full dynamic state: the step counter and all six field grids *with
    /// ghost cells* — a consistent cut can land mid-exchange, when received
    /// ghost slabs are live state the next update reads. Material, params,
    /// boundary flags, and the source position are static per rank and come
    /// from the decode template. (`MurSaved` boundary planes are rebuilt
    /// inside each E-step and never live across an effect boundary, so they
    /// are not state here.)
    fn encode_local(&self) -> Vec<u8> {
        let grids =
            [&self.fields.ex, &self.fields.ey, &self.fields.ez, &self.fields.hx, &self.fields.hy, &self.fields.hz];
        let cells: usize = grids.iter().map(|g| g.raw().len()).sum();
        let mut out = Vec::with_capacity(8 + 4 + cells * 8);
        push_u64(&mut out, self.step as u64);
        push_u32(&mut out, cells as u32);
        for g in grids {
            push_f64s(&mut out, g.raw());
        }
        out
    }

    fn decode_local(template: &Self, r: &mut Reader<'_>) -> Result<Self, RunError> {
        let mut local = LocalA { step: r.u64("fdtd step")? as usize, ..template.clone() };
        let cells = r.u32("fdtd cell count")? as usize;
        let f = &mut local.fields;
        let grids = [&mut f.ex, &mut f.ey, &mut f.ez, &mut f.hx, &mut f.hy, &mut f.hz];
        let expected: usize = grids.iter().map(|g| g.raw().len()).sum();
        if cells != expected {
            return Err(r.error(format_args!(
                "fdtd local state carries {cells} cells, this rank's section holds {expected}"
            )));
        }
        for g in grids {
            r.f64s_into(g.raw_mut(), "fdtd field cell")?;
        }
        Ok(local)
    }
}

fn boundary_flags(env: &Env) -> BoundaryFlags {
    // Axes are the literals 0..3, so the out-of-range error is unreachable;
    // the expect documents that rather than discarding the Result.
    let flag = |r: Result<bool, mesh_archetype::AxisOutOfRange>| {
        r.expect("axes 0, 1, 2 are always in range")
    };
    BoundaryFlags {
        at_lo: [
            flag(env.at_global_lo(0)),
            flag(env.at_global_lo(1)),
            flag(env.at_global_lo(2)),
        ],
        at_hi: [
            flag(env.at_global_hi(0)),
            flag(env.at_global_hi(1)),
            flag(env.at_global_hi(2)),
        ],
    }
}

fn source_local(env: &Env, p: &Params) -> Option<(isize, isize, isize)> {
    let (si, sj, sk) = p.source.pos;
    if env.block.contains(si, sj, sk) {
        let l = env.block.to_local(si, sj, sk);
        Some((l.0 as isize, l.1 as isize, l.2 as isize))
    } else {
        None
    }
}

/// Initializer for Version A local state.
pub fn init_a(params: Arc<Params>) -> InitFn<LocalA> {
    Arc::new(move |env: &Env| LocalA::new(&params, env))
}

/// The first of the ranks' sections inside a fused box `env.block` that is
/// too thin for a Mur face it touches. A rank's own section needs no such
/// look-ahead: [`save_mur_layers`] checks it.
fn thin_section(params: &Params, env: &Env) -> Option<MurGeometryError> {
    let pg = env.pg;
    if params.bc != BoundaryCondition::Mur1 || env.is_host() || env.block == pg.block(env.rank) {
        return None;
    }
    // The box is a union of whole sections: those starting inside it.
    let inside = |e: &Env| env.block.contains(e.block.lo.0, e.block.lo.1, e.block.lo.2);
    let mut ranks = (0..pg.nprocs()).map(|r| Env::new(pg, r)).filter(inside);
    ranks.find_map(|e| mur_section(&e).err())
}

/// A section touching a global boundary on an axis must span two cells
/// there to carry a Mur condition.
fn mur_section(env: &Env) -> Result<(), MurGeometryError> {
    let flags = boundary_flags(env);
    let (nx, ny, nz) = env.block.extent();
    for (axis, extent) in [(0, nx), (1, ny), (2, nz)] {
        if (flags.at_lo[axis] || flags.at_hi[axis]) && extent < 2 {
            return Err(MurGeometryError { axis, extent });
        }
    }
    Ok(())
}

/// Surface a geometry error as the runtime's typed fault for this rank.
fn geometry_fault(env: &Env, e: MurGeometryError) -> RunError {
    RunError::Protocol { proc: env.rank, detail: e.to_string() }
}

/// Add the soft source into `Ez` at the rank-local source cell.
fn add_source(fields: &mut Fields, params: &Params, pos: (isize, isize, isize), step: usize) {
    let (si, sj, sk) = pos;
    let v = fields.ez.get(si, sj, sk) + params.source.value(step, params.dt);
    fields.ez.set(si, sj, sk, v);
}

/// One rank's E-side update: Mur layer save, E update, soft source,
/// boundary condition, step advance. Shared by Versions A and C.
fn e_side_step(
    fields: &mut Fields,
    material: &Material,
    params: &Params,
    flags: &BoundaryFlags,
    source_local: Option<(isize, isize, isize)>,
    step: &mut usize,
) -> Result<(), MurGeometryError> {
    let saved = match params.bc {
        BoundaryCondition::Mur1 => save_mur_layers(fields, flags)?,
        BoundaryCondition::Pec => MurSaved::default(),
    };
    update_e(fields, material);
    if let Some(pos) = source_local {
        add_source(fields, params, pos, *step);
    }
    apply_bc(fields, params.bc, flags, &saved, params.dt);
    *step += 1;
    Ok(())
}

/// The boundary half of a split E update: Mur layer save (the saved shell
/// layers and the inner layers Mur reads back are all within the
/// [`E_SHELL`]-deep shell), boundary-shell E update, soft source if the
/// source cell sits in the shell, boundary condition. Everything the E
/// halo sends will carry is final after this.
fn e_boundary_step(
    fields: &mut Fields,
    material: &Material,
    params: &Params,
    flags: &BoundaryFlags,
    source_local: Option<(isize, isize, isize)>,
    step: usize,
) -> Result<(), MurGeometryError> {
    let saved = match params.bc {
        BoundaryCondition::Mur1 => save_mur_layers(fields, flags)?,
        BoundaryCondition::Pec => MurSaved::default(),
    };
    update_e_boundary(fields, material);
    if let Some(pos) = source_local {
        if in_shell(fields.extent(), E_SHELL, pos) {
            add_source(fields, params, pos, step);
        }
    }
    apply_bc(fields, params.bc, flags, &saved, params.dt);
    Ok(())
}

/// The interior half of a split E update, overlapping the in-flight E
/// sends: interior-core E update, soft source if the source cell sits in
/// the core, step advance. Disjoint from every cell the boundary half
/// wrote or the halo sends read, so boundary+interior is bitwise the
/// unsplit [`e_side_step`].
fn e_interior_step(
    fields: &mut Fields,
    material: &Material,
    params: &Params,
    source_local: Option<(isize, isize, isize)>,
    step: &mut usize,
) {
    update_e_interior(fields, material);
    if let Some(pos) = source_local {
        if !in_shell(fields.extent(), E_SHELL, pos) {
            add_source(fields, params, pos, *step);
        }
    }
    *step += 1;
}

/// Which ghost faces of each field component a time step's two exchanges
/// refresh, components in `x, y, z` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloFaces {
    /// Ghost faces of `ex, ey, ez` refreshed before the H update.
    pub e: [FaceSet3; 3],
    /// Ghost faces of `hx, hy, hz` refreshed before the E update.
    pub h: [FaceSet3; 3],
}

impl HaloFaces {
    /// What the Yee kernels read, from the differencing convention of
    /// [`crate::update`]: `update_h` differences E *forward* along the two
    /// axes transverse to each component (`hx` reads `ez[j+1]`, `ey[k+1]`,
    /// …), so each E component needs its two transverse high-side ghosts;
    /// `update_e` differences H *backward*, so each H component needs its
    /// two transverse low-side ghosts. Nothing else reads a ghost cell.
    pub const YEE: HaloFaces = HaloFaces {
        e: [
            FaceSet3::of(&[YHi, ZHi]),
            FaceSet3::of(&[XHi, ZHi]),
            FaceSet3::of(&[XHi, YHi]),
        ],
        h: [
            FaceSet3::of(&[YLo, ZLo]),
            FaceSet3::of(&[XLo, ZLo]),
            FaceSet3::of(&[XLo, YLo]),
        ],
    };
}

/// Selects one field component.
type Component = fn(&mut Fields) -> &mut Grid3<f64>;
const E_COMPONENTS: [Component; 3] = [|f| &mut f.ex, |f| &mut f.ey, |f| &mut f.ez];
const H_COMPONENTS: [Component; 3] = [|f| &mut f.hx, |f| &mut f.hy, |f| &mut f.hz];

/// One exchange of three field components, each refreshing its own ghost
/// faces: one message per link (E toward the −axis neighbour, H toward the
/// +axis one, under [`HaloFaces::YEE`]).
fn halo<L: 'static>(
    name: &str,
    fields_of: impl Fn(&mut L) -> &mut Fields + Send + Sync + Copy + 'static,
    components: [Component; 3],
    ghosts: [FaceSet3; 3],
) -> ExchangeSpec<L> {
    components.into_iter().zip(ghosts).fold(ExchangeSpec::new(name), |spec, (c, g)| {
        spec.part(move |l| c(fields_of(l)), g)
    })
}

impl HaloFaces {
    /// True if every face the Yee kernels read ([`HaloFaces::YEE`]) is
    /// refreshed: then the updates read only cells the exchanges keep
    /// current, and they are cellwise.
    fn covers_yee(&self) -> bool {
        let need = HaloFaces::YEE.e.iter().chain(&HaloFaces::YEE.h);
        let got = self.e.iter().chain(&self.h);
        need.zip(got).all(|(need, got)| need.iter().all(|f| got.contains(f)))
    }
}

/// Append one time step's phases (two exchanges and two local updates)
/// shared by Versions A and C. Each update writes a cell from the other
/// field's values at that cell and its neighbours, and the boundary
/// condition acts per global face, so both are cellwise
/// ([`mesh_archetype::PlanBuilder::cellwise`]) whenever the exchanges carry
/// every face the kernels read.
fn time_step_phases<L: 'static>(
    b: mesh_archetype::PlanBuilder<L>,
    fields_of: impl Fn(&mut L) -> &mut Fields + Send + Sync + Copy + 'static,
    faces: &HaloFaces,
    step_e: impl Fn(&Env, &mut L) -> Result<(), RunError> + Send + Sync + 'static,
    step_h: impl Fn(&Env, &mut L) + Send + Sync + 'static,
) -> mesh_archetype::PlanBuilder<L> {
    let cellwise =
        |b: mesh_archetype::PlanBuilder<L>| if faces.covers_yee() { b.cellwise() } else { b };
    let b = b
        .exchange_parts(halo("x:e", fields_of, E_COMPONENTS, faces.e))
        .local_with_flops("update-h", step_h, |env, _| FLOPS_PER_CELL_H * env.block.len() as u64);
    let b = cellwise(b)
        .exchange_parts(halo("x:h", fields_of, H_COMPONENTS, faces.h))
        .local_fallible_with_flops("update-e", step_e, |env, _| {
            FLOPS_PER_CELL_E * env.block.len() as u64
        });
    cellwise(b)
}

/// The archetype plan for Version A (near field only).
pub fn plan_a(params: &Params) -> Plan<LocalA> {
    plan_a_with_halo(params, &HaloFaces::YEE)
}

/// [`plan_a`] exchanging the ghost faces `faces` instead of
/// [`HaloFaces::YEE`] — the seam the sufficiency tests use to show that
/// dropping any face the kernels read changes the result.
pub fn plan_a_with_halo(params: &Params, faces: &HaloFaces) -> Plan<LocalA> {
    Plan::builder()
        .loop_n(params.steps, |b| {
            time_step_phases(
                b,
                |l: &mut LocalA| &mut l.fields,
                faces,
                |env, l: &mut LocalA| {
                    if let Some(e) = l.thin {
                        return Err(geometry_fault(env, e));
                    }
                    // Disjoint field borrows: no per-step Arc/flags clones.
                    e_side_step(
                        &mut l.fields,
                        &l.material,
                        &l.params,
                        &l.flags,
                        l.source_local,
                        &mut l.step,
                    )
                    .map_err(|e| geometry_fault(env, e))
                },
                |_, l: &mut LocalA| update_h(&mut l.fields, &l.material),
            )
        })
        .build()
}

/// The overlapped archetype plan for Version A: each half-step splits into
/// boundary-compute → post halo sends → interior-compute → receive ghosts,
/// so the interior update runs while the halos are in flight (DESIGN.md
/// §14). A prologue exchange of the (all-zero) E ghosts rotates the loop:
/// each iteration then receives the previous E update's halos only after
/// its own H boundary work has been posted.
///
/// Bitwise identical to [`plan_a`] on every backend: the boundary/interior
/// split performs the same per-cell arithmetic (cells within a pass are
/// independent), the boundary half finalizes every cell the sends carry
/// (E_SHELL = 2 covers the layers Mur reads and writes), and the soft
/// source fires in whichever half owns its cell.
///
/// Each split posts one message per channel, and E and H travel on
/// opposite channels of a link (E toward −axis, H toward +axis), so the
/// plan runs at every channel slack down to 1.
pub fn plan_a_overlap(params: &Params) -> Plan<LocalA> {
    fn fields_of(l: &mut LocalA) -> &mut Fields {
        &mut l.fields
    }
    let e_halo = halo("x:e", fields_of, E_COMPONENTS, HaloFaces::YEE.e);
    let h_halo = halo("x:h", fields_of, H_COMPONENTS, HaloFaces::YEE.h);
    let h_boundary_flops = |env: &Env, _: &LocalA| {
        FLOPS_PER_CELL_H * boundary_cells(env.block.extent(), H_SHELL)
    };
    let h_interior_flops = |env: &Env, _: &LocalA| {
        FLOPS_PER_CELL_H * interior_cells(env.block.extent(), H_SHELL)
    };
    let e_boundary_flops = |env: &Env, _: &LocalA| {
        FLOPS_PER_CELL_E * boundary_cells(env.block.extent(), E_SHELL)
    };
    let e_interior_flops = |env: &Env, _: &LocalA| {
        FLOPS_PER_CELL_E * interior_cells(env.block.extent(), E_SHELL)
    };
    Plan::builder()
        .exchange_send(e_halo.clone())
        .exchange_recv(e_halo.clone())
        .loop_n(params.steps, |b| {
            b.local_with_flops(
                "update-h-boundary",
                |_, l: &mut LocalA| update_h_boundary(&mut l.fields, &l.material),
                h_boundary_flops,
            )
            .exchange_send(h_halo.clone())
            .local_with_flops(
                "update-h-interior",
                |_, l: &mut LocalA| update_h_interior(&mut l.fields, &l.material),
                h_interior_flops,
            )
            .exchange_recv(h_halo)
            .local_fallible_with_flops(
                "update-e-boundary",
                |env, l: &mut LocalA| {
                    e_boundary_step(
                        &mut l.fields,
                        &l.material,
                        &l.params,
                        &l.flags,
                        l.source_local,
                        l.step,
                    )
                    .map_err(|e| geometry_fault(env, e))
                },
                e_boundary_flops,
            )
            .exchange_send(e_halo.clone())
            .local_with_flops(
                "update-e-interior",
                |_, l: &mut LocalA| {
                    e_interior_step(
                        &mut l.fields,
                        &l.material,
                        &l.params,
                        l.source_local,
                        &mut l.step,
                    )
                },
                e_interior_flops,
            )
            .exchange_recv(e_halo)
        })
        .build()
}

/// Reject a partition whose sections are too thin to carry the configured
/// boundary condition, *before* building or running a plan — the
/// plan-build-time counterpart of the typed fault the running plans raise.
pub fn validate_partition(params: &Params, pg: &ProcGrid3) -> Result<(), MurGeometryError> {
    if !matches!(params.bc, BoundaryCondition::Mur1) {
        return Ok(());
    }
    (0..pg.nprocs()).try_for_each(|r| mur_section(&Env::new(*pg, r)))
}

/// Per-rank state of the archetype Version C.
pub struct LocalC {
    /// The near-field state.
    pub a: LocalA,
    /// The far-field accumulator over this rank's surface points.
    pub acc: FarFieldAccumulator,
    /// Duplicated result: the reduced far-field potentials.
    pub potentials: Vec<f64>,
}

impl MeshLocal for LocalC {
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = self.a.snapshot_with_tail(8 + 8 * self.potentials.len());
        buf.extend_from_slice(&(self.potentials.len() as u64).to_le_bytes());
        for v in &self.potentials {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf
    }
}

/// Initializer for Version C local state.
pub fn init_c(
    params: Arc<Params>,
    spec: FarFieldSpec,
    strategy: FarFieldStrategy,
) -> InitFn<LocalC> {
    let base = init_a(params.clone());
    Arc::new(move |env: &Env| {
        let ordered = matches!(strategy, FarFieldStrategy::Ordered(_));
        LocalC {
            a: base(env),
            acc: FarFieldAccumulator::new(
                &spec,
                params.n,
                env.block,
                params.steps,
                params.dt,
                ordered,
            ),
            potentials: Vec::new(),
        }
    })
}

/// The archetype plan for Version C (near + far field) under the chosen
/// far-field combination strategy.
pub fn plan_c(params: &Params, spec: &FarFieldSpec, strategy: FarFieldStrategy) -> Plan<LocalC> {
    // Bin layout must be known when building the final reduction phase.
    let probe = FarFieldAccumulator::new(
        spec,
        params.n,
        Block3 { lo: (0, 0, 0), hi: params.n },
        params.steps,
        params.dt,
        false,
    );
    let flat_len = probe.flat_len();

    let b = Plan::builder().loop_n(params.steps, |b| {
        time_step_phases(
            b,
            |l: &mut LocalC| &mut l.a.fields,
            &HaloFaces::YEE,
            |env, l: &mut LocalC| {
                e_side_step(
                    &mut l.a.fields,
                    &l.a.material,
                    &l.a.params,
                    &l.a.flags,
                    l.a.source_local,
                    &mut l.a.step,
                )
                .map_err(|e| geometry_fault(env, e))
            },
            |_, l: &mut LocalC| update_h(&mut l.a.fields, &l.a.material),
        )
        .local_with_flops(
            "farfield-accumulate",
            |_, l: &mut LocalC| l.acc.accumulate(&l.a.fields),
            |_, l| l.acc.flops_per_step(),
        )
    });

    match strategy {
        FarFieldStrategy::NaiveReorder(algo) => b
            .reduce(
                "farfield-reduce",
                ReduceOp::Sum,
                algo,
                |_, l: &LocalC| l.acc.flat_bins(),
                |_, l, v| l.potentials = v.to_vec(),
            )
            .build(),
        FarFieldStrategy::Ordered(method) => b
            .ordered_reduce(
                "farfield-ordered",
                flat_len,
                method,
                |_, l: &LocalC| l.acc.log.clone(),
                |_, l, v| l.potentials = v.to_vec(),
            )
            .build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_archetype::driver::{run_simpar, SimParConfig};
    use meshgrid::ProcGrid3;

    #[test]
    fn plan_a_runs_under_simpar() {
        let params = Arc::new(Params::tiny());
        let plan = plan_a(&params);
        let pg = ProcGrid3::choose(params.n, 4);
        let init = init_a(params.clone());
        let out = run_simpar(&plan, pg, SimParConfig::default(), |e| init(e));
        for l in &out.locals {
            assert_eq!(l.step, params.steps);
            assert!(l.fields.energy().is_finite());
        }
    }

    #[test]
    fn plan_a_overlap_matches_plan_a_bitwise_under_simpar() {
        let params = Arc::new(Params::tiny());
        let pg = ProcGrid3::choose(params.n, 4);
        let init = init_a(params.clone());
        let base = run_simpar(&plan_a(&params), pg, SimParConfig::default(), |e| init(e));
        let over = run_simpar(&plan_a_overlap(&params), pg, SimParConfig::default(), |e| init(e));
        for (a, b) in base.locals.iter().zip(&over.locals) {
            assert_eq!(a.step, b.step);
            assert!(a.fields.bitwise_eq(&b.fields), "overlap reordering changed a bit");
        }
    }

    #[test]
    fn overlap_plan_structure_is_the_rotated_split() {
        let params = Params::tiny();
        let plan = plan_a_overlap(&params);
        // Two prologue half-exchanges + one loop of 4 half-exchanges and
        // 4 local updates.
        assert_eq!(plan.phases.len(), 3);
        assert_eq!(plan.phase_count(), 3 + 8);
        assert_eq!(plan.comm_phase_count(), 6);
    }

    #[test]
    fn validate_partition_rejects_thin_mur_sections() {
        let mut params = Params::tiny();
        params.bc = BoundaryCondition::Mur1;
        // One rank per x-layer: sections 1 cell wide touching Mur faces.
        let thin = ProcGrid3::new(params.n, (params.n.0, 1, 1));
        let err = validate_partition(&params, &thin).unwrap_err();
        assert_eq!(err, MurGeometryError { axis: 0, extent: 1 });
        // A coarser partition is fine, and PEC never cares.
        let ok = ProcGrid3::choose(params.n, 2);
        assert!(validate_partition(&params, &ok).is_ok());
        params.bc = BoundaryCondition::Pec;
        assert!(validate_partition(&params, &thin).is_ok());
    }

    #[test]
    fn plan_structure_matches_the_archetype_shape() {
        let params = Params::tiny();
        let plan = plan_a(&params);
        // One top-level loop containing 2 exchanges + 2 local updates.
        assert_eq!(plan.phases.len(), 1);
        assert_eq!(plan.phase_count(), 1 + 4);
        assert_eq!(plan.comm_phase_count(), 2);

        let planc = plan_c(
            &params,
            &FarFieldSpec::standard(2),
            FarFieldStrategy::NaiveReorder(mesh_archetype::ReduceAlgo::AllToOne),
        );
        assert_eq!(planc.comm_phase_count(), 3, "two exchanges + one reduction");
    }
}
