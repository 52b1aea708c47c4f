//! Sequential CPU execution — the reference semantics every other target
//! must reproduce (bit-for-bit for the CPU targets, to rounding for the
//! reduction- and GPU-based ones; see `exec`'s module docs).
//!
//! The step structure is the one sketched in §II-B of the paper:
//!
//! ```text
//! for step = 1:Nsteps
//!   (pre-step callbacks)
//!   compute boundary ghosts via user callbacks        } intensity phase
//!   for cell, for index...:                           }
//!     source = s(u); flux = Σ_f A_f f(u, u_nbr)       }
//!     u_new = u + dt*(source − flux/V)                }
//!   (post-step callbacks: temperature update)         } temperature phase
//!   u = u_new; time += dt
//! ```
//!
//! This module also exports the building blocks (`compute_ghosts`,
//! `compute_rhs_into`, `apply_post_steps`) the parallel, distributed, and
//! GPU targets compose.

use super::rows::{self, FluxBoundary, IntensityKernels};
use super::{phases, BoundaryFace, CompiledProblem, SolveReport, WorkCounters};
use crate::bytecode::VmCtx;
use crate::entities::Fields;
use crate::problem::{DslError, FaceQuery, KernelTier, Reducer, StepContext, TimeStepper};
use pbte_runtime::telemetry::{Recorder, SpanKind, Track};
use std::time::Instant;

/// Which (cell, flat) pairs a worker owns.
pub(crate) struct Scope<'a> {
    /// Owned cells (global ids).
    pub cells: &'a [usize],
    /// Owned flattened index values.
    pub flats: &'a [usize],
}

/// Number of boundary faces whose condition is a user callback. One ghost
/// evaluation happens per (callback face, flat) pair, so every target's
/// `ghost_evals` accounting is `callback_face_count(cp) * flats`. The
/// count comes from the compile-time callback catalog — the same source
/// the static analyzer uses for its declared access sets.
pub(crate) fn callback_face_count(cp: &CompiledProblem) -> usize {
    cp.catalog.callback_faces
}

/// The [`FaceQuery`] of one boundary face over `flats`.
pub(crate) fn face_query<'a>(
    cp: &'a CompiledProblem,
    bf: &BoundaryFace,
    flats: &'a [usize],
    time: f64,
    fields: &'a Fields,
) -> FaceQuery<'a> {
    let face = &cp.mesh().faces[bf.face];
    FaceQuery {
        position: face.centroid,
        normal: face.normal,
        owner_cell: face.owner,
        flats,
        idx_of_flat: &cp.idx_of_flat,
        time,
        fields,
    }
}

/// Evaluate boundary callbacks for every owned flat on every boundary face.
/// Each face fills its contiguous ghost column `ghosts[slot * n_flat..]`
/// at the owned flats (one `fill_face` call per face).
pub(crate) fn compute_ghosts(
    cp: &CompiledProblem,
    fields: &Fields,
    flats: &[usize],
    time: f64,
    ghosts: &mut [f64],
    work: &mut WorkCounters,
) {
    for (bf, column) in cp.boundary.iter().zip(ghosts.chunks_exact_mut(cp.n_flat)) {
        bf.bc
            .fill_face(&face_query(cp, bf, flats, time, fields), column);
    }
    work.ghost_evals += (callback_face_count(cp) * flats.len()) as u64;
}

/// Run one ghost fill under a host `boundary_ghosts` `Phase` span; every
/// explicit-path fill (seq, dist, par and the GPU pre-step) goes through
/// here.
pub(crate) fn traced_ghosts(rec: &mut Recorder, step: usize, fill: impl FnOnce(&mut WorkCounters)) {
    let g0 = rec.now();
    fill(&mut rec.work);
    if rec.enabled() {
        let dur = rec.now() - g0;
        rec.span(
            SpanKind::Phase,
            "boundary_ghosts",
            g0,
            dur,
            Track::Host,
            vec![("step", step.to_string())],
        );
    }
}

/// Face-flux sum for one (cell, flat) pair: the hoisted-coefficient fast
/// path when the generator linearized the flux, the VM otherwise.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn flux_sum_dof(
    cp: &CompiledProblem,
    vars: &[&[f64]],
    n_cells: usize,
    ghosts: &[f64],
    cell: usize,
    flat: usize,
    dt: f64,
    time: f64,
    u_here: f64,
) -> f64 {
    let mesh = cp.mesh();
    let unknown = cp.system.unknown;
    let mut flux_sum = 0.0;
    if let Some(lin) = &cp.flux_lin {
        // Compact structure-of-arrays hot loop over the cell's faces.
        let hot = &cp.hot;
        let u_row = &vars[unknown][flat * n_cells..(flat + 1) * n_cells];
        let start = hot.offsets[cell] as usize;
        let end = hot.offsets[cell + 1] as usize;
        for k in start..end {
            let nb = hot.nbr[k];
            let u2 = if nb >= 0 {
                u_row[nb as usize]
            } else {
                ghosts[(-(nb + 1)) as usize * cp.n_flat + flat]
            };
            flux_sum += hot.area[k] * lin.eval(flat, hot.class[k], u_here, u2);
        }
    } else {
        let mut vm = VmCtx {
            vars,
            n_cells,
            coefficients: &cp.problem.registry.coefficients,
            idx: &cp.idx_of_flat[flat],
            cell,
            u1: u_here,
            u2: 0.0,
            normal: [0.0; 3],
            position: mesh.cell_centroids[cell],
            dt,
            time,
        };
        for &fid in mesh.cell_faces(cell) {
            let face = &mesh.faces[fid];
            let u2 = match face.other_cell(cell) {
                Some(nb) => vars[unknown][flat * n_cells + nb],
                None => ghosts[cp.bface_slot[fid] * cp.n_flat + flat],
            };
            let n = face.normal_from(cell);
            vm.u2 = u2;
            vm.normal = [n.x, n.y, n.z];
            vm.position = face.centroid;
            flux_sum += face.area * cp.flux.eval(&vm);
        }
    }
    flux_sum
}

/// Evaluate the discrete right-hand side `s(u) − (1/V)Σ_f A_f f(u)` for one
/// (cell, flat) pair, with a pre-bound volume program.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_rhs_dof_bound(
    cp: &CompiledProblem,
    vars: &[&[f64]],
    n_cells: usize,
    ghosts: &[f64],
    cell: usize,
    flat: usize,
    dt: f64,
    time: f64,
    bound_volume: &crate::bytecode::BoundProgram,
) -> f64 {
    let mesh = cp.mesh();
    let source = bound_volume.eval(vars, cell, mesh.cell_centroids[cell], time);
    let u_here = vars[cp.system.unknown][flat * n_cells + cell];
    let flux = flux_sum_dof(cp, vars, n_cells, ghosts, cell, flat, dt, time, u_here);
    // Reciprocal multiply (hoisted per cell) instead of a divide in the
    // hot loop — the same strength reduction the generated code performs.
    source - flux * cp.hot.inv_volume[cell]
}

/// Same RHS through the generic stack VM (no per-flat specialization) —
/// the `KernelTier::Vm` baseline, bit-identical to the bound tier.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_rhs_dof_vm(
    cp: &CompiledProblem,
    vars: &[&[f64]],
    n_cells: usize,
    ghosts: &[f64],
    cell: usize,
    flat: usize,
    dt: f64,
    time: f64,
) -> f64 {
    let mesh = cp.mesh();
    let vm = VmCtx {
        vars,
        n_cells,
        coefficients: &cp.problem.registry.coefficients,
        idx: &cp.idx_of_flat[flat],
        cell,
        u1: 0.0,
        u2: 0.0,
        normal: [0.0; 3],
        position: mesh.cell_centroids[cell],
        dt,
        time,
    };
    let source = cp.volume.eval(&vm);
    let u_here = vars[cp.system.unknown][flat * n_cells + cell];
    let flux = flux_sum_dof(cp, vars, n_cells, ghosts, cell, flat, dt, time, u_here);
    source - flux * cp.hot.inv_volume[cell]
}

/// Compute the RHS for every (cell, flat) in scope into
/// `rhs[flat * n_cells + cell]`.
///
/// The loop nest follows the problem's `assemblyLoops` configuration
/// (paper §III-C): an index name first puts the flattened index dimension
/// outermost; the default (`cells` first) walks cells outermost. Results
/// are identical either way — each dof is independent within a step —
/// only the memory traversal changes, which is exactly the knob the paper
/// exposes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_rhs_into(
    cp: &CompiledProblem,
    fields: &Fields,
    scope: &Scope,
    ghosts: &[f64],
    time: f64,
    rhs: &mut [f64],
    work: &mut WorkCounters,
    kernels: &mut IntensityKernels,
) {
    let vars = fields.as_slices();
    let n_cells = fields.n_cells;
    let dt = cp.problem.dt;
    // Loop-invariant hoisting: per-flat specialized programs, cached
    // across steps when the volume program never reads `t`.
    kernels.ensure(cp, n_cells, time);
    // Exact per-scope face count (summed once, not sampled from cells[0]).
    let faces_in_scope = kernels.faces_for_cells(&cp.hot, scope.cells);

    match kernels.tier {
        KernelTier::Row => {
            // The fused tier is row-major by construction: each flat's
            // contiguous cell spans are one batched kernel call each.
            let centroids = &cp.mesh().cell_centroids;
            let mut regs = kernels.scratch();
            for (k, &flat) in scope.flats.iter().enumerate() {
                let reg = kernels.reg(k);
                for (start, len) in rows::spans(scope.cells) {
                    let at = flat * n_cells + start;
                    rows::rhs_span(
                        reg,
                        cp,
                        &vars,
                        n_cells,
                        flat,
                        FluxBoundary::Ghosts(ghosts),
                        start,
                        &mut rhs[at..at + len],
                        centroids,
                        time,
                        None,
                        &mut regs,
                    );
                }
            }
        }
        KernelTier::Bound => {
            let cells_outer = matches!(
                cp.problem.effective_loop_order(cp.system.unknown).first(),
                Some(crate::problem::LoopDim::Cells)
            );
            if cells_outer {
                for &cell in scope.cells {
                    for (k, &flat) in scope.flats.iter().enumerate() {
                        rhs[flat * n_cells + cell] = eval_rhs_dof_bound(
                            cp,
                            &vars,
                            n_cells,
                            ghosts,
                            cell,
                            flat,
                            dt,
                            time,
                            kernels.bound(k),
                        );
                    }
                }
            } else {
                for (k, &flat) in scope.flats.iter().enumerate() {
                    for &cell in scope.cells {
                        rhs[flat * n_cells + cell] = eval_rhs_dof_bound(
                            cp,
                            &vars,
                            n_cells,
                            ghosts,
                            cell,
                            flat,
                            dt,
                            time,
                            kernels.bound(k),
                        );
                    }
                }
            }
        }
        KernelTier::Vm => {
            for &flat in scope.flats {
                for &cell in scope.cells {
                    rhs[flat * n_cells + cell] =
                        eval_rhs_dof_vm(cp, &vars, n_cells, ghosts, cell, flat, dt, time);
                }
            }
        }
        KernelTier::Native => {
            // AOT-compiled span kernels: same row-major span structure as
            // the Row tier, dispatched into the loaded plan library.
            let lib = kernels.native();
            for &flat in scope.flats {
                for (start, len) in rows::spans(scope.cells) {
                    let at = flat * n_cells + start;
                    rows::rhs_span_native(
                        lib,
                        cp,
                        &vars,
                        flat,
                        FluxBoundary::Ghosts(ghosts),
                        start,
                        &mut rhs[at..at + len],
                        None,
                    );
                }
            }
        }
    }
    work.dof_updates += (scope.flats.len() * scope.cells.len()) as u64;
    work.flux_evals += scope.flats.len() as u64 * faces_in_scope;
}

/// [`compute_rhs_into`] wrapped in a `Kernel` telemetry span with tier
/// attribution, so traces show which tier actually ran (the resolved tier
/// may differ from the requested one after clamping or native fallback).
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_rhs_traced(
    cp: &CompiledProblem,
    fields: &Fields,
    scope: &Scope,
    ghosts: &[f64],
    time: f64,
    rhs: &mut [f64],
    step: usize,
    rec: &mut Recorder,
    kernels: &mut IntensityKernels,
) {
    let k0 = rec.now();
    compute_rhs_into(cp, fields, scope, ghosts, time, rhs, &mut rec.work, kernels);
    if rec.enabled() {
        let dur = rec.now() - k0;
        rec.span(
            SpanKind::Kernel,
            "intensity_rhs",
            k0,
            dur,
            Track::Host,
            vec![
                ("step", step.to_string()),
                ("tier", kernels.tier.name().to_string()),
                ("dofs", (scope.flats.len() * scope.cells.len()).to_string()),
            ],
        );
    }
}

/// Apply `u += dt * rhs` (or a weighted stage combination) on a scope.
pub(crate) fn axpy_scope(
    fields: &mut Fields,
    unknown: usize,
    scope: &Scope,
    coeff: f64,
    rhs: &[f64],
) {
    let n_cells = fields.n_cells;
    let u = fields.slice_mut(unknown);
    for &flat in scope.flats {
        for &cell in scope.cells {
            u[flat * n_cells + cell] += coeff * rhs[flat * n_cells + cell];
        }
    }
}

/// Run pre- or post-step callbacks with a given reducer and ownership info.
/// `threads` is the parallelism the executor makes available to the
/// callbacks (1 = serial). Callbacks account their own work through
/// `ctx.rec` — the executor's recorder is lent to them directly, so there
/// is no merge step; each callback additionally gets a `Callback` span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_callbacks(
    cp: &CompiledProblem,
    fields: &mut Fields,
    pre: bool,
    time: f64,
    step: usize,
    owned_index_range: Option<(String, std::ops::Range<usize>)>,
    owned_cells: Option<&[usize]>,
    reducer: &mut dyn Reducer,
    threads: usize,
    rec: &mut Recorder,
) {
    let callbacks = if pre {
        &cp.problem.pre_steps
    } else {
        &cp.problem.post_steps
    };
    for cb in callbacks {
        let t0 = rec.now();
        let mut ctx = StepContext {
            fields,
            mesh: cp.mesh(),
            time,
            step,
            owned_index_range: owned_index_range.clone(),
            owned_cells,
            reducer,
            threads: threads.max(1),
            rec,
        };
        (cb.f)(&mut ctx);
        if rec.enabled() {
            let dur = rec.now() - t0;
            rec.span(
                SpanKind::Callback,
                &cb.name,
                t0,
                dur,
                Track::Host,
                vec![
                    ("step", step.to_string()),
                    ("pre", if pre { "true" } else { "false" }.to_string()),
                ],
            );
        }
    }
}

/// One full time step on a scope (shared by seq and distributed targets).
/// `links` provides the halo exchange (invoked before **every** stage — RK2
/// reads neighbor values of the intermediate state) and the reduction
/// interface callbacks use. Returns the seconds spent in
/// (intensity, temperature, communication).
///
/// Emits a `Step` span plus `Phase` spans for the intensity window
/// (communication seconds attributed in an attr, not excised from the
/// interval) and the pre/post callback windows when `rec` is buffering.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_scope(
    cp: &CompiledProblem,
    fields: &mut Fields,
    scope: &Scope,
    ghosts: &mut [f64],
    rhs: &mut [f64],
    rhs2: &mut [f64],
    time: f64,
    step: usize,
    owned_index_range: Option<(String, std::ops::Range<usize>)>,
    owned_cells_for_callbacks: Option<&[usize]>,
    links: &mut dyn super::StepLinks,
    rec: &mut Recorder,
    threads: usize,
    kernels: &mut IntensityKernels,
) -> (f64, f64, f64) {
    let dt = cp.problem.dt;
    let unknown = cp.system.unknown;

    let s0 = rec.now();
    let t0 = Instant::now();
    run_callbacks(
        cp,
        fields,
        true,
        time,
        step,
        owned_index_range.clone(),
        owned_cells_for_callbacks,
        links,
        threads,
        rec,
    );
    let mut t_temperature = t0.elapsed().as_secs_f64();

    let i0 = rec.now();
    let mut t_comm = 0.0;
    let t1 = Instant::now();
    match cp.problem.stepper {
        TimeStepper::EulerExplicit => {
            t_comm += links.halo_exchange(fields);
            traced_ghosts(rec, step, |work| {
                compute_ghosts(cp, fields, scope.flats, time, ghosts, work)
            });
            compute_rhs_traced(cp, fields, scope, ghosts, time, rhs, step, rec, kernels);
            axpy_scope(fields, unknown, scope, dt, rhs);
        }
        TimeStepper::Rk2 => {
            // Heun's method: u* = u + dt k1; u' = u + dt/2 (k1 + k2(u*)).
            t_comm += links.halo_exchange(fields);
            traced_ghosts(rec, step, |work| {
                compute_ghosts(cp, fields, scope.flats, time, ghosts, work)
            });
            compute_rhs_traced(cp, fields, scope, ghosts, time, rhs, step, rec, kernels);
            axpy_scope(fields, unknown, scope, dt, rhs);
            t_comm += links.halo_exchange(fields);
            traced_ghosts(rec, step, |work| {
                compute_ghosts(cp, fields, scope.flats, time + dt, ghosts, work)
            });
            compute_rhs_traced(
                cp,
                fields,
                scope,
                ghosts,
                time + dt,
                rhs2,
                step,
                rec,
                kernels,
            );
            // u' = u* − dt k1 + dt/2 (k1 + k2) = u* − dt/2 k1 + dt/2 k2.
            axpy_scope(fields, unknown, scope, -0.5 * dt, rhs);
            axpy_scope(fields, unknown, scope, 0.5 * dt, rhs2);
        }
    }
    let t_intensity = (t1.elapsed().as_secs_f64() - t_comm).max(0.0);

    let p0 = rec.now();
    let t2 = Instant::now();
    run_callbacks(
        cp,
        fields,
        false,
        time + dt,
        step,
        owned_index_range,
        owned_cells_for_callbacks,
        links,
        threads,
        rec,
    );
    t_temperature += t2.elapsed().as_secs_f64();

    if rec.enabled() {
        rec.span(
            SpanKind::Phase,
            phases::INTENSITY,
            i0,
            p0 - i0,
            Track::Host,
            vec![
                ("step", step.to_string()),
                ("comm_seconds", format!("{t_comm:.3e}")),
            ],
        );
        let end = rec.now();
        rec.span(
            SpanKind::Step,
            "step",
            s0,
            end - s0,
            Track::Host,
            vec![("step", step.to_string())],
        );
    }

    (t_intensity, t_temperature, t_comm)
}

/// Solve sequentially.
pub fn solve(
    cp: &CompiledProblem,
    fields: &mut Fields,
    rec: &mut Recorder,
) -> Result<SolveReport, DslError> {
    cp.debug_verify(&super::ExecTarget::CpuSeq);
    if cp.problem.integrator.is_implicit() {
        return super::implicit::solve_cpu(cp, fields, rec, false);
    }
    let n_cells = fields.n_cells;
    let all_cells: Vec<usize> = (0..n_cells).collect();
    let all_flats: Vec<usize> = (0..cp.n_flat).collect();
    let scope = Scope {
        cells: &all_cells,
        flats: &all_flats,
    };
    let mut ghosts = vec![0.0; cp.boundary.len() * cp.n_flat];
    let mut rhs = vec![0.0; cp.n_flat * n_cells];
    let mut rhs2 = if cp.problem.stepper == TimeStepper::Rk2 {
        vec![0.0; cp.n_flat * n_cells]
    } else {
        Vec::new()
    };
    // Solve into a child recorder so the report covers exactly this run
    // even when the caller's recorder spans several solves. The child
    // shares the caller's stream/metrics sinks, so frames flow out live.
    let mut r = rec.child();
    if r.enabled() {
        r.set_cost_expectation(super::live_cost(cp, &super::ExecTarget::CpuSeq));
    }
    let mut links = super::LocalLinks;
    let mut kernels = IntensityKernels::for_scope(cp, &all_flats);
    let mut time = 0.0;
    for step in 0..cp.problem.n_steps {
        let (ti, tt, _comm) = step_scope(
            cp,
            fields,
            &scope,
            &mut ghosts,
            &mut rhs,
            &mut rhs2,
            time,
            step,
            None,
            None,
            &mut links,
            &mut r,
            1,
            &mut kernels,
        );
        r.phase(phases::INTENSITY, ti);
        r.phase(phases::TEMPERATURE, tt);
        r.step_done(
            step,
            &[(phases::INTENSITY, ti), (phases::TEMPERATURE, tt)],
            0,
        );
        time += cp.problem.dt;
    }
    let report = SolveReport {
        steps: cp.problem.n_steps,
        timer: r.phases.clone(),
        comm: Default::default(),
        work: r.work,
        device: None,
    };
    rec.absorb(r);
    Ok(report)
}
