//! Shared-memory thread-parallel execution (rayon).
//!
//! The generated parallel CPU code distributes the flattened index
//! dimension across threads: each flat value owns a contiguous
//! `n_cells`-long block of the unknown (index-major layout), so threads
//! write disjoint cache-line-aligned regions. The partitioned dimension is
//! therefore always outermost on this target, regardless of the
//! `assemblyLoops` preference (which the sequential target honours).
//! Numerics are identical to the sequential target — same arithmetic,
//! same face order — only the iteration is partitioned.

use super::rows::{self, FluxBoundary, IntensityKernels};
use super::seq;
use super::{phases, CompiledProblem, SolveReport, WorkCounters};
use crate::entities::Fields;
use crate::problem::{DslError, KernelTier, LocalReducer, TimeStepper};
use pbte_runtime::telemetry::{Recorder, SpanKind, Track};
use rayon::prelude::*;
use std::time::Instant;

/// Parallel ghost computation: one task per boundary face, each filling
/// that face's ghost column at `flats` (the threaded target passes every
/// flat). `callback_faces` is hoisted by the caller
/// (`seq::callback_face_count`) so the per-call accounting is a single
/// add, shared with the sequential path's counting rule.
pub(crate) fn compute_ghosts_par(
    cp: &CompiledProblem,
    fields: &Fields,
    flats: &[usize],
    time: f64,
    ghosts: &mut [f64],
    callback_faces: usize,
    work: &mut WorkCounters,
) {
    ghosts
        .par_chunks_mut(cp.n_flat)
        .enumerate()
        .for_each(|(slot, column)| {
            let bf = &cp.boundary[slot];
            bf.bc
                .fill_face(&seq::face_query(cp, bf, flats, time, fields), column);
        });
    work.ghost_evals += (callback_faces * flats.len()) as u64;
}

/// Parallel RHS: the flat dimension maps to tasks (one contiguous block
/// of `rhs` each) and, within a flat, the cell range is rayon-split into
/// per-thread sub-spans — the same cell-range splitting the `threads`
/// capability brought to the temperature phase. Chunk boundaries don't
/// change per-cell arithmetic, so results stay bit-identical to the
/// sequential target.
pub(crate) fn compute_rhs_par(
    cp: &CompiledProblem,
    fields: &Fields,
    ghosts: &[f64],
    time: f64,
    rhs: &mut [f64],
    work: &mut WorkCounters,
    kernels: &mut IntensityKernels,
) {
    let vars = fields.as_slices();
    let n_cells = fields.n_cells;
    let dt = cp.problem.dt;
    kernels.ensure(cp, n_cells, time);
    let kernels = &*kernels;
    let threads = rayon::current_num_threads().max(1);
    // Shared with the partition synthesis (`analysis::thread_chunk_len`)
    // so the proven split is the executed split.
    let chunk = crate::analysis::thread_chunk_len(n_cells, threads);
    match kernels.tier {
        KernelTier::Row => {
            let centroids = &cp.mesh().cell_centroids;
            rhs.par_chunks_mut(n_cells)
                .enumerate()
                .for_each(|(flat, block)| {
                    let reg = kernels.reg(flat);
                    block
                        .par_chunks_mut(chunk)
                        .enumerate()
                        .for_each(|(ci, out)| {
                            let mut regs = kernels.scratch();
                            rows::rhs_span(
                                reg,
                                cp,
                                &vars,
                                n_cells,
                                flat,
                                FluxBoundary::Ghosts(ghosts),
                                ci * chunk,
                                out,
                                centroids,
                                time,
                                None,
                                &mut regs,
                            );
                        });
                });
        }
        KernelTier::Bound => {
            rhs.par_chunks_mut(n_cells)
                .enumerate()
                .for_each(|(flat, block)| {
                    let bound = kernels.bound(flat);
                    block
                        .par_chunks_mut(chunk)
                        .enumerate()
                        .for_each(|(ci, out)| {
                            for (i, o) in out.iter_mut().enumerate() {
                                let cell = ci * chunk + i;
                                *o = seq::eval_rhs_dof_bound(
                                    cp, &vars, n_cells, ghosts, cell, flat, dt, time, bound,
                                );
                            }
                        });
                });
        }
        KernelTier::Vm => {
            rhs.par_chunks_mut(n_cells)
                .enumerate()
                .for_each(|(flat, block)| {
                    block
                        .par_chunks_mut(chunk)
                        .enumerate()
                        .for_each(|(ci, out)| {
                            for (i, o) in out.iter_mut().enumerate() {
                                let cell = ci * chunk + i;
                                *o = seq::eval_rhs_dof_vm(
                                    cp, &vars, n_cells, ghosts, cell, flat, dt, time,
                                );
                            }
                        });
                });
        }
        KernelTier::Native => {
            // The loaded plan library is Sync (immutable machine code);
            // each task calls its flat's kernel over its cell sub-span.
            let lib = kernels.native();
            rhs.par_chunks_mut(n_cells)
                .enumerate()
                .for_each(|(flat, block)| {
                    block
                        .par_chunks_mut(chunk)
                        .enumerate()
                        .for_each(|(ci, out)| {
                            rows::rhs_span_native(
                                lib,
                                cp,
                                &vars,
                                flat,
                                FluxBoundary::Ghosts(ghosts),
                                ci * chunk,
                                out,
                                None,
                            );
                        });
                });
        }
    }
    work.dof_updates += (cp.n_flat * n_cells) as u64;
    // Exact face total: every flat walks every cell's face list once.
    work.flux_evals += cp.n_flat as u64 * cp.hot.nbr.len() as u64;
}

/// [`compute_rhs_par`] wrapped in a `Kernel` telemetry span with tier
/// attribution (mirrors `seq::compute_rhs_traced`).
#[allow(clippy::too_many_arguments)]
fn compute_rhs_par_traced(
    cp: &CompiledProblem,
    fields: &Fields,
    ghosts: &[f64],
    time: f64,
    rhs: &mut [f64],
    step: usize,
    rec: &mut Recorder,
    kernels: &mut IntensityKernels,
) {
    let k0 = rec.now();
    compute_rhs_par(cp, fields, ghosts, time, rhs, &mut rec.work, kernels);
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
                ("dofs", (cp.n_flat * fields.n_cells).to_string()),
            ],
        );
    }
}

/// `u += coeff * rhs`, parallel over flats.
pub(crate) fn axpy_par(fields: &mut Fields, unknown: usize, coeff: f64, rhs: &[f64]) {
    let n_cells = fields.n_cells;
    fields
        .slice_mut(unknown)
        .par_chunks_mut(n_cells)
        .zip(rhs.par_chunks(n_cells))
        .for_each(|(u, r)| {
            for (uv, rv) in u.iter_mut().zip(r) {
                *uv += coeff * rv;
            }
        });
}

/// Solve with rayon threads.
pub fn solve(
    cp: &CompiledProblem,
    fields: &mut Fields,
    rec: &mut Recorder,
) -> Result<SolveReport, DslError> {
    cp.debug_verify(&super::ExecTarget::CpuParallel);
    if cp.problem.integrator.is_implicit() {
        return super::implicit::solve_cpu(cp, fields, rec, true);
    }
    let n_cells = fields.n_cells;
    let mut ghosts = vec![0.0; cp.boundary.len() * cp.n_flat];
    let mut rhs = vec![0.0; cp.n_flat * n_cells];
    let mut rhs2 = if cp.problem.stepper == TimeStepper::Rk2 {
        vec![0.0; cp.n_flat * n_cells]
    } else {
        Vec::new()
    };
    let mut r = rec.child();
    if r.enabled() {
        r.set_cost_expectation(super::live_cost(cp, &super::ExecTarget::CpuParallel));
    }
    let mut reducer = LocalReducer;
    let dt = cp.problem.dt;
    let unknown = cp.system.unknown;
    let mut time = 0.0;
    // Hoisted once: the per-step ghost accounting only needs the count.
    let callback_faces = seq::callback_face_count(cp);
    let threads = rayon::current_num_threads();
    let all_flats: Vec<usize> = (0..cp.n_flat).collect();
    let mut kernels = IntensityKernels::for_scope(cp, &all_flats);

    for step in 0..cp.problem.n_steps {
        let s0 = r.now();
        let t0 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            true,
            time,
            step,
            None,
            None,
            &mut reducer,
            threads,
            &mut r,
        );
        let mut t_temperature = t0.elapsed().as_secs_f64();

        let i0 = r.now();
        let t1 = Instant::now();
        match cp.problem.stepper {
            TimeStepper::EulerExplicit => {
                seq::traced_ghosts(&mut r, step, |work| {
                    compute_ghosts_par(
                        cp,
                        fields,
                        &all_flats,
                        time,
                        &mut ghosts,
                        callback_faces,
                        work,
                    )
                });
                compute_rhs_par_traced(
                    cp,
                    fields,
                    &ghosts,
                    time,
                    &mut rhs,
                    step,
                    &mut r,
                    &mut kernels,
                );
                axpy_par(fields, unknown, dt, &rhs);
            }
            TimeStepper::Rk2 => {
                seq::traced_ghosts(&mut r, step, |work| {
                    compute_ghosts_par(
                        cp,
                        fields,
                        &all_flats,
                        time,
                        &mut ghosts,
                        callback_faces,
                        work,
                    )
                });
                compute_rhs_par_traced(
                    cp,
                    fields,
                    &ghosts,
                    time,
                    &mut rhs,
                    step,
                    &mut r,
                    &mut kernels,
                );
                axpy_par(fields, unknown, dt, &rhs);
                seq::traced_ghosts(&mut r, step, |work| {
                    compute_ghosts_par(
                        cp,
                        fields,
                        &all_flats,
                        time + dt,
                        &mut ghosts,
                        callback_faces,
                        work,
                    )
                });
                compute_rhs_par_traced(
                    cp,
                    fields,
                    &ghosts,
                    time + dt,
                    &mut rhs2,
                    step,
                    &mut r,
                    &mut kernels,
                );
                axpy_par(fields, unknown, -0.5 * dt, &rhs);
                axpy_par(fields, unknown, 0.5 * dt, &rhs2);
            }
        }
        let t_intensity = t1.elapsed().as_secs_f64();

        let p0 = r.now();
        let t2 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            false,
            time + dt,
            step,
            None,
            None,
            &mut reducer,
            threads,
            &mut r,
        );
        t_temperature += t2.elapsed().as_secs_f64();

        if r.enabled() {
            let step_attr = vec![("step", step.to_string())];
            r.span(
                SpanKind::Phase,
                phases::INTENSITY,
                i0,
                p0 - i0,
                Track::Host,
                step_attr.clone(),
            );
            let end = r.now();
            r.span(SpanKind::Step, "step", s0, end - s0, Track::Host, step_attr);
        }
        r.phase(phases::INTENSITY, t_intensity);
        r.phase(phases::TEMPERATURE, t_temperature);
        r.step_done(
            step,
            &[
                (phases::INTENSITY, t_intensity),
                (phases::TEMPERATURE, t_temperature),
            ],
            0,
        );
        time += dt;
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
