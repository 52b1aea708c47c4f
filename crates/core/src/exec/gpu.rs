//! Hybrid CPU + GPU execution (paper §III-D, Fig 6).
//!
//! The generated kernel flattens all loops and assigns one thread per
//! degree of freedom; it runs on the simulated device (`pbte-gpu`). User
//! callbacks — boundary conditions and the post-step temperature update —
//! stay on the host, exactly as the paper argues they must. Two strategies
//! connect the halves:
//!
//! * [`GpuStrategy::AsyncBoundary`] — the kernel updates interior-face
//!   fluxes only while the CPU computes boundary-face contributions from
//!   the same old state; after the device result returns, the host
//!   combines `u = u_new + u_bdry`, runs the post-step, and sends the
//!   state back (`u`, `Io`, `beta` move every step — the "substantial
//!   communication" configuration the paper shows is still profitable).
//!   The state moves with no host staging copy: uploads read the host
//!   fields in place and the kernel's compact rows land directly in them
//!   (`Device::d2h_scatter_rows`). The host combine walks plane by plane
//!   and evaluates boundary fluxes in the hoisted αβγ form
//!   ([`super::FluxLinearization`]) the CPU targets use; the straight-line
//!   conditional form is the device kernel's alone (its VM path and the
//!   §III-D cost model), so this strategy matches the CPU targets to
//!   rounding.
//! * [`GpuStrategy::PrecomputeBoundary`] — the CPU evaluates ghost values,
//!   ships the (small) ghost array, and the kernel computes the complete
//!   flux; the unknown stays device-resident between steps. This variant
//!   is bit-identical to the sequential CPU target because the per-face
//!   accumulation order is unchanged.
//!
//! Which variables move when is decided by [`crate::dataflow`], not here.

use super::rows::{self, FluxBoundary, IntensityKernels};
use super::seq;
use super::{phases, CompiledProblem, SolveReport};
use crate::bytecode::VmCtx;
use crate::entities::Fields;
use crate::problem::{DslError, GpuStrategy, KernelTier, LocalReducer, Reducer, TimeStepper};
use pbte_gpu::{Device, DeviceBuffer, DeviceSpec, KernelCost};
use pbte_runtime::telemetry::{DeviceSummary, Recorder, SpanKind, Track};
use std::time::Instant;

/// Flatten a device profile into the runtime-level summary the telemetry
/// sink carries (the runtime crate has no device types).
pub(crate) fn device_summary_from(prof: &pbte_gpu::ProfileReport, rank: u32) -> DeviceSummary {
    DeviceSummary {
        rank,
        device: prof.spec_name.to_string(),
        sm_utilization: prof.sm_utilization(),
        memory_fraction: prof.memory_fraction(),
        flop_fraction: prof.flop_fraction(),
        kernel_seconds: prof.kernel_time(),
        transfer_seconds: prof.transfer_time(),
        h2d_bytes: prof.h2d.bytes,
        d2h_bytes: prof.d2h.bytes,
    }
}

/// Simulated / host times for one hybrid step.
pub(crate) struct StepTimes {
    /// Simulated device seconds in the intensity kernel.
    pub kernel: f64,
    /// Simulated host↔device transfer seconds.
    pub transfer: f64,
    /// Host wall-clock seconds (boundary callbacks + post-step).
    pub host: f64,
}

/// Flattened per-cell face geometry shipped to the device once.
struct Geometry {
    max_faces: usize,
    /// `n_cells * max_faces`, zero-padded.
    area: Vec<f64>,
    normal: [Vec<f64>; 3],
    /// Neighbor cell id, or `-(bface_slot+1)` for boundary, or NaN padding.
    other: Vec<f64>,
    /// Face centroids (for function coefficients in flux kernels).
    fx: Vec<f64>,
    fy: Vec<f64>,
    fz: Vec<f64>,
    volume: Vec<f64>,
    n_faces: Vec<f64>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
}

impl Geometry {
    fn build(cp: &CompiledProblem) -> Geometry {
        let mesh = cp.mesh();
        let n_cells = mesh.n_cells();
        let max_faces = (0..n_cells)
            .map(|c| mesh.cell_faces(c).len())
            .max()
            .expect("mesh has cells");
        let mut g = Geometry {
            max_faces,
            area: vec![0.0; n_cells * max_faces],
            normal: [
                vec![0.0; n_cells * max_faces],
                vec![0.0; n_cells * max_faces],
                vec![0.0; n_cells * max_faces],
            ],
            other: vec![f64::NAN; n_cells * max_faces],
            fx: vec![0.0; n_cells * max_faces],
            fy: vec![0.0; n_cells * max_faces],
            fz: vec![0.0; n_cells * max_faces],
            volume: mesh.cell_volumes.clone(),
            n_faces: vec![0.0; n_cells],
            cx: mesh.cell_centroids.iter().map(|p| p.x).collect(),
            cy: mesh.cell_centroids.iter().map(|p| p.y).collect(),
            cz: mesh.cell_centroids.iter().map(|p| p.z).collect(),
        };
        for cell in 0..n_cells {
            let faces = mesh.cell_faces(cell);
            g.n_faces[cell] = faces.len() as f64;
            for (k, &fid) in faces.iter().enumerate() {
                let f = &mesh.faces[fid];
                let n = f.normal_from(cell);
                let at = cell * max_faces + k;
                g.area[at] = f.area;
                g.normal[0][at] = n.x;
                g.normal[1][at] = n.y;
                g.normal[2][at] = n.z;
                g.fx[at] = f.centroid.x;
                g.fy[at] = f.centroid.y;
                g.fz[at] = f.centroid.z;
                g.other[at] = match f.other_cell(cell) {
                    Some(nb) => nb as f64,
                    None => -((cp.bface_slot[fid] + 1) as f64),
                };
            }
        }
        g
    }
}

/// Static cost of one generated-kernel thread, as the code generator
/// derives it. Flops are counted directly from the compiled programs
/// (volume + per-face flux + update arithmetic). Bytes use the
/// *DRAM-effective* traffic the generator can prove from reuse structure,
/// not raw load counts:
///
/// * each unknown value leaves DRAM once per kernel — its five uses (own
///   thread + four neighbors) hit in L2;
/// * a non-unknown variable value (e.g. `Io[b]`, `beta[b]` per cell) is
///   shared by all threads with the same (cell, its indices), i.e. reused
///   `n_flat / flat_len(var)` times;
/// * coefficient tables (a few kB) and per-cell geometry are resident in
///   cache across the flattened index dimension.
///
/// This reuse reasoning is what makes the BTE kernel compute-bound on the
/// device and reproduces the paper's profile table (≈49% of DP peak, ≈11%
/// memory throughput). Exposed publicly so the figure harness prices
/// paper-scale launches without executing them.
pub fn estimate_kernel_cost(cp: &CompiledProblem) -> KernelCost {
    let mesh = cp.mesh();
    let max_faces = (0..mesh.n_cells())
        .map(|c| mesh.cell_faces(c).len())
        .max()
        .expect("mesh has cells") as f64;
    let n_flat_f = cp.n_flat as f64;
    let registry = &cp.problem.registry;
    let shared_var_bytes: f64 = cp
        .system
        .read_variables
        .iter()
        .filter(|&&v| v != cp.system.unknown)
        .map(|&v| 8.0 * registry.flat_len(&registry.variables[v].indices) as f64 / n_flat_f)
        .sum();
    let geometry_bytes = 8.0 * (6.0 * max_faces + 4.0) / n_flat_f;
    KernelCost {
        flops_per_thread: cp.volume.flops as f64 + max_faces * (cp.flux.flops as f64 + 4.0) + 4.0,
        bytes_read_per_thread: 8.0 + shared_var_bytes + geometry_bytes,
        bytes_written_per_thread: 8.0,
        fma_fraction: 0.0,
        divergence_efficiency: 1.0,
    }
}

/// Host-track `Phase` spans of one [`GpuWorker::step`], in time order
/// (DESIGN.md §6): pre-step callbacks + ghosts (the fill in a nested
/// `boundary_ghosts` span), the H2D staging, the host execution of the
/// kernel, the async boundary combine (async strategy only), and the
/// D2H + combine. The post-step callbacks carry their own `Callback`
/// spans.
const HOST_PHASES: [&str; 5] = [
    "gpu_pre_step",
    "gpu_h2d_stage",
    "gpu_kernel_host",
    "gpu_boundary_combine",
    "gpu_d2h_combine",
];

/// The async strategy's host half (Fig 6): every boundary face's flux
/// contribution `-dt·area·f/vol` from the old state, into `out`
/// (`owned_flats.len() * boundary.len()`, plane-major). Walks plane by
/// plane — outer over owned flats, inner over boundary faces in slot
/// order, `u1` from that plane's contiguous row — and evaluates the face
/// flux in the hoisted αβγ form every CPU target uses, falling back to
/// the VM only when the flux did not linearize.
fn boundary_combine(
    cp: &CompiledProblem,
    fields: &Fields,
    owned_flats: &[usize],
    ghosts: &[f64],
    time: f64,
    out: &mut [f64],
) {
    let mesh = cp.mesh();
    let n_cells = fields.n_cells;
    let n_flat = cp.n_flat;
    let dt = cp.problem.dt;
    let n_bdry = cp.boundary.len();
    let u = fields.slice(cp.system.unknown);
    let vars = if cp.flux_lin.is_none() {
        fields.as_slices()
    } else {
        Vec::new()
    };
    for (k, &flat) in owned_flats.iter().enumerate() {
        let u_row = &u[flat * n_cells..(flat + 1) * n_cells];
        let adds = &mut out[k * n_bdry..(k + 1) * n_bdry];
        for ((slot, bf), add) in cp.boundary.iter().enumerate().zip(adds) {
            let face = &mesh.faces[bf.face];
            let cell = face.owner;
            let u1 = u_row[cell];
            let u2 = ghosts[slot * n_flat + flat];
            let f = match &cp.flux_lin {
                Some(lin) => lin.eval(flat, lin.face_class_pos[bf.face], u1, u2),
                None => cp.flux.eval(&VmCtx {
                    vars: &vars,
                    n_cells,
                    coefficients: &cp.problem.registry.coefficients,
                    idx: &cp.idx_of_flat[flat],
                    cell,
                    u1,
                    u2,
                    normal: [face.normal.x, face.normal.y, face.normal.z],
                    position: face.centroid,
                    dt,
                    time,
                }),
            };
            *add = -dt * (face.area * f) / mesh.cell_volumes[cell];
        }
    }
}

/// A single simulated device executing one rank's share of the problem.
pub(crate) struct GpuWorker {
    device: Device,
    strategy: GpuStrategy,
    owned_flats: Vec<usize>,
    /// Per-variable device buffers, id order; `vars[unknown]` is the state.
    var_devs: Vec<DeviceBuffer>,
    /// Compact kernel output: `owned_flats.len() * n_cells`.
    unew_dev: DeviceBuffer,
    /// Ghost values (precompute strategy), `boundary.len() * n_flat`.
    ghost_dev: DeviceBuffer,
    geometry: Geometry,
    kernel_cost: KernelCost,
    /// Host-side ghost scratch.
    ghosts: Vec<f64>,
    /// Async strategy's host boundary contribution, `owned_flats.len() *
    /// boundary.len()`: entry `k * boundary.len() + slot` is what boundary
    /// face `slot` adds to its owner cell in owned flat `k`.
    boundary_add: Vec<f64>,
    /// Variables the CPU rewrites each step (H2D per step), from the
    /// synthesized transfer schedule's `EveryStep` H2D set.
    step_h2d_vars: Vec<usize>,
    /// Schedule-derived per-step movements: the async strategy's
    /// host-combined unknown re-upload, the precompute strategy's ghost
    /// upload, and the unknown's download for host readers.
    h2d_unknown_each_step: bool,
    h2d_ghosts_each_step: bool,
    d2h_unknown_each_step: bool,
    /// Row kernels when the compiler selected the fused tier — the
    /// "generated kernel" then evaluates whole cell rows per block instead
    /// of re-interpreting the VM per thread.
    row: Option<IntensityKernels>,
}

impl GpuWorker {
    pub(crate) fn new(
        cp: &CompiledProblem,
        fields: &Fields,
        owned_flats: &[usize],
        spec: DeviceSpec,
        strategy: GpuStrategy,
    ) -> GpuWorker {
        assert_eq!(
            cp.problem.stepper,
            TimeStepper::EulerExplicit,
            "the GPU target generates the Euler kernel only"
        );
        let mut device = Device::new(spec);
        let n_cells = fields.n_cells;
        let geometry = Geometry::build(cp);

        // The movement sets come straight from the synthesized,
        // certificate-backed transfer schedule — the worker no longer
        // re-derives them from the access sets itself. Coefficient
        // entries map to no variable id (they are baked into the bound
        // kernels at compile time) and drop out of `var_id`.
        let registry = &cp.problem.registry;
        let schedule = cp.transfer_schedule(strategy);
        let unknown_name = registry.variables[cp.system.unknown].name.as_str();
        let var_id = |name: &str| registry.variables.iter().position(|v| v.name == name);
        let each_h2d = schedule.each_step_h2d();
        let step_h2d_vars: Vec<usize> = each_h2d
            .iter()
            .filter(|n| **n != unknown_name && **n != "ghosts")
            .filter_map(|n| var_id(n))
            .collect();
        let h2d_unknown_each_step = each_h2d.contains(&unknown_name);
        let h2d_ghosts_each_step = each_h2d.contains(&"ghosts");
        let d2h_unknown_each_step = schedule.each_step_d2h().contains(&unknown_name);
        let once_h2d: Vec<usize> = schedule
            .transfers
            .iter()
            .filter(|t| t.to_device && t.policy == crate::dataflow::Policy::Once)
            .filter_map(|t| var_id(&t.name))
            .collect();
        // The strategy-structural movements must be present: the async
        // combine rewrites the unknown on the host, precompute evaluates
        // ghosts there. A schedule violating this would fail
        // `schedule/unsound` before ever reaching an executor.
        debug_assert_eq!(
            h2d_unknown_each_step,
            strategy == GpuStrategy::AsyncBoundary,
            "synthesized schedule disagrees with the async strategy's structural re-upload"
        );
        debug_assert_eq!(
            h2d_ghosts_each_step,
            strategy == GpuStrategy::PrecomputeBoundary,
            "synthesized schedule disagrees with the precompute strategy's ghost upload"
        );

        // One buffer per variable; only `Policy::Once` H2D entries get
        // their setup copy here. Variables re-uploaded every step get
        // their first copy in `step()`, and variables the kernel never
        // reads get an allocation but no transfer — the dynamic
        // transfer-oracle test holds the profiler log to exactly this.
        let mut var_devs = Vec::with_capacity(fields.n_vars());
        for v in 0..fields.n_vars() {
            let mut buf = device.alloc(
                &cp.problem.registry.variables[v].name,
                fields.slice(v).len(),
            );
            if once_h2d.contains(&v) {
                device.h2d(fields.slice(v), &mut buf);
            }
            var_devs.push(buf);
        }
        let unew_dev = device.alloc("u_new", owned_flats.len() * n_cells);
        let ghost_dev = device.alloc("ghosts", cp.boundary.len().max(1) * cp.n_flat);

        let kernel_cost = estimate_kernel_cost(cp);

        let tier = cp.resolved_tier();
        // Every non-VM tier carries per-flat compiled kernels: row/native
        // run the fused `launch_rows` form, bound evaluates its bind-time
        // specialized volume programs inside the device VM path — so the
        // kernel spans' `tier` attribution always names the code that ran.
        let row = matches!(
            tier,
            KernelTier::Row | KernelTier::Native | KernelTier::Bound
        )
        .then(|| IntensityKernels::with_tier(cp, owned_flats, tier));

        GpuWorker {
            device,
            strategy,
            owned_flats: owned_flats.to_vec(),
            var_devs,
            unew_dev,
            ghost_dev,
            geometry,
            kernel_cost,
            ghosts: vec![0.0; cp.boundary.len() * cp.n_flat],
            boundary_add: match strategy {
                GpuStrategy::AsyncBoundary => vec![0.0; owned_flats.len() * cp.boundary.len()],
                GpuStrategy::PrecomputeBoundary => Vec::new(),
            },
            step_h2d_vars,
            h2d_unknown_each_step,
            h2d_ghosts_each_step,
            d2h_unknown_each_step,
            row,
        }
    }

    /// Execute one hybrid time step. Mutates `fields` (host state) and the
    /// device buffers; returns the phase times.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step(
        &mut self,
        cp: &CompiledProblem,
        fields: &mut Fields,
        time: f64,
        step: usize,
        owned_index_range: Option<(String, std::ops::Range<usize>)>,
        reducer: &mut dyn Reducer,
        rec: &mut Recorder,
        threads: usize,
    ) -> StepTimes {
        let n_cells = fields.n_cells;
        let unknown = cp.system.unknown;
        let dt = cp.problem.dt;
        let dev_t0 = self.device.elapsed();
        let h2d0 = self.device.h2d_bytes();

        // Host-track marks bounding the step's `HOST_PHASES` windows.
        let mut marks = [0.0; HOST_PHASES.len() + 1];
        marks[0] = rec.now();

        // Host: pre-step callbacks + boundary ghosts from the old state.
        // The device is idle while callbacks run, so the host thread pool
        // (`threads`) is fully available to them.
        let host_t0 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            true,
            time,
            step,
            owned_index_range.clone(),
            None,
            reducer,
            threads,
            rec,
        );
        seq::traced_ghosts(rec, step, |work| {
            seq::compute_ghosts(cp, fields, &self.owned_flats, time, &mut self.ghosts, work)
        });
        let mut t_host = host_t0.elapsed().as_secs_f64();
        marks[1] = rec.now();

        // H2D per the transfer schedule, straight from the host state:
        // CPU-written variables move every step; under the async strategy
        // the host-combined unknown moves too (its rows were rewritten at
        // the end of the previous step).
        for &v in &self.step_h2d_vars {
            self.device.h2d(fields.slice(v), &mut self.var_devs[v]);
        }
        if self.h2d_unknown_each_step {
            self.device.h2d_rows(
                fields.slice(unknown),
                &mut self.var_devs[unknown],
                n_cells,
                &self.owned_flats,
            );
        }
        if self.h2d_ghosts_each_step {
            self.device.h2d(&self.ghosts, &mut self.ghost_dev);
        }
        let t_after_h2d = self.device.elapsed();
        marks[2] = rec.now();
        let h2d_obs = self.device.h2d_bytes() - h2d0;

        // Kernel launch: one thread per owned dof.
        let n_threads = self.owned_flats.len() * n_cells;
        let skip_boundary = self.strategy == GpuStrategy::AsyncBoundary;
        let geometry = &self.geometry;
        let owned_flats = &self.owned_flats;
        let n_flat = cp.n_flat;
        let coefficients = &cp.problem.registry.coefficients;
        let volume_prog = &cp.volume;
        let flux_prog = &cp.flux;
        let idx_of_flat = &cp.idx_of_flat;
        let n_vars = self.var_devs.len();

        // Inputs: every variable buffer (id order), then the ghost buffer.
        if let Some(rowk) = &mut self.row {
            rowk.ensure(cp, n_cells, time);
        }
        let mut inputs: Vec<&DeviceBuffer> = self.var_devs.iter().collect();
        inputs.push(&self.ghost_dev);
        let centroids = &cp.mesh().cell_centroids;
        let fused = self
            .row
            .as_ref()
            .filter(|k| matches!(k.tier, KernelTier::Row | KernelTier::Native));
        let t_kernel = if let Some(rowk) = fused {
            // Fused row form: one block per owned flat, covering the whole
            // cell range, with the update folded in (`u + dt·rhs`, using
            // the same reciprocal-volume multiply as the CPU targets — the
            // precompute strategy is therefore bit-identical to them).
            self.device.launch_rows(
                "intensity_update",
                owned_flats.len(),
                n_cells,
                self.kernel_cost,
                &inputs,
                &mut self.unew_dev,
                |k, bufs, out| {
                    let vars = &bufs[..n_vars];
                    let boundary = if skip_boundary {
                        FluxBoundary::Skip
                    } else {
                        FluxBoundary::Ghosts(bufs[n_vars])
                    };
                    if rowk.tier == KernelTier::Native {
                        rows::rhs_span_native(
                            rowk.native(),
                            cp,
                            vars,
                            owned_flats[k],
                            boundary,
                            0,
                            out,
                            Some(dt),
                        );
                    } else {
                        let mut regs = rowk.scratch();
                        rows::rhs_span(
                            rowk.reg(k),
                            cp,
                            vars,
                            n_cells,
                            owned_flats[k],
                            boundary,
                            0,
                            out,
                            centroids,
                            time,
                            Some(dt),
                            &mut regs,
                        );
                    }
                },
            )
        } else {
            // Device VM path; the bound tier's specialized volume programs
            // slot in for the generic stack program (bind-time constant
            // folding is bit-identical, proven by translation validation).
            let boundk = self.row.as_ref();
            self.device.launch(
                "intensity_update",
                n_threads,
                self.kernel_cost,
                &inputs,
                &mut self.unew_dev,
                |tid, bufs, out| {
                    let vars = &bufs[..n_vars];
                    let ghosts = bufs[n_vars];
                    let k = tid / n_cells;
                    let cell = tid % n_cells;
                    let flat = owned_flats[k];
                    let idx = &idx_of_flat[flat];
                    let mut vm = VmCtx {
                        vars,
                        n_cells,
                        coefficients,
                        idx,
                        cell,
                        u1: 0.0,
                        u2: 0.0,
                        normal: [0.0; 3],
                        position: pbte_mesh::Point::new(
                            geometry.cx[cell],
                            geometry.cy[cell],
                            geometry.cz[cell],
                        ),
                        dt,
                        time,
                    };
                    let source = match boundk {
                        Some(bk) => bk.bound(k).eval(vars, cell, centroids[cell], time),
                        None => volume_prog.eval(&vm),
                    };
                    let u_here = vars[unknown][flat * n_cells + cell];
                    let mut flux_sum = 0.0;
                    let nf = geometry.n_faces[cell] as usize;
                    for f in 0..nf {
                        let at = cell * geometry.max_faces + f;
                        let other = geometry.other[at];
                        let u2 = if other >= 0.0 {
                            vars[unknown][flat * n_cells + other as usize]
                        } else if skip_boundary {
                            continue;
                        } else {
                            let slot = (-other) as usize - 1;
                            ghosts[slot * n_flat + flat]
                        };
                        vm.u1 = u_here;
                        vm.u2 = u2;
                        vm.normal = [
                            geometry.normal[0][at],
                            geometry.normal[1][at],
                            geometry.normal[2][at],
                        ];
                        vm.position = pbte_mesh::Point::new(
                            geometry.fx[at],
                            geometry.fy[at],
                            geometry.fz[at],
                        );
                        flux_sum += geometry.area[at] * flux_prog.eval(&vm);
                    }
                    *out = u_here + dt * (source - flux_sum / geometry.volume[cell]);
                },
            )
        };
        marks[3] = rec.now();
        rec.work.dof_updates += n_threads as u64;
        // Exact face total per owned flat (every cell's true face count,
        // not a uniform max_faces estimate).
        rec.work.flux_evals += owned_flats.len() as u64 * cp.hot.nbr.len() as u64;
        if rec.enabled() {
            rec.span(
                SpanKind::Kernel,
                "intensity_update",
                t_after_h2d,
                t_kernel,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("threads", n_threads.to_string()),
                    (
                        "tier",
                        self.row
                            .as_ref()
                            .map(|k| k.tier.name())
                            .unwrap_or("vm")
                            .to_string(),
                    ),
                    (
                        "obs_flops",
                        format!("{:.4e}", self.kernel_cost.total_flops(n_threads)),
                    ),
                ],
            );
        }
        let t_after_kernel = t_after_h2d + t_kernel;

        // Meanwhile (conceptually overlapped, Fig 6): the CPU computes the
        // boundary contribution from the same old state.
        if skip_boundary {
            let host_t1 = Instant::now();
            boundary_combine(
                cp,
                fields,
                &self.owned_flats,
                &self.ghosts,
                time,
                &mut self.boundary_add,
            );
            t_host += host_t1.elapsed().as_secs_f64();
        } else {
            // Precompute strategy: reconcile the device state — scatter the
            // new rows back into the resident unknown buffer.
            self.device.scatter_rows(
                &self.unew_dev,
                &mut self.var_devs[unknown],
                n_cells,
                &self.owned_flats,
            );
        }
        marks[4] = rec.now();

        // D2H: the updated unknown returns to the host. Under the async
        // strategy the download is structural — the host combine *is* the
        // strategy and needs the kernel's interior result regardless of
        // whether any callback reads the unknown afterwards. Under
        // precompute it is purely schedule-driven; when the schedule
        // omits it (no host reader), `flush` reconciles the host copy
        // after the final step instead.
        let d2h0 = self.device.d2h_bytes();
        match self.strategy {
            GpuStrategy::AsyncBoundary => {
                // The kernel's compact rows land in place in the host
                // state, then the boundary block is added on top, plane by
                // plane, in slot order.
                let u = fields.slice_mut(unknown);
                self.device
                    .d2h_scatter_rows(&self.unew_dev, u, n_cells, &self.owned_flats);
                let mesh = cp.mesh();
                let n_bdry = cp.boundary.len();
                for (k, &flat) in self.owned_flats.iter().enumerate() {
                    let row = &mut u[flat * n_cells..(flat + 1) * n_cells];
                    let adds = &self.boundary_add[k * n_bdry..(k + 1) * n_bdry];
                    for (bf, add) in cp.boundary.iter().zip(adds) {
                        row[mesh.faces[bf.face].owner] += add;
                    }
                }
            }
            GpuStrategy::PrecomputeBoundary => {
                if self.d2h_unknown_each_step {
                    self.device.d2h_rows(
                        &self.var_devs[unknown],
                        fields.slice_mut(unknown),
                        n_cells,
                        &self.owned_flats,
                    );
                }
            }
        }
        marks[5] = rec.now();
        let d2h_obs = self.device.d2h_bytes() - d2h0;
        let t_transfer = (t_after_h2d - dev_t0) + (self.device.elapsed() - t_after_h2d - t_kernel);
        if rec.enabled() {
            let strat = match self.strategy {
                GpuStrategy::AsyncBoundary => "async",
                GpuStrategy::PrecomputeBoundary => "precompute",
            };
            rec.span(
                SpanKind::Transfer,
                "h2d",
                dev_t0,
                t_after_h2d - dev_t0,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("strategy", strat.to_string()),
                    ("bytes", h2d_obs.to_string()),
                ],
            );
            rec.span(
                SpanKind::Transfer,
                "d2h",
                t_after_kernel,
                self.device.elapsed() - t_after_kernel,
                Track::Device(0),
                vec![
                    ("step", step.to_string()),
                    ("strategy", strat.to_string()),
                    ("bytes", d2h_obs.to_string()),
                ],
            );
            rec.transfer_drift(step, "h2d", h2d_obs);
            rec.transfer_drift(step, "d2h", d2h_obs);
        }

        // Host: post-step callbacks (temperature update).
        let host_t2 = Instant::now();
        seq::run_callbacks(
            cp,
            fields,
            false,
            time + dt,
            step,
            owned_index_range,
            None,
            reducer,
            threads,
            rec,
        );
        t_host += host_t2.elapsed().as_secs_f64();

        if rec.enabled() {
            for (i, name) in HOST_PHASES.iter().enumerate() {
                if *name == "gpu_boundary_combine" && !skip_boundary {
                    continue;
                }
                rec.span(
                    SpanKind::Phase,
                    name,
                    marks[i],
                    marks[i + 1] - marks[i],
                    Track::Host,
                    vec![("step", step.to_string())],
                );
            }
            let end = rec.now();
            rec.span(
                SpanKind::Step,
                "step",
                marks[0],
                end - marks[0],
                Track::Host,
                vec![("step", step.to_string())],
            );
        }

        StepTimes {
            kernel: t_kernel,
            transfer: t_transfer,
            host: t_host,
        }
    }

    /// Reconcile the host copy of the unknown after the final step when
    /// the schedule (validly) omitted the per-step download — the
    /// certificate's `HostNeverReads` argument covers the steps *between*
    /// device writes, not the caller's final read of `fields`.
    pub(crate) fn flush(&mut self, cp: &CompiledProblem, fields: &mut Fields) {
        if self.d2h_unknown_each_step || self.strategy != GpuStrategy::PrecomputeBoundary {
            return;
        }
        let unknown = cp.system.unknown;
        let n_cells = fields.n_cells;
        self.device.d2h_rows(
            &self.var_devs[unknown],
            fields.slice_mut(unknown),
            n_cells,
            &self.owned_flats,
        );
    }

    /// Device profile after the run.
    pub(crate) fn finish(&self) -> pbte_gpu::ProfileReport {
        self.device.profile()
    }
}

/// Per-plan device state of the implicit backend: the primal RHS and the
/// JVP are two different compiled programs with their own kernels, cost
/// model, and ghost layout, but they read the same variable set.
struct PlanState {
    kernels: IntensityKernels,
    cost: KernelCost,
    ghost_dev: DeviceBuffer,
    ghosts: Vec<f64>,
    name: &'static str,
}

impl PlanState {
    fn new(
        device: &mut Device,
        plan: &CompiledProblem,
        owned_flats: &[usize],
        name: &'static str,
    ) -> PlanState {
        PlanState {
            // Scoped to the owned flats: `bound(k)`/`reg(k)` are indexed
            // by scope position, which must match the launch row index.
            kernels: IntensityKernels::for_scope(plan, owned_flats),
            cost: estimate_kernel_cost(plan),
            ghost_dev: device.alloc("ghosts", plan.boundary.len().max(1) * plan.n_flat),
            ghosts: vec![0.0; plan.boundary.len() * plan.n_flat],
            name,
        }
    }
}

/// Device-resident RHS engine for the implicit drivers (θ-scheme Newton
/// and pseudo-transient steady state). The paper's hybrid split carries
/// over unchanged: boundary ghosts and callbacks stay on the host, and
/// every RHS/JVP sweep is one batched row kernel on the simulated device
/// (`Device::launch_rows`, one block per owned flat covering the cell
/// span — the grid shape the host-side kernel compiler emits).
///
/// Bit identity: each row evaluates through the *same* tier entry points
/// as the CPU targets (`rows::rhs_span`, `rhs_span_native`,
/// `seq::eval_rhs_dof_{bound,vm}`) with the un-fused RHS form, so Krylov
/// trajectories on the device match the CPU bit for bit. (The explicit
/// worker's VM closure divides by cell volume instead of multiplying by
/// its reciprocal — that shortcut is deliberately not reused here.)
pub(crate) struct GpuImplicitBackend {
    device: Device,
    owned_flats: Vec<usize>,
    /// One buffer per variable, id order, re-uploaded per sweep for the
    /// read set of the active plan.
    var_devs: Vec<DeviceBuffer>,
    out_dev: DeviceBuffer,
    main: PlanState,
    jvp: PlanState,
}

impl GpuImplicitBackend {
    pub(crate) fn new(
        cp: &CompiledProblem,
        jcp: &CompiledProblem,
        fields: &Fields,
        owned_flats: &[usize],
        spec: DeviceSpec,
    ) -> GpuImplicitBackend {
        let mut device = Device::new(spec);
        let n_cells = fields.n_cells;
        let mut var_devs = Vec::with_capacity(fields.n_vars());
        for v in 0..fields.n_vars() {
            var_devs.push(device.alloc(
                &cp.problem.registry.variables[v].name,
                fields.slice(v).len(),
            ));
        }
        let out_dev = device.alloc("rhs_out", owned_flats.len() * n_cells);
        let main = PlanState::new(&mut device, cp, owned_flats, "rhs_sweep");
        let jvp = PlanState::new(&mut device, jcp, owned_flats, "jvp_sweep");
        GpuImplicitBackend {
            device,
            owned_flats: owned_flats.to_vec(),
            var_devs,
            out_dev,
            main,
            jvp,
        }
    }

    /// Device profile after the run.
    pub(crate) fn finish(&self) -> pbte_gpu::ProfileReport {
        self.device.profile()
    }
}

impl super::implicit::ImplicitBackend for GpuImplicitBackend {
    fn rhs(
        &mut self,
        plan: &CompiledProblem,
        which: super::implicit::Plan,
        fields: &Fields,
        time: f64,
        out: &mut [f64],
        work: &mut pbte_runtime::telemetry::WorkCounters,
    ) {
        let GpuImplicitBackend {
            device,
            owned_flats,
            var_devs,
            out_dev,
            main,
            jvp,
        } = self;
        let ps = match which {
            super::implicit::Plan::Main => main,
            super::implicit::Plan::Jvp => jvp,
        };
        let n_cells = fields.n_cells;
        let dt = plan.problem.dt;

        // Host: boundary ghosts from the sweep's state (for the JVP plan
        // these are the *linearized* boundary conditions).
        seq::compute_ghosts(plan, fields, owned_flats, time, &mut ps.ghosts, work);

        // H2D: the plan's read set and the ghosts. The unknown slot moves
        // every sweep (it carries the Krylov direction); coefficient
        // fields move too because callbacks rewrite them between sweeps.
        for &v in &plan.system.read_variables {
            device.h2d(fields.slice(v), &mut var_devs[v]);
        }
        device.h2d(&ps.ghosts, &mut ps.ghost_dev);

        ps.kernels.ensure(plan, n_cells, time);
        let kernels = &ps.kernels;
        let centroids = &plan.mesh().cell_centroids;
        let n_vars = var_devs.len();
        let mut inputs: Vec<&DeviceBuffer> = var_devs.iter().collect();
        inputs.push(&ps.ghost_dev);
        device.launch_rows(
            ps.name,
            owned_flats.len(),
            n_cells,
            ps.cost,
            &inputs,
            out_dev,
            |k, bufs, row| {
                let vars = &bufs[..n_vars];
                let boundary = FluxBoundary::Ghosts(bufs[n_vars]);
                let flat = owned_flats[k];
                match kernels.tier {
                    KernelTier::Native => {
                        rows::rhs_span_native(
                            kernels.native(),
                            plan,
                            vars,
                            flat,
                            boundary,
                            0,
                            row,
                            None,
                        );
                    }
                    KernelTier::Row => {
                        let mut regs = kernels.scratch();
                        rows::rhs_span(
                            kernels.reg(k),
                            plan,
                            vars,
                            n_cells,
                            flat,
                            boundary,
                            0,
                            row,
                            centroids,
                            time,
                            None,
                            &mut regs,
                        );
                    }
                    KernelTier::Bound => {
                        let bound = kernels.bound(k);
                        let ghosts = bufs[n_vars];
                        for (cell, o) in row.iter_mut().enumerate() {
                            *o = seq::eval_rhs_dof_bound(
                                plan, vars, n_cells, ghosts, cell, flat, dt, time, bound,
                            );
                        }
                    }
                    KernelTier::Vm => {
                        let ghosts = bufs[n_vars];
                        for (cell, o) in row.iter_mut().enumerate() {
                            *o = seq::eval_rhs_dof_vm(
                                plan, vars, n_cells, ghosts, cell, flat, dt, time,
                            );
                        }
                    }
                }
            },
        );
        work.dof_updates += (owned_flats.len() * n_cells) as u64;
        work.flux_evals += owned_flats.len() as u64 * plan.hot.nbr.len() as u64;

        // D2H: the compact row block lands straight in the caller's
        // full-layout output.
        device.d2h_scatter_rows(out_dev, out, n_cells, owned_flats);
    }
}

/// Single-device hybrid solve.
pub fn solve(
    cp: &CompiledProblem,
    fields: &mut Fields,
    spec: DeviceSpec,
    strategy: GpuStrategy,
    rec: &mut Recorder,
) -> Result<SolveReport, DslError> {
    if cp.problem.stepper != TimeStepper::EulerExplicit {
        return Err(DslError::Invalid(
            "the GPU target supports the Euler stepper only".into(),
        ));
    }
    let target = super::ExecTarget::GpuHybrid {
        spec: spec.clone(),
        strategy,
    };
    cp.debug_verify(&target);
    let all_flats: Vec<usize> = (0..cp.n_flat).collect();
    if cp.problem.integrator.is_implicit() {
        // Implicit / steady: the generic driver runs Newton–Krylov with
        // every RHS/JVP sweep as a device row kernel. The boundary
        // strategy degenerates here — matvecs need the complete flux, so
        // the precompute-style split (ghosts on host, full flux on
        // device) is always used; it is also the bit-identical one.
        let jcp = cp.jvp.as_deref().ok_or_else(|| {
            DslError::Invalid("implicit integrator requires a compiled JVP plan".into())
        })?;
        let n_cells = fields.n_cells;
        let all_cells: Vec<usize> = (0..n_cells).collect();
        let d = super::implicit::Dofs {
            cells: &all_cells,
            flats: &all_flats,
            n_cells,
        };
        let mut backend = GpuImplicitBackend::new(cp, jcp, fields, &all_flats, spec);
        let mut r = rec.child();
        if r.enabled() {
            r.set_cost_expectation(super::live_cost(cp, &target));
        }
        let mut links = super::LocalLinks;
        let steps = super::implicit::drive(
            cp,
            &mut backend,
            fields,
            d,
            None,
            None,
            &mut links,
            &mut r,
            rayon::current_num_threads(),
        )?;
        let prof = backend.finish();
        // The driver accounts host wall-clock phases; the simulated
        // device clock is layered on top, as the explicit path reports.
        r.phase(phases::INTENSITY_GPU, prof.kernel_time());
        r.phase(phases::COMM_GPU, prof.transfer_time());
        r.device_summary(device_summary_from(&prof, 0));
        let report = SolveReport {
            steps,
            timer: r.phases.clone(),
            comm: Default::default(),
            work: r.work,
            device: Some(prof),
        };
        rec.absorb(r);
        return Ok(report);
    }
    let mut worker = GpuWorker::new(cp, fields, &all_flats, spec, strategy);
    let mut r = rec.child();
    if r.enabled() {
        r.set_cost_expectation(super::live_cost(cp, &target));
    }
    let mut reducer = LocalReducer;
    let mut time = 0.0;
    let threads = rayon::current_num_threads();
    for step in 0..cp.problem.n_steps {
        let times = worker.step(cp, fields, time, step, None, &mut reducer, &mut r, threads);
        r.phase(phases::INTENSITY_GPU, times.kernel);
        r.phase(phases::COMM_GPU, times.transfer);
        r.phase(phases::TEMPERATURE_CPU, times.host);
        r.step_done(
            step,
            &[
                (phases::INTENSITY_GPU, times.kernel),
                (phases::COMM_GPU, times.transfer),
                (phases::TEMPERATURE_CPU, times.host),
            ],
            0,
        );
        time += cp.problem.dt;
    }
    worker.flush(cp, fields);
    let prof = worker.finish();
    r.device_summary(device_summary_from(&prof, 0));
    let report = SolveReport {
        steps: cp.problem.n_steps,
        timer: r.phases.clone(),
        comm: Default::default(),
        work: r.work,
        device: Some(prof),
    };
    rec.absorb(r);
    Ok(report)
}
