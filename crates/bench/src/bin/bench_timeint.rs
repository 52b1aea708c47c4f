//! Explicit vs implicit vs steady time integration to the fig-4 100 ns
//! horizon, recorded to `BENCH_timeint.json` in the working directory (or
//! to the file named by `out=FILE`).
//!
//! The scenario is the hot-spot problem shrunk to a sub-micron die
//! (0.5 µm × 0.5 µm) — the kinetic regime where phonons cross the domain
//! ballistically in ~60 ps and the transient settles within a few
//! nanoseconds, while the advective CFL bound of the explicit scheme
//! sits at picoseconds. Reaching the 100 ns observation horizon
//! explicitly therefore costs tens of thousands of RHS sweeps that
//! resolve nothing but the stability wall. Three lanes:
//!
//! * `explicit` — forward Euler at the largest stable step (in this
//!   regime the scattering relaxation bound `0.9/β_max`, slightly under
//!   the advective CFL bound the interval pass recommends);
//! * `implicit` — backward Euler stepping at the horizon scale
//!   (`dt = horizon / 80`, ~10³× past the stability wall), each step one
//!   affine Newton solve by Jacobi-preconditioned matrix-free BiCGStab
//!   with an inexact-Newton linear tolerance (the per-step temperature
//!   callback is operator-split around the solve, so spending the eval
//!   budget on more, cheaper outer steps converges the coupling faster
//!   than fewer, tighter ones);
//! * `steady` — pseudo-transient SER continuation from the scenario's
//!   default step, stopping when the residual has dropped `tol`-fold
//!   (at 100 ns the hot-spot field *is* the steady state to ~0.05 K,
//!   so the continuation answers the same question directly).
//!
//! Work is compared in *step-equivalents*: one explicit step costs one
//! RHS sweep; the implicit lanes count every RHS and JVP evaluation
//! (a JVP sweep touches the same dof set at the same per-dof cost, so
//! the units match). Temperature agreement between the lanes is
//! reported as the max per-cell |ΔT| against the explicit reference.
//!
//! Set `TIMEINT_BENCH_QUICK=1` (CI short mode) to shrink the mesh and
//! the horizon so the run finishes in seconds.

use pbte_bte::scenario::{hotspot_2d, BteConfig};
use pbte_dsl::analysis;
use pbte_dsl::exec::ExecTarget;
use pbte_dsl::problem::{Integrator, KrylovConfig};
use std::time::Instant;

fn quick() -> bool {
    std::env::var("TIMEINT_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Sub-micron kinetic-regime hot spot: Knudsen number well above 1, so
/// the answer is ballistic-dominated and the CFL wall is picoseconds.
fn kinetic_cfg(quick: bool) -> BteConfig {
    let mut cfg = if quick {
        BteConfig::small(12, 6, 3, 1)
    } else {
        BteConfig::small(32, 8, 4, 1)
    };
    cfg.lx = 0.5e-6;
    cfg.ly = 0.5e-6;
    cfg.hot_width = 0.12e-6;
    cfg
}

struct LaneResult {
    name: &'static str,
    integrator: &'static str,
    dt: f64,
    steps: usize,
    reached_t: f64,
    step_equivalents: u64,
    rhs_evals: u64,
    jvp_evals: u64,
    krylov_iters: u64,
    wall_s: f64,
    t_mean: f64,
    t_max: f64,
    temperature: Vec<f64>,
}

fn run_lane(
    name: &'static str,
    iname: &'static str,
    cfg: &BteConfig,
    integrator: Integrator,
    krylov: Option<KrylovConfig>,
    target: &ExecTarget,
) -> LaneResult {
    let mut bte = hotspot_2d(cfg);
    bte.problem.integrator(integrator);
    if let Some(k) = krylov {
        bte.problem.krylov(k);
    }
    let vars = bte.vars;
    let mut solver = bte.solver(target.clone()).expect("valid scenario");
    let dt = solver.compiled.problem.dt;
    let start = Instant::now();
    let report = solver.solve().expect("solve succeeds");
    let wall_s = start.elapsed().as_secs_f64();

    let fields = solver.fields();
    let n_cells = cfg.nx * cfg.ny;
    let temperature: Vec<f64> = (0..n_cells).map(|c| fields.value(vars.t, c, 0)).collect();
    let t_mean = temperature.iter().sum::<f64>() / n_cells as f64;
    let t_max = temperature
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);

    // One explicit step is exactly one RHS sweep; the implicit driver
    // counts its RHS and JVP sweeps itself.
    let step_equivalents = if integrator.is_implicit() {
        report.work.rhs_evals + report.work.jvp_evals
    } else {
        report.steps as u64
    };
    LaneResult {
        name,
        integrator: iname,
        dt,
        steps: report.steps,
        reached_t: dt * report.steps as f64,
        step_equivalents,
        rhs_evals: report.work.rhs_evals,
        jvp_evals: report.work.jvp_evals,
        krylov_iters: report.work.krylov_iters,
        wall_s,
        t_mean,
        t_max,
        temperature,
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    let quick = quick();
    let horizon = if quick { 2e-9 } else { 100e-9 };
    let implicit_steps = if quick { 8 } else { 80 };
    let cfg = kinetic_cfg(quick);
    let target = ExecTarget::CpuParallel;
    let (per_cell, n_dof) = cfg.dof();
    println!(
        "time-integration crossover, kinetic hot spot: {}x{} cells over \
         {:.2} µm, {per_cell} dof/cell = {n_dof} dof, horizon {:.1} ns",
        cfg.nx,
        cfg.ny,
        cfg.lx * 1e6,
        horizon * 1e9
    );

    // The explicit step: probe-compile once with the scenario default,
    // which is the largest *stable* step — min(advective CFL, scattering
    // relaxation 0.9/β_max). In the kinetic regime the relaxation bound
    // is the binding one, so the interval pass's advective `dt=auto`
    // recommendation alone would overstep it (both are recorded in the
    // JSON; the relaxation bound is material physics the abstract
    // interpreter does not model).
    let probe = hotspot_2d(&cfg)
        .solver(ExecTarget::CpuSeq)
        .expect("probe compiles");
    let rec = analysis::recommend_dt(&probe.compiled).expect("advective scenario");
    assert_eq!(rec.policy, "cfl");
    let dt_cfl = rec.dt;
    let dt_stable = probe.compiled.problem.dt.min(dt_cfl);
    println!(
        "CFL bound {dt_cfl:.3e} s (vmax {:.3e} m/s, min width {:.3e} m), \
         stable step {dt_stable:.3e} s -> explicit needs {} steps",
        rec.bound.vmax,
        rec.bound.width_min,
        (horizon / dt_stable).ceil() as usize
    );

    let mut explicit_cfg = cfg.clone();
    explicit_cfg.dt = Some(dt_stable);
    explicit_cfg.n_steps = (horizon / dt_stable).ceil() as usize;

    let mut implicit_cfg = cfg.clone();
    implicit_cfg.dt = Some(horizon / implicit_steps as f64);
    implicit_cfg.n_steps = implicit_steps;
    // Inexact Newton for the transient lane: each θ-step is affine, and
    // its backward-Euler truncation error (~K-scale at horizon-sized
    // steps) dwarfs the linear residual, so solving to the default 1e-9
    // wastes ~5x the matvecs a 1e-2 solve needs with no visible change
    // in the temperature field (measured: max |dT| moves by 0.007 K
    // between tol 1e-3 and 1e-2 at 40 steps, while evals halve).
    let implicit_krylov = KrylovConfig {
        tol: 1e-2,
        ..KrylovConfig::default()
    };

    // Steady seeds SER from the scenario's default stable step and ramps
    // geometrically. The outer iteration is Picard on the frozen
    // temperature coupling (linear, ~2% contraction per step), and the
    // temperature field closes on the explicit reference as the residual
    // drops (0.95 K at 5e-3, 0.58 K at 3e-3, 0.19 K at 1e-3); tol 3e-3
    // balances agreement against the eval budget; the step cap only
    // bounds a failed continuation.
    let steady_tol = 3e-3;
    let mut steady_cfg = cfg.clone();
    steady_cfg.dt = None;
    steady_cfg.n_steps = 400;

    let lanes = [
        run_lane(
            "explicit",
            "explicit",
            &explicit_cfg,
            Integrator::Explicit,
            None,
            &target,
        ),
        run_lane(
            "implicit",
            "implicit (backward Euler)",
            &implicit_cfg,
            Integrator::Implicit { theta: 1.0 },
            Some(implicit_krylov),
            &target,
        ),
        run_lane(
            "steady",
            "pseudo-transient SER",
            &steady_cfg,
            Integrator::Steady {
                tol: steady_tol,
                growth: 2.0,
            },
            None,
            &target,
        ),
    ];
    let [explicit, implicit, steady] = &lanes;

    println!(
        "\n{:<10} {:>11} {:>8} {:>12} {:>10} {:>10} {:>9} {:>9}",
        "lane", "dt (s)", "steps", "step-equivs", "rhs", "jvp", "wall (s)", "Tmax (K)"
    );
    for lane in &lanes {
        println!(
            "{:<10} {:>11.3e} {:>8} {:>12} {:>10} {:>10} {:>9.3} {:>9.3}",
            lane.name,
            lane.dt,
            lane.steps,
            lane.step_equivalents,
            lane.rhs_evals,
            lane.jvp_evals,
            lane.wall_s,
            lane.t_max
        );
    }

    // Stated agreement tolerances against the explicit reference at the
    // horizon. The steady lane lands on the same (settled) field, so it
    // is held to sub-Kelvin agreement; the transient implicit lane pays
    // the operator-split coupling error of horizon-sized steps, a
    // couple of K on the ~35 K hot-spot rise.
    let stated_tol_steady = 0.75;
    let stated_tol_implicit = 2.5;
    let dt_implicit = max_abs_diff(&implicit.temperature, &explicit.temperature);
    let dt_steady = max_abs_diff(&steady.temperature, &explicit.temperature);
    let work_ratio_implicit = explicit.step_equivalents as f64 / implicit.step_equivalents as f64;
    let work_ratio_steady = explicit.step_equivalents as f64 / steady.step_equivalents as f64;
    let wall_ratio_implicit = explicit.wall_s / implicit.wall_s;
    let wall_ratio_steady = explicit.wall_s / steady.wall_s;
    println!(
        "\nimplicit: {work_ratio_implicit:.1}x fewer step-equivalents, \
         {wall_ratio_implicit:.1}x wall speedup, max |dT| {dt_implicit:.3e} K \
         (stated tol {stated_tol_implicit} K)"
    );
    println!(
        "steady:   {work_ratio_steady:.1}x fewer step-equivalents, \
         {wall_ratio_steady:.1}x wall speedup, max |dT| {dt_steady:.3e} K \
         (stated tol {stated_tol_steady} K)"
    );

    // The headline claims, asserted so a regression fails the bench run
    // outright. Quick mode shrinks the horizon to seconds of runtime and
    // with it the explicit step count, so the ratios only carry meaning
    // at full scale.
    if !quick {
        assert!(
            dt_implicit <= stated_tol_implicit && dt_steady <= stated_tol_steady,
            "temperature agreement out of stated tolerance"
        );
        assert!(
            work_ratio_implicit >= 50.0 && work_ratio_steady >= 50.0,
            "implicit lanes must beat explicit by >=50x in step-equivalents"
        );
        assert!(
            wall_ratio_implicit >= 10.0 && wall_ratio_steady >= 10.0,
            "implicit lanes must beat explicit by >=10x in wall-clock"
        );
    }

    let lane_json: Vec<String> = lanes
        .iter()
        .map(|l| {
            format!(
                "    {:?}: {{\"integrator\": {:?}, \"dt_s\": {:.6e}, \"steps\": {}, \
                 \"reached_t_s\": {:.6e}, \"step_equivalents\": {}, \"rhs_evals\": {}, \
                 \"jvp_evals\": {}, \"krylov_iters\": {}, \"wall_s\": {:.4}, \
                 \"t_mean_K\": {:.4}, \"t_max_K\": {:.4}}}",
                l.name,
                l.integrator,
                l.dt,
                l.steps,
                l.reached_t,
                l.step_equivalents,
                l.rhs_evals,
                l.jvp_evals,
                l.krylov_iters,
                l.wall_s,
                l.t_mean,
                l.t_max
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scenario\": \"kinetic_hotspot_2d\",\n  \"quick\": {quick},\n  \
         \"nx\": {}, \"ny\": {}, \"ndirs\": {}, \"nbands\": {},\n  \
         \"lx_m\": {:.3e}, \"n_dof\": {n_dof},\n  \
         \"horizon_s\": {horizon:.3e},\n  \"dt_cfl_s\": {dt_cfl:.6e},\n  \
         \"dt_stable_s\": {dt_stable:.6e},\n  \"lanes\": {{\n{}\n  }},\n  \
         \"work_ratio_implicit\": {work_ratio_implicit:.2},\n  \
         \"work_ratio_steady\": {work_ratio_steady:.2},\n  \
         \"wall_ratio_implicit\": {wall_ratio_implicit:.2},\n  \
         \"wall_ratio_steady\": {wall_ratio_steady:.2},\n  \
         \"max_dT_implicit_K\": {dt_implicit:.4e},\n  \
         \"max_dT_steady_K\": {dt_steady:.4e},\n  \
         \"stated_tol_implicit_K\": {stated_tol_implicit:.1},\n  \
         \"stated_tol_steady_K\": {stated_tol_steady:.1}\n}}\n",
        cfg.nx,
        cfg.ny,
        cfg.ndirs,
        cfg.n_freq_bands,
        cfg.lx,
        lane_json.join(",\n")
    );
    let path = std::env::args()
        .find_map(|a| a.strip_prefix("out=").map(str::to_string))
        .unwrap_or_else(|| "BENCH_timeint.json".into());
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
