//! One workload run: set-up, the seq reference, the timed solves and, in
//! the traced run, the per-layer probes and tables.

use crate::ledger::{json_num, json_str, Ledger};
use crate::workload::{Workload, MAX_THREADS};
use pbte_bte::pbte::parse_pbte;
use pbte_dsl::exec::{phases, CompiledProblem, Recorder};
use pbte_dsl::{analysis, ExecTarget, Fields, Severity, SolveReport, Solver};
use pbte_runtime::world::World;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every run times at least this many solves, however long they take.
const MIN_SOLVES: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub correct: bool,
    /// Solves attempted (a refused scenario counts as one failed solve).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    fn failure(why: String) -> Outcome {
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            notes: vec![format!("FAILED: {why}")],
        }
    }
}

/// Seconds of each public call on the set-up path.
#[derive(Clone, Copy)]
struct SetupTimes {
    parse: f64,
    build: f64,
    compile: f64,
    plan: f64,
    units: f64,
    intervals: f64,
    total: f64,
}

struct Ready {
    solver: Solver,
    /// The material table's temperature range; a result outside it is
    /// wrong.
    envelope: (f64, f64),
    times: SetupTimes,
}

/// Generated text to a verified solver: the `build_verified` gate made of
/// public calls so each one can be timed. With a ledger, each call gets a
/// span under one `setup` span.
fn setup(text: &str, target: ExecTarget, ledger: Option<&mut Ledger>) -> Result<Ready, String> {
    let t0 = Instant::now();
    let spec = parse_pbte(text).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let bte = spec.build().map_err(|e| format!("scenario build: {e}"))?;
    let t2 = Instant::now();
    let solver = Solver::build(bte.problem, target).map_err(|e| format!("compile: {e:?}"))?;
    let t3 = Instant::now();
    let mut diags = solver.compiled.verify_plan(&solver.target);
    let t4 = Instant::now();
    analysis::check_units(&solver.compiled, &mut diags);
    let t5 = Instant::now();
    analysis::check_intervals(&solver.compiled, &mut diags);
    let t6 = Instant::now();
    if let Some(l) = ledger {
        let root = l.push("setup", None, t0, t6);
        for (name, a, b) in [
            ("bte.pbte.parse", t0, t1),
            ("bte.scenario.build", t1, t2),
            ("core.pipeline.compile", t2, t3),
            ("core.analysis.plan", t3, t4),
            ("core.analysis.units", t4, t5),
            ("core.analysis.intervals", t5, t6),
        ] {
            l.push(name, Some(root), a, b);
        }
        l.attribute(root);
    }
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.render())
        .collect();
    if !errors.is_empty() {
        return Err(format!("refused by the verifier: {}", errors.join("; ")));
    }
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Ready {
        solver,
        envelope: (spec.t_ref - 60.0, spec.t_hot + 60.0),
        times: SetupTimes {
            parse: secs(t0, t1),
            build: secs(t1, t2),
            compile: secs(t2, t3),
            plan: secs(t3, t4),
            units: secs(t4, t5),
            intervals: secs(t5, t6),
            total: secs(t0, t6),
        },
    })
}

fn temperature(fields: &Fields) -> Result<&[f64], String> {
    let t = fields.var_id("T").ok_or("the scenario has no `T` field")?;
    Ok(fields.slice(t))
}

/// Final `T` of the same scenario on `target=seq` (untimed).
fn reference(text: &str) -> Result<Vec<f64>, String> {
    let mut r = setup(text, ExecTarget::CpuSeq, None).map_err(|e| format!("reference: {e}"))?;
    r.solver
        .solve()
        .map_err(|e| format!("reference solve: {e:?}"))?;
    Ok(temperature(r.solver.fields())?.to_vec())
}

/// The correctness oracle for one solve: finite, inside the table
/// envelope, and equal to the seq reference (bit for bit when `tol` is 0).
fn check(fields: &Fields, reference: &[f64], (lo, hi): (f64, f64), tol: f64) -> Result<(), String> {
    let t = temperature(fields)?;
    if let Some(i) = t.iter().position(|v| !v.is_finite()) {
        return Err(format!("T[{i}] is not finite"));
    }
    if let Some(i) = t.iter().position(|&v| v < lo || v > hi) {
        return Err(format!(
            "T[{i}] = {} K leaves the table range [{lo}, {hi}] K",
            t[i]
        ));
    }
    if t.len() != reference.len() {
        return Err("T has a different length from the seq reference".into());
    }
    let exact = t
        .iter()
        .zip(reference)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let max = t
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    if !exact && max > tol {
        return Err(format!(
            "T differs from the seq reference by up to {max:e} K (allowed {tol:e} K)"
        ));
    }
    Ok(())
}

struct Solved {
    wall: f64,
    start: Instant,
    report: SolveReport,
    /// The recorder of a traced solve and when it was created.
    rec: Option<(Instant, Recorder)>,
}

/// Restore the post-set-up state (untimed), then time one solve and
/// check its result.
fn solve_once(
    ready: &mut Ready,
    snapshot: &Fields,
    reference: &[f64],
    tol: f64,
    traced: bool,
) -> Result<Solved, String> {
    let fields = ready.solver.fields_mut();
    for v in 0..snapshot.n_vars() {
        fields.slice_mut(v).copy_from_slice(snapshot.slice(v));
    }
    let mut rec = traced.then(|| (Instant::now(), Recorder::buffered()));
    let start = Instant::now();
    let result = match &mut rec {
        Some((_, r)) => ready.solver.solve_traced(r),
        None => ready.solver.solve(),
    };
    let wall = start.elapsed().as_secs_f64();
    let report = result.map_err(|e| format!("solve returned an error: {e:?}"))?;
    check(ready.solver.fields(), reference, ready.envelope, tol)?;
    Ok(Solved {
        wall,
        start,
        report,
        rec,
    })
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of the samples (0 when there are none).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x.fract());
    if i + 1 < s.len() {
        s[i] + f * (s[i + 1] - s[i])
    } else {
        s[i]
    }
}

/// The process's resident-set high-water mark, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let text = w.scenario_text(seed);
    let mut notes = Vec::new();
    let saved =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join("scenario.pbte"), &text));
    match saved {
        Ok(()) => notes.push(format!("scenario: {}", dir.join("scenario.pbte").display())),
        Err(e) => notes.push(format!(
            "cannot save the scenario under {}: {e}",
            dir.display()
        )),
    }
    let mut outcome = run_text(w, &text, seconds, trace, dir);
    notes.append(&mut outcome.notes);
    outcome.notes = notes;
    outcome
}

/// Run a workload on the given scenario text.
fn run_text(w: Workload, text: &str, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    let reference = match reference(text) {
        Ok(r) => r,
        Err(e) => return Outcome::failure(e),
    };
    let run_id = format!(
        "{}-{}-{}",
        w.name(),
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis())
    );
    let mut ledger = trace.then(|| Ledger::new(run_id));

    // Set-ups are spread evenly over the timed window, so `setup_s`
    // samples the same machine states as the solves; the window is
    // extended by the time they take. Each new solver replaces the last
    // (at most one is alive). The traced run alternates untraced and
    // traced solves for the same reason.
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut setup_time = Duration::ZERO;
    let mut setups = Vec::new();
    let mut ready: Option<Ready> = None;
    let mut snapshot: Option<Fields> = None;
    let mut untraced: Vec<Solved> = Vec::new();
    let mut traced: Vec<Solved> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut next_traced = false;
    loop {
        let solving = start.elapsed().saturating_sub(setup_time);
        let share = setups.len() as f64 / w.setups() as f64;
        if setups.len() < w.setups() && solving >= window.mul_f64(share) {
            drop(ready.take());
            let t = Instant::now();
            match setup(text, w.target(), ledger.as_mut()) {
                Ok(r) => {
                    setups.push(r.times);
                    ready = Some(r);
                }
                Err(e) => return Outcome::failure(e),
            }
            setup_time += t.elapsed();
            continue;
        }
        let enough = untraced.len() >= MIN_SOLVES && (!trace || traced.len() >= MIN_SOLVES);
        if solving >= window && setups.len() == w.setups() && enough {
            break;
        }
        if failed > 0 && failed == attempted && attempted >= MIN_SOLVES as u64 {
            break; // nothing succeeds; stop instead of spinning to the deadline
        }
        let r = ready.as_mut().expect("the first set-up is due at once");
        let snap = snapshot.get_or_insert_with(|| r.solver.fields().clone());
        attempted += 1;
        match solve_once(r, snap, &reference, w.tolerance_k(), next_traced) {
            Ok(s) if next_traced => traced.push(s),
            Ok(s) => untraced.push(s),
            Err(e) => {
                failed += 1;
                if failures.len() < 3 {
                    failures.push(e);
                }
            }
        }
        next_traced = trace && !next_traced;
    }
    let mut ready = ready.expect("every set-up succeeded");
    let snapshot = snapshot.expect("at least one solve ran");
    let par_ratio = if trace && w == Workload::HotspotSeq && failed == 0 {
        match par_over_seq(text, &mut ready, &snapshot, &reference) {
            Ok(r) => r,
            Err(e) => return Outcome::failure(format!("target=par: {e}")),
        }
    } else {
        0.0
    };

    let walls: Vec<f64> = untraced.iter().map(|s| s.wall).collect();
    let mut notes: Vec<String> = failures
        .iter()
        .map(|e| format!("FAILED solve: {e}"))
        .collect();
    let fail_frac = failed as f64 / attempted as f64;
    notes.push(format!(
        "fail_frac = {fail_frac} ({failed} of {attempted} solves failed)"
    ));
    let metrics = if trace {
        traced_metrics(
            w,
            &ready,
            par_ratio,
            &snapshot,
            &setups,
            &walls,
            &mut traced,
            ledger.as_mut(),
            dir,
            &mut notes,
        )
    } else {
        end_to_end_metrics(&setups, &untraced, &mut notes)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => return Outcome::failure(e),
    };
    Outcome {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn end_to_end_metrics(
    setups: &[SetupTimes],
    solves: &[Solved],
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let walls: Vec<f64> = solves.iter().map(|s| s.wall).collect();
    let totals: Vec<f64> = setups.iter().map(|t| t.total).collect();
    let dof: u64 = solves.iter().map(|s| s.report.work.dof_updates).sum();
    let dof_per_solve = dof as f64 / walls.len() as f64;
    // Timings are 90th percentiles, not medians. On a shared host the
    // process runs in one of two states: a contended one (steady, about
    // 1.4x slower) and an uncontended one (faster, scattered), and the
    // mix of the two differs from run to run. A median or a mean follows
    // that mix; the 90th percentile sits on the contended state in every
    // run that spends a tenth of its time there.
    let solve_p90 = quantile(&walls, 0.9);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: quantile(&totals, 0.9),
            unit: "s",
        },
        Metric {
            name: "solve_s_p90",
            value: solve_p90,
            unit: "s",
        },
        Metric {
            name: "dof_per_s",
            value: dof_per_solve / solve_p90,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss_mib()?,
            unit: "MiB",
        },
    ];
    for m in &metrics {
        notes.push(format!("{} = {} {}", m.name, m.value, m.unit));
    }
    notes.push(format!(
        "solve_s_p90 over n = {} solves ({} beyond it; p25 {:.6} s, p50 {:.6} s, p75 {:.6} s); \
         dof_per_s = {dof_per_solve} dof per solve / solve_s_p90 (over all solves: {:.6e} 1/s); \
         setup_s over {} set-ups (p50 {:.6} s); {} thread(s) available",
        walls.len(),
        walls.iter().filter(|&&w| w > solve_p90).count(),
        quantile(&walls, 0.25),
        median(&walls),
        quantile(&walls, 0.75),
        dof as f64 / walls.iter().sum::<f64>(),
        setups.len(),
        median(&totals),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    Ok(metrics)
}

/// Host phases are wall seconds; the GPU lineage's device phases are
/// simulated-device seconds.
fn is_simdev(phase: &str) -> bool {
    phase == phases::INTENSITY_GPU || phase == phases::COMM_GPU
}

/// Per-layer metric name of each phase the executors report.
const PHASE_METRICS: [(&str, &str); 6] = [
    (
        phases::INTENSITY,
        "core.exec.phase.solve_for_intensity_wall_s",
    ),
    (
        phases::TEMPERATURE,
        "core.exec.phase.temperature_update_wall_s",
    ),
    (
        phases::COMMUNICATION,
        "core.exec.phase.communication_wall_s",
    ),
    (
        phases::TEMPERATURE_CPU,
        "core.exec.phase.temperature_update_cpu_wall_s",
    ),
    (
        phases::INTENSITY_GPU,
        "core.exec.phase.solve_for_intensity_gpu_simdev_s",
    ),
    (
        phases::COMM_GPU,
        "core.exec.phase.communication_cpu_gpu_simdev_s",
    ),
];

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    w: Workload,
    ready: &Ready,
    par_ratio: f64,
    snapshot: &Fields,
    setups: &[SetupTimes],
    untraced_walls: &[f64],
    traced: &mut [Solved],
    ledger: Option<&mut Ledger>,
    dir: &Path,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let ledger = ledger.expect("the traced run keeps a ledger");
    let first = &traced.first().ok_or("no traced solve succeeded")?.report;
    let work = first.work;
    let steps = first.steps.max(1) as f64;
    let comm = first.comm;
    // Simulated-device profile of one solve: h2d and d2h bytes, kernel
    // and transfer simdev seconds, SM and memory-bandwidth utilisation.
    let dev = first.device.as_ref().map_or([0.0; 6], |d| {
        [
            d.h2d.bytes as f64 / steps,
            d.d2h.bytes as f64 / steps,
            d.kernel_time(),
            d.transfer_time(),
            d.sm_utilization(),
            d.memory_fraction(),
        ]
    });
    if let Some(s) = traced
        .iter()
        .find(|s| s.report.work != work || s.report.comm != comm)
    {
        return Err(format!(
            "work or comm counters are not exact across solves: {:?} {:?} vs {:?} {:?}",
            s.report.work, s.report.comm, work, comm
        ));
    }
    let n = traced.len() as f64;

    // Nest each recorder's spans under a benchmark `solve` span.
    let mut spans = 0usize;
    for s in traced.iter_mut() {
        let root = ledger.push(
            "solve",
            None,
            s.start,
            s.start + Duration::from_secs_f64(s.wall),
        );
        let (rec_epoch, rec) = s.rec.take().expect("traced solves carry a recorder");
        spans += rec.spans().len();
        ledger.import(root, rec_epoch, rec.spans());
        ledger.attribute(root);
    }

    // Phase ledger: summed over the traced solves.
    let traced_wall: f64 = traced.iter().map(|s| s.wall).sum();
    let mut phase_sum: BTreeMap<String, f64> = BTreeMap::new();
    for s in traced.iter() {
        for (name, secs) in s.report.timer.phases() {
            *phase_sum.entry(name.to_string()).or_insert(0.0) += secs;
        }
    }
    let wall_phases: f64 = phase_sum
        .iter()
        .filter(|(k, _)| !is_simdev(k))
        .map(|(_, v)| v)
        .sum();
    let unattributed = traced_wall - wall_phases;
    let temperature = phase_sum.get(phases::TEMPERATURE).copied().unwrap_or(0.0)
        + phase_sum
            .get(phases::TEMPERATURE_CPU)
            .copied()
            .unwrap_or(0.0);

    let cp = &ready.solver.compiled;
    let kernel_ns = kernel_ns_per_dof(cp, snapshot);
    let untraced_p50 = median(untraced_walls);
    let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall).collect();
    let (allreduce_us, p2p_us) = if comm.messages > 0 {
        world_us((comm.bytes / comm.messages as u64 / 8) as usize)
    } else {
        (0.0, 0.0)
    };
    let mem = cp.memory_report();
    let mib = |b: usize| b as f64 / (1u64 << 20) as f64;
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut metrics = vec![
        m("bte.pbte.parse_s", med(|t| t.parse), "s"),
        m("bte.scenario.build_s", med(|t| t.build), "s"),
        m("core.pipeline.compile_s", med(|t| t.compile), "s"),
        m("core.analysis.plan_s", med(|t| t.plan), "s"),
        m("core.analysis.units_s", med(|t| t.units), "s"),
        m("core.analysis.intervals_s", med(|t| t.intervals), "s"),
        m("core.exec.rows.kernel_ns_per_dof", kernel_ns, "ns"),
        m(
            "core.exec.kernel_share",
            kernel_ns * 1e-9 * work.dof_updates as f64 / untraced_p50,
            "ratio",
        ),
    ];
    for (phase, name) in PHASE_METRICS {
        let unit = if is_simdev(phase) { "simdev_s" } else { "s" };
        metrics.push(m(
            name,
            phase_sum.get(phase).copied().unwrap_or(0.0) / n,
            unit,
        ));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.extend([
        m(
            "core.exec.unattributed_frac",
            unattributed / traced_wall,
            "ratio",
        ),
        m(
            "bte.temperature.newton_per_solve",
            ratio(work.newton_iters, work.temperature_solves),
            "count",
        ),
        m("bte.temperature.share", temperature / traced_wall, "ratio"),
        m(
            "core.exec.implicit.krylov_per_step",
            work.krylov_iters as f64 / steps,
            "count",
        ),
        m(
            "core.exec.implicit.jvp_per_step",
            work.jvp_evals as f64 / steps,
            "count",
        ),
        m(
            "core.exec.implicit.rhs_per_step",
            work.rhs_evals as f64 / steps,
            "count",
        ),
        m(
            "runtime.world.comm_bytes_per_step",
            comm.bytes as f64 / steps,
            "B",
        ),
        m(
            "runtime.world.comm_msgs_per_step",
            comm.messages as f64 / steps,
            "count",
        ),
        m("runtime.world.allreduce_us", allreduce_us, "us"),
        m("runtime.world.p2p_us", p2p_us, "us"),
        m("gpu.h2d_bytes_per_step", dev[0], "B"),
        m("gpu.d2h_bytes_per_step", dev[1], "B"),
        m("gpu.kernel_simdev_s", dev[2], "simdev_s"),
        m("gpu.transfer_simdev_s", dev[3], "simdev_s"),
        m("gpu.sm_util", dev[4], "ratio"),
        m("gpu.membw_util", dev[5], "ratio"),
        m("core.exec.par.solve_ratio", par_ratio, "ratio"),
        m("shims.rayon.fork_join_us", fork_join_us(), "us"),
        m(
            "runtime.telemetry.overhead_frac",
            median(&traced_walls) / untraced_p50 - 1.0,
            "ratio",
        ),
        m(
            "runtime.telemetry.spans_per_step",
            spans as f64 / (n * steps),
            "count",
        ),
        m("work.dof_updates", work.dof_updates as f64, "count"),
        m("work.flux_evals", work.flux_evals as f64, "count"),
        m("work.ghost_evals", work.ghost_evals as f64, "count"),
        m("work.newton_iters", work.newton_iters as f64, "count"),
        m(
            "work.temperature_solves",
            work.temperature_solves as f64,
            "count",
        ),
        m("work.rhs_evals", work.rhs_evals as f64, "count"),
        m("work.jvp_evals", work.jvp_evals as f64, "count"),
        m("work.krylov_iters", work.krylov_iters as f64, "count"),
        m("core.exec.fields_mib", mib(mem.fields_bytes), "MiB"),
        m("core.exec.device_mib", mib(mem.device_bytes), "MiB"),
    ]);

    let tables = layer_tables(w, &phase_sum, traced_wall, traced.len(), ledger);
    notes.extend(tables.lines().map(str::to_string));
    notes.push(format!(
        "per-layer values: {} traced and {} untraced solves, {MAX_THREADS} threads/ranks at most",
        traced.len(),
        untraced_walls.len()
    ));
    write_artifacts(dir, ledger, &tables, &metrics, notes);
    Ok(metrics)
}

/// The three layer tables of the traced run, as text.
fn layer_tables(
    w: Workload,
    phase_sum: &BTreeMap<String, f64>,
    traced_wall: f64,
    n: usize,
    ledger: &Ledger,
) -> String {
    let mut t = String::new();
    let pct = |v: f64, total: f64| 100.0 * v / total;
    let _ = writeln!(
        t,
        "layer table for {} ({n} traced solves, {traced_wall:.6} s of solve wall)",
        w.name()
    );
    let _ = writeln!(t, "  phase ledger (SolveReport.timer), wall seconds:");
    let mut sum = 0.0;
    for (k, v) in phase_sum.iter().filter(|(k, _)| !is_simdev(k)) {
        let _ = writeln!(t, "    {k:<40} {v:>12.6} s {:>6.1}%", pct(*v, traced_wall));
        sum += v;
    }
    let un = traced_wall - sum;
    let _ = writeln!(
        t,
        "    {:<40} {un:>12.6} s {:>6.1}%",
        "unattributed",
        pct(un, traced_wall)
    );
    let _ = writeln!(t, "    {:<40} {:>12.6} s", "= solve wall", sum + un);
    let simdev: Vec<_> = phase_sum.iter().filter(|(k, _)| is_simdev(k)).collect();
    if !simdev.is_empty() {
        let _ = writeln!(
            t,
            "  simulated-device seconds (roofline model clock; never added to wall seconds):"
        );
        for (k, v) in simdev {
            let _ = writeln!(t, "    {k:<40} {v:>12.6} simdev_s");
        }
    }
    for (root, residual, title) in [
        (
            "solve",
            "(solve outside any recorder span)",
            "span self times of rank 0",
        ),
        ("setup", "(set-up between calls)", "set-up span self times"),
    ] {
        let (rows, total) = ledger.self_table(root, residual);
        let _ = writeln!(t, "  {title}, wall seconds:");
        for (k, v) in &rows {
            let _ = writeln!(t, "    {k:<40} {v:>12.6} s {:>6.1}%", pct(*v, total));
        }
        let _ = writeln!(t, "    {:<40} {:>12.6} s", format!("= {root} wall"), total);
    }
    t
}

fn write_artifacts(
    dir: &Path,
    ledger: &Ledger,
    tables: &str,
    metrics: &[Metric],
    notes: &mut Vec<String>,
) {
    let layers: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "  {}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let files = [
        ("trace.json", ledger.chrome_trace()),
        ("layers.txt", tables.to_string()),
        ("layers.json", format!("{{\n{}\n}}\n", layers.join(",\n"))),
    ];
    for (name, body) in files {
        let path = dir.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => notes.push(format!("wrote {}", path.display())),
            Err(e) => notes.push(format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// Solves timed on each target by `par_over_seq`.
const PAR_PAIRS: usize = 15;

/// Median `target=par` solve wall ÷ median `target=seq` solve wall on the
/// same scenario, the two solved in alternation so both see the same
/// machine states. The par solver is built untimed and must match the seq
/// reference bit for bit, like every other solve.
fn par_over_seq(
    text: &str,
    seq: &mut Ready,
    snapshot: &Fields,
    reference: &[f64],
) -> Result<f64, String> {
    let mut par = setup(text, ExecTarget::CpuParallel, None)?;
    let par_snapshot = par.solver.fields().clone();
    let (mut seq_walls, mut par_walls) = (Vec::new(), Vec::new());
    for _ in 0..PAR_PAIRS {
        seq_walls.push(solve_once(seq, snapshot, reference, 0.0, false)?.wall);
        par_walls.push(solve_once(&mut par, &par_snapshot, reference, 0.0, false)?.wall);
    }
    Ok(median(&par_walls) / median(&seq_walls))
}

/// Median ns per dof of the row-tier RHS sweep alone, on the post-set-up
/// state, single-threaded.
fn kernel_ns_per_dof(cp: &CompiledProblem, fields: &Fields) -> f64 {
    let mut bench = cp.intensity_bench(fields, cp.resolved_tier());
    let dof = fields.n_cells * cp.n_flat;
    let mut rhs = vec![0.0; dof];
    bench.run(fields, &mut rhs);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed().as_secs_f64() < 0.5 && samples.len() < 200) {
        let t = Instant::now();
        bench.run(black_box(fields), black_box(&mut rhs));
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples) * 1e9 / dof as f64
}

/// Microseconds per 2-rank allreduce of one exact-dot transport image,
/// and per one-way point-to-point message of `msg_len` f64s, timed with
/// the runtime's own `World`.
fn world_us(msg_len: usize) -> (f64, f64) {
    const REPS: u32 = 1000;
    let per_rank = World::run(MAX_THREADS, |ctx| {
        let mut buf = vec![0.0; pbte_runtime::exact::TRANSPORT_LEN];
        ctx.barrier();
        let t = Instant::now();
        for _ in 0..REPS {
            ctx.allreduce_sum(&mut buf);
        }
        let allreduce = t.elapsed().as_secs_f64() / f64::from(REPS);
        ctx.barrier();
        let payload = vec![0.5; msg_len];
        let t = Instant::now();
        for _ in 0..REPS {
            if ctx.rank == 0 {
                ctx.send(1, 7, payload.clone());
                black_box(ctx.recv(1, 7));
            } else {
                let m = ctx.recv(0, 7);
                ctx.send(0, 7, m);
            }
        }
        let p2p = t.elapsed().as_secs_f64() / f64::from(2 * REPS);
        (allreduce * 1e6, p2p * 1e6)
    });
    per_rank[0]
}

/// Median microseconds of one two-chunk `par_chunks_mut` fork-join on
/// two threads, through the rayon shim's public API.
fn fork_join_us() -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(MAX_THREADS)
        .build()
        .expect("the rayon shim never fails to build a pool");
    let mut buf = vec![0.0f64; 2 * 1024];
    let mut samples = Vec::with_capacity(300);
    pool.install(|| {
        for _ in 0..300 {
            let t = Instant::now();
            black_box(&mut buf)
                .par_chunks_mut(1024)
                .for_each(|c| c[0] += 1.0);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broken_units_scenario_is_counted_as_failed_not_aborted() {
        let text = format!(
            "{}\n[units]\nIo = W/m^3\n",
            Workload::HotspotSeq.scenario_text(1)
        );
        // Untraced, so nothing is written.
        let o = run_text(Workload::HotspotSeq, &text, 0.1, false, Path::new("unused"));
        assert!(!o.correct);
        assert_eq!((o.attempted, o.failed), (1, 1));
        assert!(
            o.notes[0].contains("refused by the verifier"),
            "{:?}",
            o.notes
        );
    }

    #[test]
    fn generated_scenarios_repeat_and_fix_the_work_size() {
        for w in crate::workload::ALL {
            assert_eq!(w.scenario_text(7), w.scenario_text(7));
            let a = parse_pbte(&w.scenario_text(1)).unwrap();
            let b = parse_pbte(&w.scenario_text(2)).unwrap();
            assert_eq!(a.mesh, b.mesh);
            assert_eq!(a.material, b.material);
            assert_eq!(a.n_steps, b.n_steps);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
