//! The face-batched ghost fill equals the per-dof boundary formula.
//!
//! `BoundaryCondition::fill_face` writes one boundary face's ghost column
//! in a single call. For the BTE walls that call hoists the per-face work
//! (the wall temperature, the `I` lookup, each direction's reflection), so
//! this suite pins every ghost it writes to the formula of the paper's
//! Eq. 6, evaluated independently per (face, flat):
//!
//! * isothermal: `io(b, T_wall(x_face))`;
//! * symmetry: `I` at the owner cell in the reflected direction `r(d)`.
//!
//! It covers the hot-spot builder and the whole committed `.pbte`
//! library, including the unstructured Gmsh mesh and the 3-D MEDIT die,
//! checks that a strict subset of flats writes exactly those entries, and
//! that the per-flat condition forms (`Value`, `Callback`, and a per-flat
//! function declared through `callback_reading`) fill what the per-flat
//! function returns and what `ghost_value` returns.

use pbte_bte::boundary::gaussian_wall;
use pbte_bte::material::Material;
use pbte_bte::pbte::{BcSpec, ScenarioSpec};
use pbte_bte::scenario::{hotspot_2d, BteConfig, BteProblem};
use pbte_dsl::exec::CompiledProblem;
use pbte_dsl::problem::{BoundaryCondition, BoundaryQuery, FaceQuery};
use pbte_dsl::Fields;
use pbte_mesh::Point;
use std::path::Path;
use std::sync::Arc;

/// What a wall's ghost must be, computed without the face-batched code.
enum Wall {
    Isothermal(Box<dyn Fn(Point) -> f64>),
    Symmetry,
}

struct Case {
    name: String,
    cp: CompiledProblem,
    fields: Fields,
    material: Arc<Material>,
    i_var: usize,
    /// Region name → expected wall.
    walls: Vec<(String, Wall)>,
}

/// Deterministic distinct values in [1, 2).
fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1.0 + (x >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn case(name: &str, bte: BteProblem, walls: Vec<(String, Wall)>) -> Case {
    let material = bte.material.clone();
    let i_var = bte.vars.i;
    let (cp, mut fields) = CompiledProblem::compile(bte.problem).expect("compiles");
    // Give every (cell, flat) of `I` its own value, so reading the wrong
    // cell or the wrong direction cannot go unnoticed.
    let n = fields.slice(i_var).len();
    fields
        .slice_mut(i_var)
        .copy_from_slice(&noise(n, 0x9e37 + n as u64));
    Case {
        name: name.to_string(),
        cp,
        fields,
        material,
        i_var,
        walls,
    }
}

/// The `hotspot_2d` builder and the four committed scenarios.
fn cases() -> Vec<Case> {
    let cfg = BteConfig::small(10, 8, 4, 1);
    let hot = gaussian_wall(
        cfg.t_ref,
        cfg.t_hot,
        Point::xy(cfg.lx * 0.5, cfg.ly),
        cfg.hot_width,
    );
    let t_ref = cfg.t_ref;
    let mut out = vec![case(
        "hotspot_2d",
        hotspot_2d(&cfg),
        vec![
            ("bottom".into(), Wall::Isothermal(Box::new(move |_| t_ref))),
            ("top".into(), Wall::Isothermal(Box::new(hot))),
            ("left".into(), Wall::Symmetry),
            ("right".into(), Wall::Symmetry),
        ],
    )];
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    for stem in ["hotspot", "hotspot_array", "die3d", "pulse_train"] {
        let spec = ScenarioSpec::from_file(dir.join(format!("{stem}.pbte")))
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        let walls = spec
            .boundaries
            .iter()
            .map(|(region, bc)| (region.clone(), expected_wall(bc)))
            .collect();
        let bte = spec.build().unwrap_or_else(|e| panic!("{stem}: {e}"));
        out.push(case(stem, bte, walls));
    }
    out
}

/// The wall temperature a `.pbte` condition specifies, written out from
/// its definition: a constant, or `t_ref` plus one Gaussian per centre.
fn expected_wall(bc: &BcSpec) -> Wall {
    match bc.clone() {
        BcSpec::Isothermal { t } => Wall::Isothermal(Box::new(move |_| t)),
        BcSpec::Hotspots {
            t_ref,
            t_peak,
            width,
            centers,
        } => match centers.as_slice() {
            [c] => Wall::Isothermal(Box::new(gaussian_wall(t_ref, t_peak, *c, width))),
            _ => Wall::Isothermal(Box::new(move |p: Point| {
                let mut t = t_ref;
                for c in &centers {
                    let (dx, dy, dz) = (p.x - c.x, p.y - c.y, p.z - c.z);
                    let d2 = dx * dx + dy * dy + dz * dz;
                    t += (t_peak - t_ref) * (-2.0 * d2 / (width * width)).exp();
                }
                t
            })),
        },
        BcSpec::Symmetry => Wall::Symmetry,
    }
}

/// Every boundary face of the case's mesh with its condition and the
/// expected wall of its region.
fn faces(c: &Case) -> Vec<(usize, &BoundaryCondition, &Wall)> {
    let mesh = c.cp.mesh();
    let mut out = Vec::new();
    for (_, region, bc) in &c.cp.problem.boundary_conditions {
        let rid = mesh.region_id(region).expect("region exists");
        let wall = &c
            .walls
            .iter()
            .find(|(r, _)| r == region)
            .unwrap_or_else(|| panic!("{}: no expected wall for `{region}`", c.name))
            .1;
        for &fid in &mesh.boundary_regions[rid].faces {
            out.push((fid, bc, wall));
        }
    }
    assert_eq!(
        out.len(),
        mesh.boundary_faces().count(),
        "{}: every boundary face has a condition",
        c.name
    );
    out
}

fn face_query<'a>(c: &'a Case, fid: usize, flats: &'a [usize], time: f64) -> FaceQuery<'a> {
    let face = &c.cp.mesh().faces[fid];
    FaceQuery {
        position: face.centroid,
        normal: face.normal,
        owner_cell: face.owner,
        flats,
        idx_of_flat: &c.cp.idx_of_flat,
        time,
        fields: &c.fields,
    }
}

fn ghost_value(c: &Case, bc: &BoundaryCondition, fid: usize, flat: usize, time: f64) -> f64 {
    let face = &c.cp.mesh().faces[fid];
    bc.ghost_value(&BoundaryQuery {
        position: face.centroid,
        normal: face.normal,
        owner_cell: face.owner,
        idx: &c.cp.idx_of_flat[flat],
        time,
        fields: &c.fields,
    })
}

/// Fill `flats` of one face into a column pre-set to a sentinel; check
/// exactly those entries changed and return the column.
fn fill(c: &Case, bc: &BoundaryCondition, fid: usize, flats: &[usize], time: f64) -> Vec<f64> {
    const SENTINEL: f64 = -12345.5;
    let mut column = vec![SENTINEL; c.cp.n_flat];
    bc.fill_face(&face_query(c, fid, flats, time), &mut column);
    for (flat, v) in column.iter().enumerate() {
        if !flats.contains(&flat) {
            assert_eq!(
                v.to_bits(),
                SENTINEL.to_bits(),
                "{}: face {fid} wrote flat {flat} outside {flats:?}",
                c.name
            );
        }
    }
    column
}

/// Every third flat: a strict, non-contiguous subset.
fn subset(n_flat: usize) -> Vec<usize> {
    let s: Vec<usize> = (0..n_flat).filter(|f| f % 3 == 1).collect();
    assert!(!s.is_empty() && s.len() < n_flat);
    s
}

#[test]
fn face_fill_matches_the_per_dof_wall_formula() {
    for c in cases() {
        let n_flat = c.cp.n_flat;
        let n_bands = c.material.n_bands();
        let all: Vec<usize> = (0..n_flat).collect();
        let some = subset(n_flat);
        let mesh = c.cp.mesh();
        let (mut n_iso, mut n_sym) = (0, 0);
        for (fid, bc, wall) in faces(&c) {
            assert!(
                matches!(bc, BoundaryCondition::FaceCallback { .. }),
                "{}: BTE walls are face-batched",
                c.name
            );
            let face = &mesh.faces[fid];
            let column = fill(&c, bc, fid, &all, 0.0);
            for (flat, got) in column.iter().enumerate() {
                let (d, b) = (c.cp.idx_of_flat[flat][0], c.cp.idx_of_flat[flat][1]);
                let want = match wall {
                    Wall::Isothermal(t_wall) => c.material.table.io(b, t_wall(face.centroid)),
                    Wall::Symmetry => {
                        let r = c.material.angles.reflect(d, face.normal);
                        c.fields.value(c.i_var, face.owner, r * n_bands + b)
                    }
                };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: face {fid} flat {flat} (d {d}, b {b})",
                    c.name
                );
                // The one-flat query of the same condition agrees.
                assert_eq!(
                    ghost_value(&c, bc, fid, flat, 0.0).to_bits(),
                    want.to_bits(),
                    "{}: ghost_value at face {fid} flat {flat}",
                    c.name
                );
            }
            let part = fill(&c, bc, fid, &some, 0.0);
            for &flat in &some {
                assert_eq!(part[flat].to_bits(), column[flat].to_bits());
            }
            match wall {
                Wall::Isothermal(_) => n_iso += 1,
                Wall::Symmetry => n_sym += 1,
            }
        }
        assert!(
            n_iso > 0 && n_sym > 0,
            "{}: both wall kinds covered",
            c.name
        );
    }
}

#[test]
fn per_flat_forms_fill_what_ghost_value_returns() {
    let time = 2.5e-9;
    for c in cases() {
        let i_var = c.i_var;
        let probe = move |q: &BoundaryQuery| {
            q.position.x * 3.0 + q.position.y - 2.0 * q.normal.x + q.normal.z - q.owner_cell as f64
                + (7 * q.idx[0] + q.idx[1]) as f64 * 0.25
                + q.time * 1e9
                + q.fields.value(i_var, q.owner_cell, q.idx[1])
        };
        let forms = [
            BoundaryCondition::Value(1.75),
            BoundaryCondition::Callback(Arc::new(probe)),
            BoundaryCondition::callback_reading(&["I"], probe),
        ];
        let n_flat = c.cp.n_flat;
        let all: Vec<usize> = (0..n_flat).collect();
        let some = subset(n_flat);
        for (fid, _, _) in faces(&c) {
            for bc in &forms {
                let column = fill(&c, bc, fid, &all, time);
                let part = fill(&c, bc, fid, &some, time);
                for flat in 0..n_flat {
                    let want = match bc {
                        BoundaryCondition::Value(v) => *v,
                        _ => probe(&face_query(&c, fid, &[], time).at(flat)),
                    };
                    assert_eq!(
                        column[flat].to_bits(),
                        want.to_bits(),
                        "{}: {bc:?} face {fid} flat {flat}",
                        c.name
                    );
                    assert_eq!(
                        ghost_value(&c, bc, fid, flat, time).to_bits(),
                        want.to_bits(),
                        "{}: {bc:?} ghost_value at face {fid} flat {flat}",
                        c.name
                    );
                    if some.contains(&flat) {
                        assert_eq!(part[flat].to_bits(), want.to_bits());
                    }
                }
            }
        }
    }
}
