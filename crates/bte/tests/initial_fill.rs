//! `Solver::build` fills every variable's initial condition. This pins
//! that fill against a pointwise reference evaluated straight from
//! `problem.initials`, one `(var, cell, flat)` at a time with an
//! independent mixed-radix index decode, bit for bit. Every init closure
//! is a pure function of `(centroid, idx)`, so the order in which the
//! fill visits the dofs must not show in the result.

use pbte_bte::pbte::ScenarioSpec;
use pbte_bte::scenario::hotspot_2d;
use pbte_bte::BteConfig;
use pbte_dsl::{ExecTarget, Problem};
use std::path::Path;

/// Expected storage of every variable, in `Fields` order
/// (`flat * n_cells + cell`), evaluated dof by dof.
fn pointwise_reference(problem: &Problem) -> Vec<Vec<f64>> {
    let registry = &problem.registry;
    let centroids = &problem.mesh.as_ref().expect("mesh attached").cell_centroids;
    let n_cells = centroids.len();
    let lens = |var: usize| -> Vec<usize> {
        registry.variables[var]
            .indices
            .iter()
            .map(|&i| registry.indices[i].len)
            .collect()
    };
    let mut data: Vec<Vec<f64>> = (0..registry.variables.len())
        .map(|v| vec![0.0; lens(v).iter().product::<usize>() * n_cells])
        .collect();
    for (var, init) in &problem.initials {
        let lens = lens(*var);
        let n_flat: usize = lens.iter().product();
        for (cell, &centroid) in centroids.iter().enumerate() {
            for flat in 0..n_flat {
                // Last index fastest: peel digits from the right.
                let mut idx = vec![0usize; lens.len()];
                let mut rem = flat;
                for k in (0..lens.len()).rev() {
                    idx[k] = rem % lens[k];
                    rem /= lens[k];
                }
                data[*var][flat * n_cells + cell] = init(centroid, &idx);
            }
        }
    }
    data
}

/// Build `problem` on the sequential target and compare every stored
/// value against the reference. Returns the index ranks of the
/// variables that carry an initial condition.
fn check_fill(problem: Problem, what: &str) -> Vec<usize> {
    let expected = pointwise_reference(&problem);
    let ranks: Vec<usize> = problem
        .initials
        .iter()
        .map(|(v, _)| problem.registry.variables[*v].indices.len())
        .collect();
    let solver = problem.build(ExecTarget::CpuSeq).expect(what);
    let fields = solver.fields();
    assert_eq!(fields.n_vars(), expected.len(), "{what}: variable count");
    for (var, want) in expected.iter().enumerate() {
        let got = fields.slice(var);
        assert_eq!(
            got.len(),
            want.len(),
            "{what}: `{}` length",
            fields.names()[var]
        );
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "{what}: `{}` offset {at}: {g} vs pointwise {w}",
                fields.names()[var]
            );
        }
    }
    ranks
}

#[test]
fn initial_fill_matches_pointwise_reference() {
    // Built-in hot spot: the multi-index intensity I[d,b] and the scalar T.
    let ranks = check_fill(
        hotspot_2d(&BteConfig::small(12, 8, 4, 4)).problem,
        "hotspot_2d",
    );
    assert!(
        ranks.contains(&2),
        "hotspot fills a two-index variable: {ranks:?}"
    );
    assert!(
        ranks.contains(&0),
        "hotspot fills a scalar variable: {ranks:?}"
    );

    // The committed `.pbte` library: pulse_train has a position-dependent
    // T0, die3d is 3-D.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    for stem in ["hotspot", "hotspot_array", "die3d", "pulse_train"] {
        let path = dir.join(format!("{stem}.pbte"));
        let spec = ScenarioSpec::from_file(&path).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let bte = spec.build().unwrap_or_else(|e| panic!("{stem}: {e}"));
        check_fill(bte.problem, stem);
    }
}
