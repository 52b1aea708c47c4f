//! Boundary callback functions (the paper's `@callbackFunction`s).
//!
//! Both conditions set the intensity of a ghost cell outside the wall
//! (Eq. 6 of the paper); the generated upwind flux code then produces the
//! correct boundary flux:
//!
//! * **isothermal** — incoming phonons carry the wall's equilibrium
//!   distribution: `ghost = I⁰_b(T_wall(x))`;
//! * **symmetry** — specular reflection: `ghost(d) = I(r(d))` at the same
//!   cell, where `r` reflects the direction across the wall normal.

use crate::material::Material;
use pbte_dsl::problem::{BoundaryCondition, FaceQuery};
use pbte_mesh::Point;
use std::sync::Arc;

/// Isothermal wall with a (possibly position-dependent) temperature.
/// Declared as reading no fields — the ghost depends only on the wall
/// temperature and the band, so the static plan verifier knows it imposes
/// no host-side transfer obligations. Face-batched: the wall temperature
/// is evaluated, and located in the equilibrium table, once per face.
pub fn isothermal(
    material: Arc<Material>,
    wall_temperature: impl Fn(Point) -> f64 + Send + Sync + 'static,
) -> BoundaryCondition {
    BoundaryCondition::face_callback_reading(&[], move |q: &FaceQuery, out: &mut [f64]| {
        let io = material.table.io_at(wall_temperature(q.position));
        for &flat in q.flats {
            out[flat] = io(q.idx_of_flat[flat][1]);
        }
    })
}

/// A uniform Gaussian hot spot on an otherwise `t_ref` wall:
/// `T(x) = t_ref + (t_peak − t_ref)·exp(−2·dist²/width²)` — a peak with a
/// 1/e² radius of `width`, the paper's "1/e² distance of 10 µm" profile.
pub fn gaussian_wall(
    t_ref: f64,
    t_peak: f64,
    center: Point,
    width: f64,
) -> impl Fn(Point) -> f64 + Send + Sync + 'static {
    move |p: Point| {
        let d2 = (p - center).dot(p - center);
        t_ref + (t_peak - t_ref) * (-2.0 * d2 / (width * width)).exp()
    }
}

/// Specular symmetry wall: the ghost intensity for direction `d` is the
/// interior intensity of the reflected direction. Declares its read of
/// the intensity `I`, which the transfer verifier turns into the proof
/// obligation that the unknown returns to the host every step.
/// Face-batched: `I` is resolved once per face and each direction is
/// reflected across the face normal once, however many bands share it.
pub fn symmetry(material: Arc<Material>) -> BoundaryCondition {
    BoundaryCondition::face_callback_reading(&["I"], move |q: &FaceQuery, out: &mut [f64]| {
        let i_var = q
            .fields
            .var_id("I")
            .expect("the BTE unknown is registered as `I`");
        let n_bands = material.n_bands();
        // Flats run direction-major, so keeping the last reflection
        // reflects each direction once per face.
        let mut last: Option<(usize, usize)> = None;
        for &flat in q.flats {
            let (d, b) = (q.idx_of_flat[flat][0], q.idx_of_flat[flat][1]);
            let r = match last {
                Some((ld, r)) if ld == d => r,
                _ => {
                    let r = material.angles.reflect(d, q.normal);
                    last = Some((d, r));
                    r
                }
            };
            out[flat] = q.fields.value(i_var, q.owner_cell, r * n_bands + b);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::Material;
    use pbte_dsl::problem::BoundaryQuery;

    #[test]
    fn gaussian_profile_shape() {
        let wall = gaussian_wall(300.0, 350.0, Point::xy(0.5, 1.0), 0.1);
        // Peak at the center.
        assert!((wall(Point::xy(0.5, 1.0)) - 350.0).abs() < 1e-12);
        // 1/e² at one width away.
        let at_width = wall(Point::xy(0.6, 1.0));
        let expected = 300.0 + 50.0 * (-2.0f64).exp();
        assert!((at_width - expected).abs() < 1e-9);
        // Far away: back to the reference.
        assert!((wall(Point::xy(5.0, 1.0)) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn isothermal_ghost_is_band_equilibrium() {
        let m = Arc::new(Material::silicon_2d(8, 8, 250.0, 400.0));
        let bc = isothermal(m.clone(), |_| 320.0);
        let fields = dummy_fields(&m);
        assert_eq!(bc.declared_reads(), Some(&[][..]));
        for b in 0..m.n_bands() {
            let q = BoundaryQuery {
                position: Point::xy(0.0, 0.5),
                normal: Point::xy(-1.0, 0.0),
                owner_cell: 0,
                idx: &[3, b],
                time: 0.0,
                fields: &fields,
            };
            let ghost = bc.ghost_value(&q);
            assert!((ghost - m.table.io(b, 320.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn symmetry_ghost_reads_reflected_direction() {
        let m = Arc::new(Material::silicon_2d(4, 8, 250.0, 400.0));
        let mut fields = dummy_fields(&m);
        let n_bands = m.n_bands();
        // Tag every (d, b) with a distinct value at cell 2.
        for d in 0..m.n_dirs() {
            for b in 0..n_bands {
                fields.set(0, 2, d * n_bands + b, (100 * d + b) as f64);
            }
        }
        let bc = symmetry(m.clone());
        assert_eq!(bc.declared_reads(), Some(&["I".to_string()][..]));
        let normal = Point::xy(0.0, 1.0);
        for d in 0..m.n_dirs() {
            let q = BoundaryQuery {
                position: Point::xy(0.5, 1.0),
                normal,
                owner_cell: 2,
                idx: &[d, 1],
                time: 0.0,
                fields: &fields,
            };
            let ghost = bc.ghost_value(&q);
            let r = m.angles.reflect(d, normal);
            assert_eq!(ghost, (100 * r + 1) as f64);
        }
    }

    /// Fields with the unknown `I` laid out like the scenario builder does.
    fn dummy_fields(m: &Material) -> pbte_dsl::Fields {
        use pbte_dsl::entities::{Index, Location, Registry, Variable};
        let mut r = Registry::default();
        r.indices.push(Index {
            name: "d".into(),
            len: m.n_dirs(),
        });
        r.indices.push(Index {
            name: "b".into(),
            len: m.n_bands(),
        });
        r.variables.push(Variable {
            name: "I".into(),
            location: Location::Cell,
            indices: vec![0, 1],
        });
        pbte_dsl::Fields::new(&r, 4)
    }
}
