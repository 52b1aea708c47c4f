//! Bose–Einstein statistics and per-band equilibrium intensity.
//!
//! The isotropic equilibrium intensity of band *b* at temperature *T*:
//!
//! `I⁰_b(T) = (v_g,b / 4π) · g_b · ∫_band ħω D(ω) f_BE(ω, T) dω`
//!
//! with `D(ω) = k²/(2π² v_g(ω))` per polarization and degeneracy `g_b`.
//! The integral is evaluated with fixed Gauss–Legendre quadrature so the
//! result is deterministic; `dI⁰/dT` uses the analytic Bose–Einstein
//! derivative. A precomputed [`EquilibriumTable`] provides O(1) lookups
//! for the hot temperature-update path.

use crate::bands::Band;
use crate::constants::{HBAR, KB};

/// Bose–Einstein occupation `1/(exp(ħω/k_B T) − 1)`.
pub fn bose_einstein(omega: f64, t: f64) -> f64 {
    let x = HBAR * omega / (KB * t);
    1.0 / x.exp_m1()
}

/// `∂f_BE/∂T = (ħω/k_B T²) eˣ/(eˣ−1)²`.
pub fn bose_einstein_dt(omega: f64, t: f64) -> f64 {
    let x = HBAR * omega / (KB * t);
    // eˣ/(eˣ−1)² written stably via expm1.
    let em1 = x.exp_m1();
    (x / t) * (em1 + 1.0) / (em1 * em1)
}

/// 8-point Gauss–Legendre nodes/weights on [-1, 1].
const GL_NODES: [f64; 8] = [
    -0.960_289_856_497_536_2,
    -0.796_666_477_413_626_7,
    -0.525_532_409_916_329,
    -0.183_434_642_495_649_8,
    0.183_434_642_495_649_8,
    0.525_532_409_916_329,
    0.796_666_477_413_626_7,
    0.960_289_856_497_536_2,
];
const GL_WEIGHTS: [f64; 8] = [
    0.101_228_536_290_376_26,
    0.222_381_034_453_374_47,
    0.313_706_645_877_887_3,
    0.362_683_783_378_362,
    0.362_683_783_378_362,
    0.313_706_645_877_887_3,
    0.222_381_034_453_374_47,
    0.101_228_536_290_376_26,
];

/// Integrate `g(ω)` over the band with 8-point Gauss–Legendre.
fn band_integral(band: &Band, mut g: impl FnMut(f64) -> f64) -> f64 {
    let half = 0.5 * (band.omega_hi - band.omega_lo);
    let mid = 0.5 * (band.omega_hi + band.omega_lo);
    let mut acc = 0.0;
    for (node, weight) in GL_NODES.iter().zip(GL_WEIGHTS.iter()) {
        acc += weight * g(mid + half * node);
    }
    acc * half
}

/// Equilibrium intensity `I⁰_b(T)`, W/(m²·sr).
pub fn io_band(band: &Band, t: f64) -> f64 {
    let branch = band.branch();
    let integral = band_integral(band, |omega| {
        HBAR * omega * branch.dos(omega) * bose_einstein(omega, t)
    });
    band.vg * band.degeneracy * integral / (4.0 * std::f64::consts::PI)
}

/// `dI⁰_b/dT`, W/(m²·sr·K).
pub fn dio_band_dt(band: &Band, t: f64) -> f64 {
    let branch = band.branch();
    let integral = band_integral(band, |omega| {
        HBAR * omega * branch.dos(omega) * bose_einstein_dt(omega, t)
    });
    band.vg * band.degeneracy * integral / (4.0 * std::f64::consts::PI)
}

/// Volumetric heat capacity contribution of a band set,
/// `c_v = Σ_b (4π/v_g,b) dI⁰_b/dT`, J/(m³·K). Used as a physics sanity
/// check against silicon literature values.
pub fn heat_capacity(bands: &[Band], t: f64) -> f64 {
    bands
        .iter()
        .map(|b| 4.0 * std::f64::consts::PI / b.vg * dio_band_dt(b, t))
        .sum()
}

/// Precomputed `I⁰_b(T)` and `dI⁰_b/dT` on a uniform temperature grid with
/// linear interpolation — the production path for the per-cell Newton
/// solve (direct quadrature in the inner loop would dominate the
/// temperature update).
#[derive(Debug, Clone)]
pub struct EquilibriumTable {
    pub t_min: f64,
    pub t_max: f64,
    dt: f64,
    n_bands: usize,
    /// `io[t_idx * n_bands + b]`.
    io: Vec<f64>,
    dio: Vec<f64>,
}

impl EquilibriumTable {
    /// Tabulate for all bands over `[t_min, t_max]` with `n_points` rows.
    pub fn build(bands: &[Band], t_min: f64, t_max: f64, n_points: usize) -> EquilibriumTable {
        assert!(t_min > 0.0 && t_max > t_min && n_points >= 2);
        let n_bands = bands.len();
        let mut io = Vec::with_capacity(n_points * n_bands);
        let mut dio = Vec::with_capacity(n_points * n_bands);
        let dt = (t_max - t_min) / (n_points - 1) as f64;
        for i in 0..n_points {
            let t = t_min + i as f64 * dt;
            for band in bands {
                io.push(io_band(band, t));
                dio.push(dio_band_dt(band, t));
            }
        }
        EquilibriumTable {
            t_min,
            t_max,
            dt,
            n_bands,
            io,
            dio,
        }
    }

    #[inline]
    fn locate(&self, t: f64) -> (usize, f64) {
        let clamped = t.clamp(self.t_min, self.t_max);
        let pos = (clamped - self.t_min) / self.dt;
        let i = (pos as usize).min(self.io.len() / self.n_bands - 2);
        (i, pos - i as f64)
    }

    /// Interpolated `I⁰_b(T)`.
    #[inline]
    pub fn io(&self, band: usize, t: f64) -> f64 {
        self.io_at(t)(band)
    }

    /// Interpolated `I⁰_b(T)` of any band at one temperature `t`: the
    /// table row is located once, each call is [`Self::io`] for its band.
    #[inline]
    pub fn io_at(&self, t: f64) -> impl Fn(usize) -> f64 + '_ {
        let (i, frac) = self.locate(t);
        move |band| {
            let a = self.io[i * self.n_bands + band];
            let b = self.io[(i + 1) * self.n_bands + band];
            a + frac * (b - a)
        }
    }

    /// Interpolated `dI⁰_b/dT`.
    #[inline]
    pub fn dio(&self, band: usize, t: f64) -> f64 {
        let (i, frac) = self.locate(t);
        let a = self.dio[i * self.n_bands + band];
        let b = self.dio[(i + 1) * self.n_bands + band];
        a + frac * (b - a)
    }

    /// Number of bands tabulated.
    pub fn n_bands(&self) -> usize {
        self.n_bands
    }
}

/// A generic per-band function of temperature tabulated on a uniform grid
/// with linear interpolation — the same machinery as [`EquilibriumTable`],
/// reused for the Holland scattering rates (whose sinh/power evaluations
/// would otherwise dominate the temperature-update callback).
#[derive(Debug, Clone)]
pub struct BandTable {
    pub t_min: f64,
    pub t_max: f64,
    dt: f64,
    n_bands: usize,
    values: Vec<f64>,
}

impl BandTable {
    /// Tabulate `f(band, T)` for `band < n_bands` over `[t_min, t_max]`.
    pub fn build(
        n_bands: usize,
        t_min: f64,
        t_max: f64,
        n_points: usize,
        f: impl Fn(usize, f64) -> f64,
    ) -> BandTable {
        assert!(t_min > 0.0 && t_max > t_min && n_points >= 2);
        let dt = (t_max - t_min) / (n_points - 1) as f64;
        let mut values = Vec::with_capacity(n_points * n_bands);
        for i in 0..n_points {
            let t = t_min + i as f64 * dt;
            for b in 0..n_bands {
                values.push(f(b, t));
            }
        }
        BandTable {
            t_min,
            t_max,
            dt,
            n_bands,
            values,
        }
    }

    /// Interpolated value (clamped to the table range).
    #[inline]
    pub fn get(&self, band: usize, t: f64) -> f64 {
        let clamped = t.clamp(self.t_min, self.t_max);
        let pos = (clamped - self.t_min) / self.dt;
        let i = (pos as usize).min(self.values.len() / self.n_bands - 2);
        let frac = pos - i as f64;
        let a = self.values[i * self.n_bands + band];
        let b = self.values[(i + 1) * self.n_bands + band];
        a + frac * (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::make_bands;

    #[test]
    fn band_table_interpolates_a_known_function() {
        let t = BandTable::build(3, 100.0, 200.0, 101, |b, temp| (b + 1) as f64 * temp);
        for (b, temp) in [(0usize, 100.0), (1, 150.5), (2, 199.9)] {
            let expected = (b + 1) as f64 * temp;
            assert!((t.get(b, temp) - expected).abs() < 1e-9);
        }
        // Clamps outside the range.
        assert_eq!(t.get(0, 50.0), t.get(0, 100.0));
        assert_eq!(t.get(0, 500.0), t.get(0, 200.0));
    }

    #[test]
    fn bose_einstein_limits() {
        // Classical limit ħω ≪ kBT: f ≈ kBT/ħω.
        let f = bose_einstein(1e10, 300.0);
        let classical = KB * 300.0 / (HBAR * 1e10);
        assert!((f - classical).abs() / classical < 0.01);
        // Quantum limit: occupation collapses.
        assert!(bose_einstein(7e13, 10.0) < 1e-20);
    }

    #[test]
    fn bose_einstein_derivative_matches_finite_difference() {
        for (w, t) in [(1e13, 300.0), (5e13, 350.0), (2e12, 250.0)] {
            let h = 1e-3;
            let fd = (bose_einstein(w, t + h) - bose_einstein(w, t - h)) / (2.0 * h);
            let an = bose_einstein_dt(w, t);
            assert!((fd - an).abs() / an.abs() < 1e-6, "ω={w}, T={t}");
        }
    }

    #[test]
    fn io_is_positive_and_monotone_in_temperature() {
        let bands = make_bands(20);
        for band in &bands {
            let a = io_band(band, 280.0);
            let b = io_band(band, 300.0);
            let c = io_band(band, 350.0);
            assert!(a > 0.0);
            assert!(b > a && c > b, "I⁰ must increase with T");
        }
    }

    #[test]
    fn dio_matches_finite_difference() {
        let bands = make_bands(10);
        for band in bands.iter().step_by(3) {
            let h = 0.01;
            let fd = (io_band(band, 300.0 + h) - io_band(band, 300.0 - h)) / (2.0 * h);
            let an = dio_band_dt(band, 300.0);
            assert!((fd - an).abs() / an < 1e-6);
        }
    }

    #[test]
    fn heat_capacity_is_in_silicon_range() {
        // Si volumetric heat capacity at 300 K ≈ 1.66e6 J/(m³K); the
        // quadratic-fit acoustic-only model recovers the right order
        // (optical phonons are excluded, so it comes out lower).
        let bands = make_bands(40);
        let cv = heat_capacity(&bands, 300.0);
        assert!(cv > 2e5 && cv < 3e6, "c_v = {cv}");
        // And grows toward the classical plateau.
        assert!(heat_capacity(&bands, 500.0) > cv);
    }

    #[test]
    fn table_matches_direct_quadrature() {
        let bands = make_bands(8);
        let table = EquilibriumTable::build(&bands, 250.0, 400.0, 601);
        for (bi, band) in bands.iter().enumerate() {
            for t in [250.0, 287.3, 300.0, 333.33, 399.9] {
                let direct = io_band(band, t);
                let interp = table.io(bi, t);
                assert!(
                    (direct - interp).abs() / direct < 1e-5,
                    "band {bi} at {t}: {direct} vs {interp}"
                );
                let d_direct = dio_band_dt(band, t);
                let d_interp = table.dio(bi, t);
                assert!((d_direct - d_interp).abs() / d_direct < 1e-5);
            }
        }
    }

    #[test]
    fn table_clamps_out_of_range() {
        let bands = make_bands(4);
        let table = EquilibriumTable::build(&bands, 250.0, 400.0, 101);
        assert_eq!(table.io(0, 100.0), table.io(0, 250.0));
        assert_eq!(table.io(0, 900.0), table.io(0, 400.0));
    }
}
