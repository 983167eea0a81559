//! SU(3) color algebra: 3×3 special-unitary matrices and color vectors.

use jubench_kernels::cg::Axpy;
use jubench_kernels::{DetRng, C64};

/// A 3-component complex color vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ColorVector(pub [C64; 3]);

impl ColorVector {
    pub const ZERO: ColorVector = ColorVector([C64::ZERO; 3]);

    pub fn random(rng: &mut DetRng) -> Self {
        ColorVector(std::array::from_fn(|_| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        }))
    }

    pub fn norm_sqr(&self) -> f64 {
        self.0.iter().map(|c| c.norm_sqr()).sum()
    }

    /// Hermitian inner product ⟨self, other⟩.
    pub fn dot(&self, other: &ColorVector) -> C64 {
        let mut acc = C64::ZERO;
        for i in 0..3 {
            acc += self.0[i].conj() * other.0[i];
        }
        acc
    }

    pub fn add(&self, other: &ColorVector) -> ColorVector {
        ColorVector(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }

    pub fn sub(&self, other: &ColorVector) -> ColorVector {
        ColorVector(std::array::from_fn(|i| self.0[i] - other.0[i]))
    }

    pub fn scale(&self, s: f64) -> ColorVector {
        ColorVector(std::array::from_fn(|i| self.0[i].scale(s)))
    }
}

impl Axpy for ColorVector {
    fn axpy(self, a: f64, x: ColorVector) -> ColorVector {
        self.add(&x.scale(a))
    }
}

/// A 3×3 complex matrix, row-major; SU(3) members are unitary with unit
/// determinant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Su3(pub [[C64; 3]; 3]);

impl Su3 {
    pub fn identity() -> Self {
        let mut m = [[C64::ZERO; 3]; 3];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = C64::ONE;
        }
        Su3(m)
    }

    /// Hermitian conjugate (the inverse for unitary matrices).
    pub(crate) fn dagger(&self) -> Su3 {
        let mut m = [[C64::ZERO; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] = self.0[j][i].conj();
            }
        }
        Su3(m)
    }

    pub fn mul(&self, other: &Su3) -> Su3 {
        let mut m = [[C64::ZERO; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = C64::ZERO;
                for k in 0..3 {
                    acc += self.0[i][k] * other.0[k][j];
                }
                m[i][j] = acc;
            }
        }
        Su3(m)
    }

    /// Matrix–vector product U·v (the hot inner kernel of the Dirac
    /// operator).
    #[inline]
    pub(crate) fn mul_vec(&self, v: &ColorVector) -> ColorVector {
        ColorVector(std::array::from_fn(|i| {
            self.0[i][0] * v.0[0] + self.0[i][1] * v.0[1] + self.0[i][2] * v.0[2]
        }))
    }

    /// Re tr(U) — enters the plaquette observable.
    pub(crate) fn re_trace(&self) -> f64 {
        self.0[0][0].re + self.0[1][1].re + self.0[2][2].re
    }

    /// A random SU(3) element: Gram-Schmidt on random complex rows, third
    /// row from the cross product (guaranteeing det = 1), as in the
    /// benchmark's lattice initialization ("initialized with a random
    /// SU(3) element on each link").
    pub fn random(rng: &mut DetRng) -> Su3 {
        loop {
            let mut a = ColorVector::random(rng);
            let norm = a.norm_sqr().sqrt();
            if norm < 1e-6 {
                continue;
            }
            a = a.scale(1.0 / norm);
            let mut b = ColorVector::random(rng);
            // b ← b − ⟨a,b⟩ a
            let proj = a.dot(&b);
            for i in 0..3 {
                b.0[i] = b.0[i] - proj * a.0[i];
            }
            let norm_b = b.norm_sqr().sqrt();
            if norm_b < 1e-6 {
                continue;
            }
            b = b.scale(1.0 / norm_b);
            // c = (a × b)* makes [a, b, c] special unitary.
            let cross = |u: &ColorVector, v: &ColorVector, i: usize, j: usize| {
                u.0[i] * v.0[j] - u.0[j] * v.0[i]
            };
            let c = ColorVector([
                cross(&a, &b, 1, 2).conj(),
                cross(&a, &b, 2, 0).conj(),
                cross(&a, &b, 0, 1).conj(),
            ]);
            return Su3([a.0, b.0, c.0]);
        }
    }

    /// Deviation from unitarity ‖U·U† − 1‖∞ (for tests and re-unitarization
    /// checks).
    pub fn unitarity_error(&self) -> f64 {
        let p = self.mul(&self.dagger());
        let mut worst = 0.0f64;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { C64::ONE } else { C64::ZERO };
                worst = worst.max((p.0[i][j] - expect).abs());
            }
        }
        worst
    }

    /// Determinant.
    pub fn det(&self) -> C64 {
        let m = &self.0;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jubench_kernels::rank_rng;

    #[test]
    fn identity_is_neutral() {
        let mut rng = rank_rng(1, 0);
        let u = Su3::random(&mut rng);
        let v = ColorVector::random(&mut rng);
        let uv = Su3::identity().mul_vec(&v);
        for i in 0..3 {
            assert!((uv.0[i] - v.0[i]).abs() < 1e-14);
        }
        let ui = u.mul(&Su3::identity());
        for i in 0..3 {
            for j in 0..3 {
                assert!((ui.0[i][j] - u.0[i][j]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn random_elements_are_special_unitary() {
        let mut rng = rank_rng(2, 0);
        for _ in 0..20 {
            let u = Su3::random(&mut rng);
            assert!(u.unitarity_error() < 1e-12);
            let d = u.det();
            assert!((d - C64::ONE).abs() < 1e-12, "det = {d:?}");
        }
    }

    #[test]
    fn dagger_inverts_unitaries() {
        let mut rng = rank_rng(3, 0);
        let u = Su3::random(&mut rng);
        let p = u.mul(&u.dagger());
        assert!(p.unitarity_error() < 1e-12 || Su3(p.0).unitarity_error() < 1e-12);
        assert!((p.re_trace() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_preserves_norm_for_unitaries() {
        let mut rng = rank_rng(4, 0);
        let u = Su3::random(&mut rng);
        let v = ColorVector::random(&mut rng);
        assert!((u.mul_vec(&v).norm_sqr() - v.norm_sqr()).abs() < 1e-10);
    }

    #[test]
    fn color_vector_algebra() {
        let mut rng = rank_rng(5, 0);
        let a = ColorVector::random(&mut rng);
        let b = ColorVector::random(&mut rng);
        let s = a.add(&b).sub(&b);
        for i in 0..3 {
            assert!((s.0[i] - a.0[i]).abs() < 1e-14);
        }
        // ⟨a,a⟩ is real and equals the squared norm.
        let d = a.dot(&a);
        assert!((d.re - a.norm_sqr()).abs() < 1e-12 && d.im.abs() < 1e-14);
    }
}
