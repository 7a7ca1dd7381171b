//! Loss values.
//!
//! The paper takes the loss set `R` to be a commutative monoid — usually the
//! reals under addition, but the Nash-equilibrium example (§4.3) uses pairs
//! of reals and §6 suggests locally varying the reward monoid. [`LossVal`]
//! covers all the paper's uses with a single machine type: a small vector of
//! `f64` added element-wise, where missing components count as `0`. The
//! empty vector is the monoid unit, a 1-vector is a scalar loss, a 2-vector
//! is a prisoner's-dilemma-style pair.

use std::fmt;

/// An element of the loss monoid `R`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LossVal(pub Vec<f64>);

impl LossVal {
    /// The monoid unit `0`.
    pub fn zero() -> Self {
        LossVal(Vec::new())
    }

    /// A scalar loss.
    pub fn scalar(x: f64) -> Self {
        LossVal(vec![x])
    }

    /// A pair loss (used for two-player objectives).
    pub fn pair(a: f64, b: f64) -> Self {
        LossVal(vec![a, b])
    }

    /// Element-wise addition, padding the shorter vector with zeros.
    pub fn add(&self, other: &LossVal) -> LossVal {
        let n = self.0.len().max(other.0.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.0.get(i).copied().unwrap_or(0.0);
            let b = other.0.get(i).copied().unwrap_or(0.0);
            out.push(a + b);
        }
        LossVal(out)
    }

    /// The scalar reading of this loss: its first component (`0.0` if empty).
    pub fn as_scalar(&self) -> f64 {
        self.0.first().copied().unwrap_or(0.0)
    }

    /// The *total* order on scalar readings used by every comparison an
    /// argmin/argmax handler can make (the `leq`/`lt` primitives) and by
    /// the engine bridge's candidate reduction: [`f64::total_cmp`] on
    /// [`LossVal::as_scalar`]. Unlike the partial `<=` on `f64`, this
    /// orders NaN (above `+∞`) and `-0.0 < +0.0` deterministically, so
    /// winners are identical across the smallstep, bigstep, and compiled
    /// evaluators and across sequential and parallel searches — the same
    /// contract as `selc::OrderedLoss` for `f64`.
    pub fn cmp_scalar(&self, other: &LossVal) -> std::cmp::Ordering {
        self.as_scalar().total_cmp(&other.as_scalar())
    }

    /// Component `i`, defaulting to `0.0`.
    pub fn component(&self, i: usize) -> f64 {
        self.0.get(i).copied().unwrap_or(0.0)
    }

    /// True iff every component is zero (the canonical zero is the empty
    /// vector, but padded arithmetic can produce explicit zeros).
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|x| *x == 0.0)
    }

    /// Approximate equality up to `eps`, treating missing components as 0.
    pub fn approx_eq(&self, other: &LossVal, eps: f64) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|i| (self.component(i) - other.component(i)).abs() <= eps)
    }
}

/// In-place [`LossVal::add`]: `a += &b` leaves `a` bit-identical to
/// `a.add(&b)` (missing components still add as `0.0`, so `-0.0` turns
/// into `+0.0` on either side exactly as there), without a new vector once
/// `a` is long enough.
impl std::ops::AddAssign<&LossVal> for LossVal {
    fn add_assign(&mut self, other: &LossVal) {
        for (i, a) in self.0.iter_mut().enumerate() {
            *a += other.0.get(i).copied().unwrap_or(0.0);
        }
        for b in other.0.iter().skip(self.0.len()) {
            self.0.push(0.0 + b);
        }
    }
}

impl fmt::Display for LossVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.len() {
            0 => write!(f, "0"),
            1 => write!(f, "{}", self.0[0]),
            _ => {
                write!(f, "(")?;
                for (i, x) in self.0.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let a = LossVal::pair(1.0, -2.0);
        assert_eq!(a.add(&LossVal::zero()), a);
        assert_eq!(LossVal::zero().add(&a), a);
    }

    #[test]
    fn add_assign_is_bit_identical_to_add() {
        let cases = [
            LossVal::zero(),
            LossVal::scalar(-0.0),
            LossVal::scalar(1.5),
            LossVal::pair(-0.0, 2.0),
            LossVal(vec![f64::NAN, -0.0, 3.0]),
        ];
        for a in &cases {
            for b in &cases {
                let mut c = a.clone();
                c += b;
                let bits = |l: &LossVal| l.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c), bits(&a.add(b)), "{a:?} += {b:?}");
            }
        }
    }

    #[test]
    fn add_pads_with_zeros() {
        let a = LossVal::scalar(3.0);
        let b = LossVal::pair(1.0, 2.0);
        assert_eq!(a.add(&b), LossVal::pair(4.0, 2.0));
        assert_eq!(b.add(&a), LossVal::pair(4.0, 2.0));
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let a = LossVal(vec![1.0, 2.0, 3.0]);
        let b = LossVal::scalar(-1.0);
        let c = LossVal::pair(0.5, 0.5);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn scalar_reading() {
        assert_eq!(LossVal::zero().as_scalar(), 0.0);
        assert_eq!(LossVal::scalar(7.5).as_scalar(), 7.5);
        assert_eq!(LossVal::pair(1.0, 9.0).as_scalar(), 1.0);
    }

    #[test]
    fn is_zero_recognises_padded_zero() {
        assert!(LossVal::zero().is_zero());
        assert!(LossVal(vec![0.0, 0.0]).is_zero());
        assert!(!LossVal::scalar(0.1).is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(LossVal::zero().to_string(), "0");
        assert_eq!(LossVal::scalar(2.0).to_string(), "2");
        assert_eq!(LossVal::pair(3.0, 4.0).to_string(), "(3, 4)");
    }

    #[test]
    fn cmp_scalar_is_total_and_orders_nan_last() {
        use std::cmp::Ordering;
        let one = LossVal::scalar(1.0);
        let two = LossVal::scalar(2.0);
        let nan = LossVal::scalar(f64::NAN);
        let inf = LossVal::scalar(f64::INFINITY);
        assert_eq!(one.cmp_scalar(&two), Ordering::Less);
        assert_eq!(two.cmp_scalar(&one), Ordering::Greater);
        assert_eq!(one.cmp_scalar(&LossVal::pair(1.0, 9.0)), Ordering::Equal, "scalar reading");
        assert_eq!(inf.cmp_scalar(&nan), Ordering::Less, "NaN sorts above +inf");
        assert_eq!(nan.cmp_scalar(&nan), Ordering::Equal, "total: NaN equals itself");
        assert_eq!(
            LossVal::scalar(-0.0).cmp_scalar(&LossVal::scalar(0.0)),
            Ordering::Less,
            "-0.0 sorts below +0.0 under the total order"
        );
    }

    #[test]
    fn approx_eq_with_padding() {
        assert!(LossVal::zero().approx_eq(&LossVal(vec![0.0]), 1e-12));
        assert!(LossVal::scalar(1.0).approx_eq(&LossVal(vec![1.0 + 1e-13]), 1e-12));
        assert!(!LossVal::scalar(1.0).approx_eq(&LossVal::scalar(1.1), 1e-12));
    }
}
