//! Permutations.
//!
//! Every Javelin preprocessing step — Dulmage–Mendelsohn, fill-reducing
//! orderings, and the level-set ordering itself — is expressed as a
//! [`Perm`]. The convention throughout the workspace is **new-to-old**:
//! `perm.new_to_old()[i]` names the *old* index that lands at *new*
//! position `i`. Applying a permutation to a vector therefore reads
//! `y[i] = x[p[i]]`, and the symmetrically permuted matrix is
//! `B[i,j] = A[p[i], p[j]]`.

use crate::error::SparseError;

/// A permutation of `0..n` with its inverse precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Perm {
    new_to_old: Vec<usize>,
    old_to_new: Vec<usize>,
}

impl Perm {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let v: Vec<usize> = (0..n).collect();
        Perm {
            new_to_old: v.clone(),
            old_to_new: v,
        }
    }

    /// Builds a permutation from its new-to-old form, validating that it
    /// is a bijection on `0..n`.
    ///
    /// # Errors
    /// [`SparseError::InvalidPermutation`] when an index is out of range
    /// or repeated.
    pub fn from_new_to_old(new_to_old: Vec<usize>) -> Result<Self, SparseError> {
        let n = new_to_old.len();
        let mut old_to_new = vec![usize::MAX; n];
        for (newi, &oldi) in new_to_old.iter().enumerate() {
            if oldi >= n {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {oldi} out of range for permutation of length {n}"
                )));
            }
            if old_to_new[oldi] != usize::MAX {
                return Err(SparseError::InvalidPermutation(format!(
                    "index {oldi} appears more than once"
                )));
            }
            old_to_new[oldi] = newi;
        }
        Ok(Perm {
            new_to_old,
            old_to_new,
        })
    }

    /// Builds a permutation from its old-to-new form.
    ///
    /// # Errors
    /// [`SparseError::InvalidPermutation`] when not a bijection.
    #[cfg(test)]
    pub(crate) fn from_old_to_new(old_to_new: Vec<usize>) -> Result<Self, SparseError> {
        let p = Perm::from_new_to_old(old_to_new)?;
        Ok(p.inverse())
    }

    /// Length of the permuted index range.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// `true` when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.new_to_old.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// The new-to-old mapping: `new_to_old[new] = old`.
    #[inline(always)]
    pub fn new_to_old(&self) -> &[usize] {
        &self.new_to_old
    }

    /// The old-to-new mapping: `old_to_new[old] = new`.
    #[inline(always)]
    pub fn old_to_new(&self) -> &[usize] {
        &self.old_to_new
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Perm {
        Perm {
            new_to_old: self.old_to_new.clone(),
            old_to_new: self.new_to_old.clone(),
        }
    }

    /// Composition `self ∘ other`: applying the result is equivalent to
    /// applying `other` first, then `self`.
    ///
    /// In new-to-old form: `r[i] = other[self[i]]`.
    ///
    /// # Panics
    /// When lengths differ.
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(self.len(), other.len(), "compose: length mismatch");
        let new_to_old: Vec<usize> = self
            .new_to_old
            .iter()
            .map(|&mid| other.new_to_old[mid])
            .collect();
        Perm::from_new_to_old(new_to_old).expect("composition of bijections is a bijection")
    }

    /// Applies the permutation to a vector: `out[i] = x[new_to_old[i]]`.
    ///
    /// # Panics
    /// When `x.len() != self.len()`.
    #[cfg(test)]
    pub(crate) fn apply_vec<T: crate::Scalar>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len(), "apply_vec: length mismatch");
        self.new_to_old.iter().map(|&o| x[o]).collect()
    }

    /// Applies the inverse permutation: `out[new_to_old[i]] = x[i]`.
    ///
    /// # Panics
    /// When `x.len() != self.len()`.
    #[cfg(test)]
    pub(crate) fn apply_inv_vec<T: crate::Scalar>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len(), "apply_inv_vec: length mismatch");
        let mut out = vec![T::ZERO; x.len()];
        for (i, &o) in self.new_to_old.iter().enumerate() {
            out[o] = x[i];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let p = Perm::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.inverse(), p);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(p.apply_vec(&x), x);
    }

    #[test]
    fn validation() {
        assert!(Perm::from_new_to_old(vec![0, 0]).is_err());
        assert!(Perm::from_new_to_old(vec![0, 5]).is_err());
        assert!(Perm::from_new_to_old(vec![2, 0, 1]).is_ok());
        assert!(Perm::from_new_to_old(vec![]).is_ok());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Perm::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.compose(&inv).is_identity());
        assert!(inv.compose(&p).is_identity());
        let x = vec![10.0, 20.0, 30.0, 40.0];
        let y = p.apply_vec(&x);
        assert_eq!(y, vec![30.0, 10.0, 40.0, 20.0]);
        assert_eq!(p.apply_inv_vec(&y), x);
    }

    #[test]
    fn old_to_new_consistency() {
        let p = Perm::from_new_to_old(vec![2, 0, 1]).unwrap();
        for newi in 0..3 {
            assert_eq!(p.old_to_new()[p.new_to_old()[newi]], newi);
        }
        let q = Perm::from_old_to_new(vec![2, 0, 1]).unwrap();
        assert_eq!(q.old_to_new(), &[2, 0, 1]);
    }

    #[test]
    fn compose_applies_right_then_left() {
        // other: reverse, self: rotate
        let rev = Perm::from_new_to_old(vec![2, 1, 0]).unwrap();
        let rot = Perm::from_new_to_old(vec![1, 2, 0]).unwrap();
        let c = rot.compose(&rev);
        let x = vec![1.0, 2.0, 3.0];
        // rev first: [3,2,1]; then rot: [2,1,3]
        assert_eq!(c.apply_vec(&x), rot.apply_vec(&rev.apply_vec(&x)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_perm(max_n: usize) -> impl Strategy<Value = Perm> {
        (1..max_n).prop_flat_map(|n| {
            Just((0..n).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(|v| Perm::from_new_to_old(v).unwrap())
        })
    }

    proptest! {
        #[test]
        fn inverse_composes_to_identity(p in arb_perm(64)) {
            prop_assert!(p.compose(&p.inverse()).is_identity());
            prop_assert!(p.inverse().compose(&p).is_identity());
        }

        #[test]
        fn apply_then_apply_inv_roundtrips(p in arb_perm(64)) {
            let x: Vec<f64> = (0..p.len()).map(|i| i as f64).collect();
            let y = p.apply_vec(&x);
            prop_assert_eq!(p.apply_inv_vec(&y), x);
        }

        #[test]
        fn compose_is_associative(n in 2usize..32) {
            let mk = |seed: u64| {
                let mut v: Vec<usize> = (0..n).collect();
                // Cheap deterministic shuffle.
                let mut s = seed;
                for i in (1..n).rev() {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let j = (s >> 33) as usize % (i + 1);
                    v.swap(i, j);
                }
                Perm::from_new_to_old(v).unwrap()
            };
            let (a, b, c) = (mk(1), mk(2), mk(3));
            prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
        }
    }
}
