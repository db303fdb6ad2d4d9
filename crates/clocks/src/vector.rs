//! The size-`n` `Write` vector clock of optP (Baldoni et al. 2006).

use causal_types::{MetaSized, SiteId, SizeModel};
use std::fmt;

/// A vector clock over `n` application processes.
///
/// In **optP**, `Write_i[j]` counts the write operations of process `ap_j`
/// that causally happened before (under `→co`) the current state of site
/// `s_i`. It is piggybacked on every SM message, giving optP its `O(n)`
/// per-message overhead — the quantity Opt-Track-CRP improves to `O(d)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The zero clock for an `n`-process system.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Build a clock directly from its components (`entries[j]` = process
    /// `j`). The wire decoder's one-pass materialisation.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes this clock covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the clock covers zero processes (degenerate systems only).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Component for process `j`.
    #[inline]
    pub fn get(&self, j: SiteId) -> u64 {
        self.entries[j.index()]
    }

    /// Set component for process `j`.
    #[inline]
    pub fn set(&mut self, j: SiteId, v: u64) {
        self.entries[j.index()] = v;
    }

    /// Increment component `j` and return the new value.
    #[inline]
    pub fn increment(&mut self, j: SiteId) -> u64 {
        self.entries[j.index()] += 1;
        self.entries[j.index()]
    }

    /// Entry-wise maximum — the merge performed when a read establishes a
    /// `→co` edge from the write's piggybacked clock to the reader.
    pub fn merge_max(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.len(), other.len());
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// `true` if every component of `self` is ≤ the matching component of
    /// `other`.
    pub fn le(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }

    /// Sum of all components (total causally-known writes; used in tests).
    pub fn total(&self) -> u64 {
        self.entries.iter().sum()
    }

    /// `true` if every component is ≤ the matching slot of a raw frontier
    /// vector — the stability test for optP, whose full replication makes
    /// per-origin write clocks and destination counts the same number.
    pub fn le_frontier(&self, frontier: &[u64]) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(j, &c)| frontier.get(j).is_some_and(|&f| c <= f))
    }

    /// Iterate `(process, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &c)| (SiteId::from(i), c))
    }
}

/// Sparse difference between two vector clocks from the same site.
///
/// Plays the same role as [`crate::MatrixDelta`] for optP's `O(n)`
/// piggyback: consecutive snapshots from one sender differ in the few
/// components that advanced between the two sends, so a batched SM can
/// ship `(process, value)` pairs instead of the whole vector. Falls back
/// to the dense form when the sparse one would not be smaller or the
/// length changed (membership epoch).
///
/// Exactness invariant: `VectorDelta::between(p, n).apply_to(p) == n`.
#[derive(Clone, PartialEq, Debug)]
pub enum VectorDelta {
    /// Same length: only the changed components.
    Changed(Vec<(SiteId, u64)>),
    /// Length changed or the sparse form would be larger: full snapshot.
    Full(VectorClock),
}

impl VectorDelta {
    /// Compute the delta that turns `prev` into `next`.
    pub fn between(prev: &VectorClock, next: &VectorClock) -> VectorDelta {
        if prev.len() != next.len() {
            return VectorDelta::Full(next.clone());
        }
        let mut changed = Vec::new();
        for (i, (&a, &b)) in prev.entries.iter().zip(next.entries.iter()).enumerate() {
            if a != b {
                changed.push((SiteId::from(i), b));
            }
        }
        // One changed component costs two scalars against one dense slot.
        if 2 * changed.len() >= next.len() {
            VectorDelta::Full(next.clone())
        } else {
            VectorDelta::Changed(changed)
        }
    }

    /// Reconstruct the successor snapshot from its predecessor.
    pub fn apply_to(&self, prev: &VectorClock) -> VectorClock {
        match self {
            VectorDelta::Full(v) => v.clone(),
            VectorDelta::Changed(pairs) => {
                let mut v = prev.clone();
                for &(j, c) in pairs {
                    v.set(j, c);
                }
                v
            }
        }
    }
}

impl MetaSized for VectorDelta {
    /// Two scalars per changed component in sparse form; the full vector
    /// cost otherwise.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        match self {
            VectorDelta::Changed(pairs) => model.scalars(2 * pairs.len()),
            VectorDelta::Full(v) => v.meta_size(model),
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{:?}", self.entries)
    }
}

impl MetaSized for VectorClock {
    /// A vector clock is transmitted as `n` scalars — this is exactly the
    /// `10·n` term in the paper's Table III optP sizes.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        model.scalars(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(i: usize) -> SiteId {
        SiteId::from(i)
    }

    #[test]
    fn new_is_zero() {
        let c = VectorClock::new(5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.total(), 0);
        assert!((0..5).all(|i| c.get(s(i)) == 0));
    }

    #[test]
    fn increment_and_get() {
        let mut c = VectorClock::new(3);
        assert_eq!(c.increment(s(1)), 1);
        assert_eq!(c.increment(s(1)), 2);
        assert_eq!(c.get(s(1)), 2);
        assert_eq!(c.get(s(0)), 0);
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.set(s(0), 5);
        a.set(s(1), 1);
        b.set(s(1), 4);
        b.set(s(2), 2);
        a.merge_max(&b);
        assert_eq!(a.get(s(0)), 5);
        assert_eq!(a.get(s(1)), 4);
        assert_eq!(a.get(s(2)), 2);
    }

    #[test]
    fn le_is_componentwise() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.set(s(0), 1);
        b.set(s(0), 2);
        b.set(s(1), 1);
        assert!(a.le(&b));
        assert!(!b.le(&a));
    }

    #[test]
    fn meta_size_is_n_scalars() {
        let m = SizeModel::java_like();
        assert_eq!(VectorClock::new(40).meta_size(&m), 400);
        assert_eq!(VectorClock::new(0).meta_size(&m), 0);
    }

    #[test]
    fn delta_roundtrips_and_prefers_sparse() {
        let mut a = VectorClock::new(6);
        a.set(s(1), 4);
        let mut b = a.clone();
        b.increment(s(1));
        let d = VectorDelta::between(&a, &b);
        assert!(matches!(&d, VectorDelta::Changed(c) if c.len() == 1));
        assert_eq!(d.apply_to(&a), b);
        let model = SizeModel::java_like();
        assert!(d.meta_size(&model) < b.meta_size(&model));

        // Length change → dense fallback.
        let wider = VectorClock::new(8);
        let d2 = VectorDelta::between(&b, &wider);
        assert!(matches!(d2, VectorDelta::Full(_)));
        assert_eq!(d2.apply_to(&b), wider);
    }

    proptest! {
        #[test]
        fn prop_delta_between_apply_is_identity(
            xs in proptest::collection::vec(0u64..100, 8),
            ys in proptest::collection::vec(0u64..100, 8),
        ) {
            let mut a = VectorClock::new(8);
            let mut b = VectorClock::new(8);
            for i in 0..8 {
                a.set(s(i), xs[i]);
                b.set(s(i), ys[i]);
            }
            let d = VectorDelta::between(&a, &b);
            prop_assert_eq!(d.apply_to(&a), b.clone());
            let model = SizeModel::java_like();
            prop_assert!(d.meta_size(&model) <= b.meta_size(&model));
        }

        #[test]
        fn prop_merge_is_lub(xs in proptest::collection::vec(0u64..100, 8),
                             ys in proptest::collection::vec(0u64..100, 8)) {
            let mut a = VectorClock::new(8);
            let mut b = VectorClock::new(8);
            for i in 0..8 {
                a.set(s(i), xs[i]);
                b.set(s(i), ys[i]);
            }
            let mut m = a.clone();
            m.merge_max(&b);
            // The merge is an upper bound of both inputs …
            prop_assert!(a.le(&m));
            prop_assert!(b.le(&m));
            // … and the least one: merging again changes nothing.
            let mut m2 = m.clone();
            m2.merge_max(&a);
            m2.merge_max(&b);
            prop_assert_eq!(m2, m);
        }

        #[test]
        fn prop_merge_commutative(xs in proptest::collection::vec(0u64..100, 4),
                                  ys in proptest::collection::vec(0u64..100, 4)) {
            let mut a = VectorClock::new(4);
            let mut b = VectorClock::new(4);
            for i in 0..4 {
                a.set(s(i), xs[i]);
                b.set(s(i), ys[i]);
            }
            let mut ab = a.clone();
            ab.merge_max(&b);
            let mut ba = b.clone();
            ba.merge_max(&a);
            prop_assert_eq!(ab, ba);
        }
    }
}
