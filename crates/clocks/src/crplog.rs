//! The Opt-Track-CRP log of `⟨j, clock_j⟩` 2-tuples.
//!
//! In the fully replicated case every write goes to every site, so the
//! destination lists of Opt-Track entries carry no information and each
//! write is represented by the 2-tuple `⟨i, clock_i⟩` — an `O(1)` record
//! instead of `O(n)` (§III-C). The log dynamics collapse to:
//!
//! * a **write** resets the log — the new send causally follows everything
//!   in it and is addressed to all sites, so condition 2 empties every older
//!   entry; only the new write's own 2-tuple remains;
//! * a **read** merges at most one 2-tuple (the tuple of the write that
//!   produced the value), and per origin only the newest tuple is kept;
//!
//! hence at most `d + 1` entries, where `d` is the number of reads since the
//! local site's last write.

use causal_types::{MetaSized, SiteId, SizeModel, WriteId};
use std::fmt;

/// Log of write 2-tuples, at most one per origin (the newest).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct CrpLog {
    /// Sorted by origin; at most one entry per origin.
    entries: Vec<WriteId>,
}

impl CrpLog {
    /// The empty log.
    pub fn new() -> Self {
        CrpLog::default()
    }

    /// Number of 2-tuples in the log (`≤ d + 1 ≤ n`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the log holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in origin order.
    pub fn iter(&self) -> impl Iterator<Item = &WriteId> {
        self.entries.iter()
    }

    /// The newest clock known for `origin`, if any.
    pub fn clock_of(&self, origin: SiteId) -> Option<u64> {
        self.entries
            .binary_search_by(|e| e.site.cmp(&origin))
            .ok()
            .map(|i| self.entries[i].clock)
    }

    /// Merge one write 2-tuple (performed by a read observing the
    /// `LastWriteOn⟨h⟩` of the value it returns). Keeps only the newest
    /// tuple per origin: "if some of these read operations retrieve
    /// variables that are updated by the same application process, only the
    /// entry associated with the very last read operation needs to be kept".
    pub fn observe(&mut self, w: WriteId) {
        match self.entries.binary_search_by(|e| e.site.cmp(&w.site)) {
            Ok(i) => {
                if self.entries[i].clock < w.clock {
                    self.entries[i].clock = w.clock;
                }
            }
            Err(i) => self.entries.insert(i, w),
        }
    }

    /// Reset after a local write: the log becomes exactly the write's own
    /// 2-tuple ("the local log always incurs reset after each write").
    pub fn reset_to(&mut self, w: WriteId) {
        self.entries.clear();
        self.entries.push(w);
    }

    /// Merge a whole piggybacked log (used when adapting CRP logs for
    /// diagnostic comparisons; protocol reads only need [`CrpLog::observe`]).
    pub fn merge(&mut self, other: &CrpLog) {
        for w in &other.entries {
            self.observe(*w);
        }
    }

    /// Causal-stability GC: drop every 2-tuple at or below the stable
    /// `frontier` — a stable write is applied at every live site, so the
    /// delivery constraint its tuple would piggyback is vacuous everywhere.
    /// Returns the number of tuples removed.
    pub fn prune_stable(&mut self, frontier: &[u64]) -> usize {
        let before = self.entries.len();
        self.entries
            .retain(|e| frontier.get(e.site.index()).is_none_or(|&f| e.clock > f));
        before - self.entries.len()
    }
}

/// Difference between two CRP logs from the same site.
///
/// CRP logs are tiny (`≤ d + 1` tuples) but *not* monotone — a write resets
/// the log, so a successor snapshot can lose tuples and even carry a lower
/// clock for an origin. The delta therefore records exact replacements
/// (`upserts`, tuples present in the successor with a different clock or
/// absent from the predecessor) and exact `removals` (origins the successor
/// dropped); applying it replaces rather than [`CrpLog::observe`]s, which
/// would keep the stale maximum.
///
/// Exactness invariant: `CrpDelta::between(p, n).apply_to(p) == n`.
#[derive(Clone, PartialEq, Debug)]
pub struct CrpDelta {
    /// Tuples to insert or overwrite, sorted by origin.
    pub upserts: Vec<WriteId>,
    /// Origins to drop, sorted.
    pub removals: Vec<SiteId>,
}

impl CrpDelta {
    /// Compute the delta that turns `prev` into `next`.
    pub fn between(prev: &CrpLog, next: &CrpLog) -> CrpDelta {
        let mut upserts = Vec::new();
        let mut removals = Vec::new();
        let (a, b) = (&prev.entries, &next.entries);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) if x.site == y.site => {
                    if x.clock != y.clock {
                        upserts.push(*y);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x.site < y.site => {
                    removals.push(x.site);
                    i += 1;
                }
                (Some(_), Some(y)) => {
                    upserts.push(*y);
                    j += 1;
                }
                (Some(x), None) => {
                    removals.push(x.site);
                    i += 1;
                }
                (None, Some(y)) => {
                    upserts.push(*y);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        CrpDelta { upserts, removals }
    }

    /// Reconstruct the successor snapshot from its predecessor.
    pub fn apply_to(&self, prev: &CrpLog) -> CrpLog {
        let mut entries = Vec::with_capacity(prev.entries.len() + self.upserts.len());
        let mut ups = self.upserts.iter().peekable();
        let mut rms = self.removals.iter().peekable();
        for e in &prev.entries {
            while let Some(&&up) = ups.peek() {
                if up.site < e.site {
                    entries.push(up);
                    ups.next();
                } else {
                    break;
                }
            }
            if ups.peek().is_some_and(|up| up.site == e.site) {
                entries.push(*ups.next().unwrap());
                continue;
            }
            if rms.peek().is_some_and(|&&rm| rm == e.site) {
                rms.next();
                continue;
            }
            entries.push(*e);
        }
        entries.extend(ups.copied());
        CrpLog { entries }
    }
}

impl MetaSized for CrpDelta {
    /// Two scalars per replaced tuple plus one site id per removal.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        model.scalars(2 * self.upserts.len()) + model.site_ids(self.removals.len())
    }
}

impl fmt::Debug for CrpLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CrpLog[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{},{}⟩", e.site, e.clock)?;
        }
        write!(f, "]")
    }
}

impl MetaSized for CrpLog {
    /// Each 2-tuple is two scalars. With the Java calibration this is the
    /// 20-bytes-per-entry growth visible in Table III.
    fn meta_size(&self, model: &SizeModel) -> u64 {
        model.scalars(2 * self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(site: usize, clock: u64) -> WriteId {
        WriteId::new(SiteId::from(site), clock)
    }

    #[test]
    fn observe_keeps_newest_per_origin() {
        let mut log = CrpLog::new();
        log.observe(w(1, 3));
        log.observe(w(1, 5));
        log.observe(w(1, 4)); // stale: ignored
        log.observe(w(2, 1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.clock_of(SiteId(1)), Some(5));
        assert_eq!(log.clock_of(SiteId(2)), Some(1));
    }

    #[test]
    fn reset_to_collapses_log() {
        let mut log = CrpLog::new();
        log.observe(w(1, 3));
        log.observe(w(2, 8));
        log.reset_to(w(0, 1));
        assert_eq!(log.len(), 1);
        assert_eq!(log.clock_of(SiteId(0)), Some(1));
        assert_eq!(log.clock_of(SiteId(1)), None);
    }

    #[test]
    fn merge_unions_with_newest_semantics() {
        let mut a = CrpLog::new();
        a.observe(w(1, 3));
        let mut b = CrpLog::new();
        b.observe(w(1, 7));
        b.observe(w(2, 2));
        a.merge(&b);
        assert_eq!(a.clock_of(SiteId(1)), Some(7));
        assert_eq!(a.clock_of(SiteId(2)), Some(2));
    }

    #[test]
    fn prune_stable_drops_covered_tuples() {
        let mut log = CrpLog::new();
        log.observe(w(0, 4));
        log.observe(w(1, 2));
        log.observe(w(2, 9));
        // Origin 0 stable through 4, origin 1 through 1, origin 2 through 8.
        assert_eq!(log.prune_stable(&[4, 1, 8]), 1);
        assert_eq!(log.clock_of(SiteId(0)), None, "⟨0,4⟩ is stable");
        assert_eq!(log.clock_of(SiteId(1)), Some(2), "above frontier");
        assert_eq!(log.clock_of(SiteId(2)), Some(9), "above frontier");
    }

    #[test]
    fn meta_size_is_two_scalars_per_entry() {
        let m = SizeModel::java_like();
        let mut log = CrpLog::new();
        log.observe(w(1, 1));
        log.observe(w(2, 1));
        log.observe(w(3, 1));
        assert_eq!(log.meta_size(&m), 60);
    }

    #[test]
    fn delta_handles_reset_semantics_exactly() {
        // A write reset loses tuples and can *lower* an origin's clock —
        // apply must replace, never keep the stale maximum.
        let mut before = CrpLog::new();
        before.observe(w(0, 9));
        before.observe(w(2, 4));
        let mut after = CrpLog::new();
        after.reset_to(w(0, 1));
        let d = CrpDelta::between(&before, &after);
        assert_eq!(d.apply_to(&before), after);
        assert_eq!(after.clock_of(SiteId(0)), Some(1), "clock went down");
    }

    proptest! {
        #[test]
        fn prop_crp_delta_between_apply_is_identity(
            xs in proptest::collection::vec((0usize..8, 1u64..50), 0..24),
            ys in proptest::collection::vec((0usize..8, 1u64..50), 0..24),
            do_reset in any::<bool>(),
            reset in (0usize..8, 1u64..50),
        ) {
            let mut a = CrpLog::new();
            for (o, c) in xs {
                a.observe(w(o, c));
            }
            let mut b = a.clone();
            if do_reset {
                let (o, c) = reset;
                b.reset_to(w(o, c));
            }
            for (o, c) in ys {
                b.observe(w(o, c));
            }
            prop_assert_eq!(CrpDelta::between(&a, &b).apply_to(&a), b);
        }

        #[test]
        fn prop_at_most_one_entry_per_origin(ops in proptest::collection::vec((0usize..8, 1u64..50), 0..64)) {
            let mut log = CrpLog::new();
            for (o, c) in &ops {
                log.observe(w(*o, *c));
            }
            let mut origins: Vec<_> = log.iter().map(|e| e.site).collect();
            let before = origins.len();
            origins.dedup();
            prop_assert_eq!(origins.len(), before);
            // The retained clock per origin is the maximum observed.
            for (o, _) in &ops {
                let max = ops.iter().filter(|(oo, _)| oo == o).map(|&(_, c)| c).max().unwrap();
                prop_assert_eq!(log.clock_of(SiteId::from(*o)), Some(max));
            }
        }

        #[test]
        fn prop_size_bounded_by_origin_count(ops in proptest::collection::vec((0usize..8, 1u64..50), 0..64)) {
            let mut log = CrpLog::new();
            for (o, c) in ops {
                log.observe(w(o, c));
            }
            prop_assert!(log.len() <= 8);
        }
    }
}
