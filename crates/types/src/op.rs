//! Application operations and schedules.

use crate::ids::{SiteId, VarId};
use crate::time::SimTime;
use std::fmt;

/// Identifier of an operation within a run: the issuing site and the
/// zero-based position of the operation in that site's local history `h_i`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// Site whose application process issued the operation.
    pub site: SiteId,
    /// Zero-based index in the site's local history.
    pub seq: u32,
}

impl OpId {
    /// Construct an operation identifier.
    pub fn new(site: SiteId, seq: u32) -> Self {
        OpId { site, seq }
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.site, self.seq)
    }
}

/// The two kinds of application operation in the causal memory model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// `w(x)v` — write synthetic data `data` to variable `var`.
    Write {
        /// Target variable.
        var: VarId,
        /// Synthetic application data.
        data: u64,
    },
    /// `r(x)` — read variable `var`.
    Read {
        /// Source variable.
        var: VarId,
    },
}

impl OpKind {
    /// The variable this operation touches.
    pub fn var(&self) -> VarId {
        match *self {
            OpKind::Write { var, .. } | OpKind::Read { var } => var,
        }
    }

    /// `true` for write operations.
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Write { .. })
    }
}

/// An operation with its scheduled virtual issue time.
///
/// The paper drives every application process from a pre-generated temporal
/// schedule ("a event schedule planned in advance ... randomly generated",
/// §IV-C); the simulator and threaded runtime both consume these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledOp {
    /// Earliest virtual time at which the operation may be issued. If the
    /// process is still blocked in a remote fetch at this time, the operation
    /// is issued when the fetch returns.
    pub at: SimTime,
    /// The operation itself.
    pub kind: OpKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_accessors() {
        let w = OpKind::Write {
            var: VarId(3),
            data: 9,
        };
        let r = OpKind::Read { var: VarId(5) };
        assert!(w.is_write());
        assert!(!r.is_write());
        assert_eq!(w.var(), VarId(3));
        assert_eq!(r.var(), VarId(5));
    }

    #[test]
    fn op_id_ordering_follows_program_order() {
        let a = OpId::new(SiteId(1), 0);
        let b = OpId::new(SiteId(1), 1);
        assert!(a < b);
        assert_eq!(format!("{a:?}"), "s1#0");
    }
}
