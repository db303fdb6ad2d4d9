//! Values stored in replicas.

use crate::ids::WriteId;
use std::fmt;

/// The value held by a variable replica, tagged with provenance.
///
/// The paper's variables start at `⊥` (represented by `Option::None` at the
/// storage layer) and are overwritten by write operations. We carry the
/// [`WriteId`] of the producing write alongside the raw data so that
/// executions can be checked for causal consistency after the fact: a read
/// returning a `VersionedValue` pins down the *reads-from* edge exactly.
///
/// `payload_len` models the size of the application payload (the paper notes
/// that real payloads — photos, videos, web pages — dwarf the metadata; the
/// experiments measure metadata only, but examples and the analytic model in
/// §V-C use the payload size).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionedValue {
    /// The write operation that produced this value.
    pub writer: WriteId,
    /// The raw data (a synthetic 64-bit application value).
    pub data: u64,
    /// Modeled length in bytes of the application payload this value stands
    /// in for. Not transmitted as metadata; used by the payload-aware
    /// analytic comparisons.
    pub payload_len: u32,
}

impl VersionedValue {
    /// Create a value produced by `writer` with the given synthetic data and
    /// zero modeled payload length.
    pub fn new(writer: WriteId, data: u64) -> Self {
        VersionedValue {
            writer,
            data,
            payload_len: 0,
        }
    }

    /// Create a value with an explicit modeled payload length.
    pub fn with_payload(writer: WriteId, data: u64, payload_len: u32) -> Self {
        VersionedValue {
            writer,
            data,
            payload_len,
        }
    }
}

impl fmt::Debug for VersionedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.writer, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SiteId;

    #[test]
    fn construction_and_provenance() {
        let w = WriteId::new(SiteId(3), 42);
        let v = VersionedValue::new(w, 7);
        assert_eq!(v.writer, w);
        assert_eq!(v.data, 7);
        assert_eq!(v.payload_len, 0);
    }

    #[test]
    fn payload_length_is_carried() {
        let w = WriteId::new(SiteId(0), 1);
        let v = VersionedValue::with_payload(w, 0, 679_000);
        assert_eq!(v.payload_len, 679_000);
    }
}
