//! # causal-obs
//!
//! Structured, sim-time-stamped tracing for the causal-consistency
//! simulator — a zero-cost-when-disabled observability layer.
//!
//! The paper's evaluation counts and sizes messages, but a count cannot say
//! *why* an update sat in a pending queue or which dependency held it
//! there. This crate defines the event vocabulary ([`TraceEvent`] /
//! [`EventKind`]) for exactly those questions: every event carries enough
//! identifiers (site, origin write clock, variable) that a post-hoc tool
//! can reconstruct per-write causal chains and re-verify them against
//! `causal-checker`.
//!
//! ## Design
//!
//! * [`Tracer`] is a trait with a **no-op default**: `enabled()` returns
//!   `false` and `emit()` discards. The simulator asks `enabled()` before
//!   assembling an event, so a disabled tracer costs one virtual call on
//!   the paths it instruments and allocates nothing.
//! * [`BufTracer`] collects events in memory; [`to_jsonl`] /
//!   [`parse_jsonl`] serialize them losslessly as one JSON object per
//!   line with a deterministic field order, so traces of the same seed are
//!   byte-identical regardless of how many worker threads ran the sweep.
//!
//! The JSONL codec is hand-rolled: the workspace builds offline with no
//! serialization framework, so — like the disk cache in
//! `causal-experiments` — this crate renders and parses its own flat JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use causal_types::{MsgKind, SimTime, SiteId, VarId, WriteId};
use std::fmt::Write as _;

/// What happened, with the identifiers needed to rebuild causal chains.
///
/// `origin`/`clock` pairs name a write (`WriteId` semantics: the writer
/// site and its per-site write counter), `dep_*` name the first dependency
/// that held an update in the pending buffer.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// The site issued a local write: `clock` is its new own-write counter.
    Write {
        /// Variable written.
        var: VarId,
        /// The writer's own-write clock (the write's identity with `site`).
        clock: u64,
    },
    /// A protocol message left this site.
    Send {
        /// Destination site.
        to: SiteId,
        /// SM / FM / RM.
        kind: MsgKind,
        /// Modeled metadata bytes of the message.
        bytes: u64,
        /// The carried write, for SM messages.
        writer: Option<WriteId>,
    },
    /// A protocol message reached this site's protocol layer.
    Deliver {
        /// Originating site.
        from: SiteId,
        /// SM / FM / RM.
        kind: MsgKind,
        /// The carried write, for SM messages.
        writer: Option<WriteId>,
    },
    /// The activation predicate rejected an arriving update: it parks in
    /// the pending buffer behind `dep_site`/`dep_clock`.
    Buffer {
        /// The buffered write's origin site.
        origin: SiteId,
        /// The buffered write's clock at its origin.
        clock: u64,
        /// Variable the buffered write targets.
        var: VarId,
        /// Origin of the first unsatisfied dependency.
        dep_site: SiteId,
        /// Required clock (or per-site write count) from `dep_site`.
        dep_clock: u64,
    },
    /// An update was applied to the local replica (the *release* of a
    /// buffered update, or an immediate apply with zero dwell).
    Apply {
        /// The applied write's origin site.
        origin: SiteId,
        /// The applied write's clock at its origin.
        clock: u64,
        /// Variable written.
        var: VarId,
        /// Virtual nanoseconds between receipt and apply (0 when applied
        /// on arrival or for the writer's own local apply).
        dwell_ns: u64,
    },
    /// A read served from the local replica.
    ReadLocal {
        /// Variable read.
        var: VarId,
        /// The write whose value was returned (`None` for `⊥`).
        writer: Option<WriteId>,
    },
    /// A remote fetch (FM) was issued for a non-replicated variable.
    FetchIssue {
        /// Variable fetched.
        var: VarId,
        /// The replica asked.
        target: SiteId,
        /// Issue counter (0 for the first issue; failovers and
        /// crash-recovery re-issues bump it).
        attempt: u32,
    },
    /// The remote fetch completed (RM arrived and matched).
    FetchDone {
        /// Variable fetched.
        var: VarId,
        /// The replica that answered.
        served_by: SiteId,
        /// Virtual nanoseconds from the latest issue to the return.
        rtt_ns: u64,
        /// The write whose value was served (`None` for `⊥`).
        writer: Option<WriteId>,
    },
    /// A blocked fetch failed over to the next candidate replica.
    FetchFailover {
        /// Variable fetched.
        var: VarId,
        /// The new issue counter.
        attempt: u32,
    },
    /// A blocked fetch exhausted every candidate and was abandoned.
    DegradedRead {
        /// Variable the abandoned read targeted.
        var: VarId,
    },
    /// The reliable transport re-sent an unacked data frame.
    Retransmit {
        /// Destination of the guarded channel.
        to: SiteId,
        /// Re-sent sequence number.
        seq: u64,
    },
    /// A retransmission timer was armed (exponential backoff).
    Backoff {
        /// Destination of the guarded channel.
        to: SiteId,
        /// Guarded sequence number.
        seq: u64,
        /// Retransmission attempt the timer guards.
        attempt: u32,
        /// Virtual nanoseconds until the timer fires.
        after_ns: u64,
    },
    /// A record was appended to the site's write-ahead log.
    WalAppend {
        /// Modeled bytes of the record.
        bytes: u64,
    },
    /// The site's protocol state was checkpointed into its durable store.
    Checkpoint {
        /// Modeled bytes of the checkpoint image.
        bytes: u64,
    },
    /// The site fail-stopped, losing volatile state.
    Crash,
    /// The site restarted and began the sync handshake.
    Recover {
        /// The new incarnation number.
        inc: u32,
    },
    /// Recovery completed; the site is back up.
    RecoveryDone {
        /// Virtual nanoseconds the recovery took.
        dur_ns: u64,
    },
    /// The recovering site asked a peer for its state.
    SyncReq {
        /// The asked peer.
        to: SiteId,
    },
    /// A live site answered a recovering peer with a state snapshot.
    SyncResp {
        /// The recovering peer.
        to: SiteId,
        /// Modeled bytes of the snapshot shipped.
        bytes: u64,
    },
    /// A membership view change was installed at this site's simulator
    /// (attributed to the joining/leaving/migrated-to site).
    ViewChange {
        /// The newly installed epoch.
        epoch: u64,
        /// 1 when the install was forced at the view deadline instead of
        /// reached by quiescence, else 0.
        forced: u64,
    },
    /// Opt-Track pruned its causality log (conditions 1/2 + PURGE).
    LogPrune {
        /// Entries removed by this prune.
        removed: u64,
        /// Entries remaining afterwards.
        remaining: u64,
    },
    /// The global stable frontier advanced for writes of this site
    /// (every member has applied its writes through `clock`).
    FrontierAdvance {
        /// The new stable clock for this origin.
        clock: u64,
    },
    /// A stability tick garbage-collected state behind this site's
    /// known-stable frontier.
    GcRun {
        /// Causality-log entries reclaimed.
        log_entries: u64,
        /// Materialized `LastWriteOn` slots reclaimed.
        slots: u64,
    },
    /// The stuck-buffer watchdog flagged an update parked past the
    /// overdue deadline at this site.
    BufferedOverdue {
        /// The overdue write's origin site.
        origin: SiteId,
        /// The overdue write's clock at its origin.
        clock: u64,
    },
    /// Retained metadata crossed the soft cap: writers back off until the
    /// frontier catches up.
    Backpressure {
        /// The retained-bytes estimate that tripped the cap.
        retained: u64,
    },
}

/// One structured trace event: what happened, where, and when (virtual
/// time, nanoseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event, nanoseconds.
    pub t: u64,
    /// The site the event happened at.
    pub site: SiteId,
    /// The event itself.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Convenience constructor from a [`SimTime`].
    pub fn at(now: SimTime, site: SiteId, kind: EventKind) -> Self {
        TraceEvent {
            t: now.as_nanos(),
            site,
            kind,
        }
    }
}

/// A trace sink. The defaults make every implementation opt-in:
/// `enabled()` is `false` and `emit()` discards, so instrumented code can
/// hold a `&mut dyn Tracer` unconditionally and pay one virtual call when
/// tracing is off.
pub trait Tracer: Send {
    /// Whether events should be assembled and emitted at all. Callers
    /// gate event construction on this, so a disabled tracer allocates
    /// nothing.
    fn enabled(&self) -> bool {
        false
    }

    /// Consume one event. No-op by default.
    fn emit(&mut self, ev: TraceEvent) {
        let _ = ev;
    }
}

/// The always-off tracer (what [`Tracer`]'s defaults describe).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// An in-memory tracer: collects every event in emission order.
#[derive(Clone, Debug, Default)]
pub struct BufTracer {
    /// The collected events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl BufTracer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracer for BufTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

fn msg_kind_name(k: MsgKind) -> &'static str {
    match k {
        MsgKind::Sm => "sm",
        MsgKind::Fm => "fm",
        MsgKind::Rm => "rm",
    }
}

fn msg_kind_from(name: &str) -> Result<MsgKind, String> {
    match name {
        "sm" => Ok(MsgKind::Sm),
        "fm" => Ok(MsgKind::Fm),
        "rm" => Ok(MsgKind::Rm),
        other => Err(format!("unknown message kind {other:?}")),
    }
}

/// Render one event as a single-line JSON object with a fixed field order
/// (`t`, `site`, `ev`, then the variant's fields in declaration order).
/// Optional writer identities serialize as the `w_site`/`w_clock` pair and
/// are simply absent for `None`.
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t\":{},\"site\":{}", ev.t, ev.site.0);
    let tag = |s: &mut String, name: &str| {
        let _ = write!(s, ",\"ev\":\"{name}\"");
    };
    let writer = |s: &mut String, w: &Option<WriteId>| {
        if let Some(w) = w {
            let _ = write!(s, ",\"w_site\":{},\"w_clock\":{}", w.site.0, w.clock);
        }
    };
    match &ev.kind {
        EventKind::Write { var, clock } => {
            tag(&mut s, "write");
            let _ = write!(s, ",\"var\":{},\"clock\":{clock}", var.0);
        }
        EventKind::Send {
            to,
            kind,
            bytes,
            writer: w,
        } => {
            tag(&mut s, "send");
            let _ = write!(
                s,
                ",\"to\":{},\"kind\":\"{}\",\"bytes\":{bytes}",
                to.0,
                msg_kind_name(*kind)
            );
            writer(&mut s, w);
        }
        EventKind::Deliver {
            from,
            kind,
            writer: w,
        } => {
            tag(&mut s, "deliver");
            let _ = write!(
                s,
                ",\"from\":{},\"kind\":\"{}\"",
                from.0,
                msg_kind_name(*kind)
            );
            writer(&mut s, w);
        }
        EventKind::Buffer {
            origin,
            clock,
            var,
            dep_site,
            dep_clock,
        } => {
            tag(&mut s, "buffer");
            let _ = write!(
                s,
                ",\"origin\":{},\"clock\":{clock},\"var\":{},\"dep_site\":{},\"dep_clock\":{dep_clock}",
                origin.0, var.0, dep_site.0
            );
        }
        EventKind::Apply {
            origin,
            clock,
            var,
            dwell_ns,
        } => {
            tag(&mut s, "apply");
            let _ = write!(
                s,
                ",\"origin\":{},\"clock\":{clock},\"var\":{},\"dwell_ns\":{dwell_ns}",
                origin.0, var.0
            );
        }
        EventKind::ReadLocal { var, writer: w } => {
            tag(&mut s, "read_local");
            let _ = write!(s, ",\"var\":{}", var.0);
            writer(&mut s, w);
        }
        EventKind::FetchIssue {
            var,
            target,
            attempt,
        } => {
            tag(&mut s, "fetch_issue");
            let _ = write!(
                s,
                ",\"var\":{},\"target\":{},\"attempt\":{attempt}",
                var.0, target.0
            );
        }
        EventKind::FetchDone {
            var,
            served_by,
            rtt_ns,
            writer: w,
        } => {
            tag(&mut s, "fetch_done");
            let _ = write!(
                s,
                ",\"var\":{},\"served_by\":{},\"rtt_ns\":{rtt_ns}",
                var.0, served_by.0
            );
            writer(&mut s, w);
        }
        EventKind::FetchFailover { var, attempt } => {
            tag(&mut s, "fetch_failover");
            let _ = write!(s, ",\"var\":{},\"attempt\":{attempt}", var.0);
        }
        EventKind::DegradedRead { var } => {
            tag(&mut s, "degraded_read");
            let _ = write!(s, ",\"var\":{}", var.0);
        }
        EventKind::Retransmit { to, seq } => {
            tag(&mut s, "retransmit");
            let _ = write!(s, ",\"to\":{},\"seq\":{seq}", to.0);
        }
        EventKind::Backoff {
            to,
            seq,
            attempt,
            after_ns,
        } => {
            tag(&mut s, "backoff");
            let _ = write!(
                s,
                ",\"to\":{},\"seq\":{seq},\"attempt\":{attempt},\"after_ns\":{after_ns}",
                to.0
            );
        }
        EventKind::WalAppend { bytes } => {
            tag(&mut s, "wal_append");
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        EventKind::Checkpoint { bytes } => {
            tag(&mut s, "checkpoint");
            let _ = write!(s, ",\"bytes\":{bytes}");
        }
        EventKind::Crash => tag(&mut s, "crash"),
        EventKind::Recover { inc } => {
            tag(&mut s, "recover");
            let _ = write!(s, ",\"inc\":{inc}");
        }
        EventKind::RecoveryDone { dur_ns } => {
            tag(&mut s, "recovery_done");
            let _ = write!(s, ",\"dur_ns\":{dur_ns}");
        }
        EventKind::SyncReq { to } => {
            tag(&mut s, "sync_req");
            let _ = write!(s, ",\"to\":{}", to.0);
        }
        EventKind::SyncResp { to, bytes } => {
            tag(&mut s, "sync_resp");
            let _ = write!(s, ",\"to\":{},\"bytes\":{bytes}", to.0);
        }
        EventKind::ViewChange { epoch, forced } => {
            tag(&mut s, "view_change");
            let _ = write!(s, ",\"epoch\":{epoch},\"forced\":{forced}");
        }
        EventKind::LogPrune { removed, remaining } => {
            tag(&mut s, "log_prune");
            let _ = write!(s, ",\"removed\":{removed},\"remaining\":{remaining}");
        }
        EventKind::FrontierAdvance { clock } => {
            tag(&mut s, "frontier_advance");
            let _ = write!(s, ",\"clock\":{clock}");
        }
        EventKind::GcRun { log_entries, slots } => {
            tag(&mut s, "gc_run");
            let _ = write!(s, ",\"log_entries\":{log_entries},\"slots\":{slots}");
        }
        EventKind::BufferedOverdue { origin, clock } => {
            tag(&mut s, "buffered_overdue");
            let _ = write!(s, ",\"origin\":{},\"clock\":{clock}", origin.0);
        }
        EventKind::Backpressure { retained } => {
            tag(&mut s, "backpressure");
            let _ = write!(s, ",\"retained\":{retained}");
        }
    }
    s.push('}');
    s
}

/// Render a whole trace as JSONL (one event per line, trailing newline).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for ev in events {
        s.push_str(&event_to_json(ev));
        s.push('\n');
    }
    s
}

/// A parsed flat-JSON value: every field this schema uses is either an
/// unsigned integer or a short string.
enum JsonVal {
    Num(u64),
    Str(String),
}

/// Parse one `{"k":v,...}` line into its fields. Only the flat subset the
/// schema emits is accepted — nested objects and escapes are errors.
fn parse_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
    let mut fields = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        rest = rest.strip_prefix(',').unwrap_or(rest);
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected key at {rest:?}"))?;
        let ke = body
            .find('"')
            .ok_or_else(|| format!("unterminated key at {rest:?}"))?;
        let key = &body[..ke];
        let after = body[ke + 1..]
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key {key:?}"))?;
        if let Some(sv) = after.strip_prefix('"') {
            let ve = sv
                .find('"')
                .ok_or_else(|| format!("unterminated string value for {key:?}"))?;
            fields.push((key.to_string(), JsonVal::Str(sv[..ve].to_string())));
            rest = &sv[ve + 1..];
        } else {
            let ve = after
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(after.len());
            if ve == 0 {
                return Err(format!("expected value for {key:?} at {after:?}"));
            }
            let num: u64 = after[..ve]
                .parse()
                .map_err(|e| format!("bad number for {key:?}: {e}"))?;
            fields.push((key.to_string(), JsonVal::Num(num)));
            rest = &after[ve..];
        }
    }
    Ok(fields)
}

struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    fn num(&self, key: &str) -> Result<u64, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, JsonVal::Num(n))) => Ok(*n),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, JsonVal::Str(s))) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    fn site(&self, key: &str) -> Result<SiteId, String> {
        Ok(SiteId(self.num(key)? as u16))
    }

    fn var(&self, key: &str) -> Result<VarId, String> {
        Ok(VarId(self.num(key)? as u32))
    }

    fn writer(&self) -> Result<Option<WriteId>, String> {
        match (self.num("w_site"), self.num("w_clock")) {
            (Ok(s), Ok(c)) => Ok(Some(WriteId::new(SiteId(s as u16), c))),
            (Err(_), Err(_)) => Ok(None),
            _ => Err("w_site/w_clock must appear together".to_string()),
        }
    }
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn event_from_json(line: &str) -> Result<TraceEvent, String> {
    let f = Fields(parse_object(line)?);
    let kind = match f.str("ev")? {
        "write" => EventKind::Write {
            var: f.var("var")?,
            clock: f.num("clock")?,
        },
        "send" => EventKind::Send {
            to: f.site("to")?,
            kind: msg_kind_from(f.str("kind")?)?,
            bytes: f.num("bytes")?,
            writer: f.writer()?,
        },
        "deliver" => EventKind::Deliver {
            from: f.site("from")?,
            kind: msg_kind_from(f.str("kind")?)?,
            writer: f.writer()?,
        },
        "buffer" => EventKind::Buffer {
            origin: f.site("origin")?,
            clock: f.num("clock")?,
            var: f.var("var")?,
            dep_site: f.site("dep_site")?,
            dep_clock: f.num("dep_clock")?,
        },
        "apply" => EventKind::Apply {
            origin: f.site("origin")?,
            clock: f.num("clock")?,
            var: f.var("var")?,
            dwell_ns: f.num("dwell_ns")?,
        },
        "read_local" => EventKind::ReadLocal {
            var: f.var("var")?,
            writer: f.writer()?,
        },
        "fetch_issue" => EventKind::FetchIssue {
            var: f.var("var")?,
            target: f.site("target")?,
            attempt: f.num("attempt")? as u32,
        },
        "fetch_done" => EventKind::FetchDone {
            var: f.var("var")?,
            served_by: f.site("served_by")?,
            rtt_ns: f.num("rtt_ns")?,
            writer: f.writer()?,
        },
        "fetch_failover" => EventKind::FetchFailover {
            var: f.var("var")?,
            attempt: f.num("attempt")? as u32,
        },
        "degraded_read" => EventKind::DegradedRead { var: f.var("var")? },
        "retransmit" => EventKind::Retransmit {
            to: f.site("to")?,
            seq: f.num("seq")?,
        },
        "backoff" => EventKind::Backoff {
            to: f.site("to")?,
            seq: f.num("seq")?,
            attempt: f.num("attempt")? as u32,
            after_ns: f.num("after_ns")?,
        },
        "wal_append" => EventKind::WalAppend {
            bytes: f.num("bytes")?,
        },
        "checkpoint" => EventKind::Checkpoint {
            bytes: f.num("bytes")?,
        },
        "crash" => EventKind::Crash,
        "recover" => EventKind::Recover {
            inc: f.num("inc")? as u32,
        },
        "recovery_done" => EventKind::RecoveryDone {
            dur_ns: f.num("dur_ns")?,
        },
        "sync_req" => EventKind::SyncReq { to: f.site("to")? },
        "sync_resp" => EventKind::SyncResp {
            to: f.site("to")?,
            bytes: f.num("bytes")?,
        },
        "view_change" => EventKind::ViewChange {
            epoch: f.num("epoch")?,
            forced: f.num("forced")?,
        },
        "log_prune" => EventKind::LogPrune {
            removed: f.num("removed")?,
            remaining: f.num("remaining")?,
        },
        "frontier_advance" => EventKind::FrontierAdvance {
            clock: f.num("clock")?,
        },
        "gc_run" => EventKind::GcRun {
            log_entries: f.num("log_entries")?,
            slots: f.num("slots")?,
        },
        "buffered_overdue" => EventKind::BufferedOverdue {
            origin: f.site("origin")?,
            clock: f.num("clock")?,
        },
        "backpressure" => EventKind::Backpressure {
            retained: f.num("retained")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent {
        t: f.num("t")?,
        site: f.site("site")?,
        kind,
    })
}

/// Parse a whole JSONL trace. Blank lines are ignored; any malformed line
/// fails the parse with its line number.
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceEvent> {
        let w = Some(WriteId::new(SiteId(3), 17));
        let kinds = vec![
            EventKind::Write {
                var: VarId(7),
                clock: 4,
            },
            EventKind::Send {
                to: SiteId(2),
                kind: MsgKind::Sm,
                bytes: 120,
                writer: w,
            },
            EventKind::Send {
                to: SiteId(2),
                kind: MsgKind::Fm,
                bytes: 8,
                writer: None,
            },
            EventKind::Deliver {
                from: SiteId(1),
                kind: MsgKind::Rm,
                writer: None,
            },
            EventKind::Buffer {
                origin: SiteId(1),
                clock: 9,
                var: VarId(2),
                dep_site: SiteId(0),
                dep_clock: 8,
            },
            EventKind::Apply {
                origin: SiteId(1),
                clock: 9,
                var: VarId(2),
                dwell_ns: 1_500_000,
            },
            EventKind::ReadLocal {
                var: VarId(5),
                writer: w,
            },
            EventKind::ReadLocal {
                var: VarId(5),
                writer: None,
            },
            EventKind::FetchIssue {
                var: VarId(9),
                target: SiteId(4),
                attempt: 0,
            },
            EventKind::FetchDone {
                var: VarId(9),
                served_by: SiteId(4),
                rtt_ns: 40_000_000,
                writer: w,
            },
            EventKind::FetchFailover {
                var: VarId(9),
                attempt: 1,
            },
            EventKind::DegradedRead { var: VarId(9) },
            EventKind::Retransmit {
                to: SiteId(2),
                seq: 31,
            },
            EventKind::Backoff {
                to: SiteId(2),
                seq: 31,
                attempt: 2,
                after_ns: 80_000_000,
            },
            EventKind::WalAppend { bytes: 64 },
            EventKind::Checkpoint { bytes: 4096 },
            EventKind::Crash,
            EventKind::Recover { inc: 2 },
            EventKind::RecoveryDone { dur_ns: 55_000_000 },
            EventKind::SyncReq { to: SiteId(0) },
            EventKind::SyncResp {
                to: SiteId(3),
                bytes: 900,
            },
            EventKind::ViewChange {
                epoch: 2,
                forced: 1,
            },
            EventKind::LogPrune {
                removed: 12,
                remaining: 3,
            },
            EventKind::FrontierAdvance { clock: 42 },
            EventKind::GcRun {
                log_entries: 18,
                slots: 6,
            },
            EventKind::BufferedOverdue {
                origin: SiteId(4),
                clock: 11,
            },
            EventKind::Backpressure { retained: 70_000 },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                t: 1000 * i as u64,
                site: SiteId((i % 5) as u16),
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_roundtrips_every_event_kind() {
        let events = every_kind();
        let jsonl = to_jsonl(&events);
        let back = parse_jsonl(&jsonl).expect("parse");
        assert_eq!(back, events);
        // And the rendering is stable: a second render is byte-identical.
        assert_eq!(to_jsonl(&back), jsonl);
    }

    #[test]
    fn lines_are_single_flat_objects() {
        for line in to_jsonl(&every_kind()).lines() {
            assert!(line.starts_with("{\"t\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
            assert_eq!(line.matches('{').count(), 1, "flat object: {line}");
        }
    }

    #[test]
    fn tracer_defaults_are_off() {
        struct Plain;
        impl Tracer for Plain {}
        assert!(!Plain.enabled());
        assert!(!NoopTracer.enabled());
        let mut buf = BufTracer::new();
        assert!(buf.enabled());
        buf.emit(TraceEvent::at(
            SimTime::from_millis(1),
            SiteId(0),
            EventKind::Crash,
        ));
        assert_eq!(buf.events.len(), 1);
        assert_eq!(buf.events[0].t, 1_000_000);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"t\":1}\n").is_err()); // missing site/ev
        assert!(parse_jsonl("{\"t\":1,\"site\":0,\"ev\":\"nope\"}\n").is_err());
        let err = parse_jsonl("{\"t\":1,\"site\":0,\"ev\":\"crash\"}\nbad\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn blank_lines_are_ignored() {
        let events = parse_jsonl("\n{\"t\":5,\"site\":1,\"ev\":\"crash\"}\n\n").expect("parse");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            TraceEvent {
                t: 5,
                site: SiteId(1),
                kind: EventKind::Crash
            }
        );
    }
}
