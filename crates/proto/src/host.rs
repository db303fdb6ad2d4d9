//! The per-site host: one protocol site plus everything around it that the
//! simulator and the live runtime would otherwise each build for
//! themselves.
//!
//! A [`SiteHost`] owns one [`ProtocolSite`] and does all of the per-site
//! work between an operation or an arriving frame and the wire:
//!
//! * op issue and effect routing (`Send` / `Applied` / `FetchDone`);
//! * per-destination update lanes and batch framing, with the rule that a
//!   lane flushes before any non-SM frame leaves toward the same
//!   destination — so no FM or RM ever overtakes a parked update on its
//!   channel;
//! * unbatch-on-deliver;
//! * the paper's synchronous RemoteFetch as a parked fetch, its
//!   completion, failover re-issue and abandonment;
//! * receipt timing and apply latency;
//! * send accounting (message counts and bytes, per-site counters, SM
//!   entry counts, batching counters, pending samples), history recording
//!   and trace emission.
//!
//! Time is [`SimTime`] nanoseconds in both worlds: the simulator passes its
//! virtual clock, the runtime the wall-clock nanoseconds since its run
//! started. Everything specific to one world — an event heap or a worker
//! scheduler, the simulator's lossy transport, WAL, stability tracking and
//! crash dedup, the runtime's quiescence tally — sits behind the
//! [`Outbound`] boundary the host is driven with.

use crate::{BatchedSm, Effect, Fm, Msg, ProtoTraceEvent, ProtocolSite, ReadResult, SmBatch};
use crate::{ProtocolConfig, SmMeta, WalRecord};
use causal_checker::History;
use causal_clocks::PruneConfig;
use causal_metrics::RunMetrics;
use causal_multicast::{BatchPolicy, DestBatcher, Offer};
use causal_obs::{EventKind, TraceEvent, Tracer};
use causal_types::{MetaSized, OpKind, SimDuration, SimTime, SiteId, SizeModel, VarId, WriteId};
use fxhash::FxHashMap;
use std::sync::Arc;

/// Per-destination update batching: a sender parks consecutive SM updates
/// addressed to the same destination in a FIFO lane and ships the whole
/// lane as one [`Msg::Batch`] frame when a flush policy fires — the lane
/// reaches `max_sms` updates, its unbatched bytes reach `max_bytes`, or
/// `window` has passed since the lane opened.
///
/// Batching changes only *when and how* updates travel, never what the
/// receiver sees: frames are unbatched on delivery back into the exact
/// per-SM messages (original piggybacks, original order), so every
/// protocol's delivery predicate and the consistency checker observe the
/// same execution. The payoff is byte accounting — one merged piggyback per
/// frame instead of one per update (see `SmBatch::batch_meta_size`).
#[derive(Clone, Copy, Debug)]
pub struct BatchPlan {
    /// Flush a lane once it holds this many updates.
    pub max_sms: usize,
    /// Flush a lane once its updates' unbatched wire bytes reach this.
    pub max_bytes: u64,
    /// Flush a lane this long after its first (oldest) parked update.
    pub window: SimDuration,
}

impl BatchPlan {
    /// A plan bounded by the flush window and a generous update count,
    /// the configuration the `repro batching` sweep explores.
    pub fn windowed(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "flush window must be positive");
        BatchPlan {
            max_sms: 64,
            max_bytes: u64::MAX,
            window,
        }
    }
}

/// The protocol configuration for a site whose updates may park in lanes.
///
/// Batching parks updates in sender lanes for up to a full flush window,
/// so the log prunings that assume "my own sends cover me" lose their
/// timing justification; with lanes on, the local site's destination
/// mentions stay pinned until a clock witness shows them applied (see
/// `PruneConfig::pin_self`).
pub fn protocol_config(base: ProtocolConfig, batch: Option<BatchPlan>) -> ProtocolConfig {
    ProtocolConfig {
        prune: PruneConfig {
            pin_self: batch.is_some() || base.prune.pin_self,
            ..base.prune
        },
    }
}

/// The host's boundary with the world it runs in: everything the host
/// emits goes out through here — frames, lane timers, metrics, history
/// records, trace events — and the world-specific layers attach at the
/// hooks, whose defaults do nothing.
///
/// The simulator implements it over its event heap (lossless channels or
/// the chaos transport); the runtime over its mailboxes and sockets.
pub trait Outbound {
    /// The current instant, nanoseconds since the run started.
    fn now(&self) -> SimTime;
    /// Put one app message from `from` on the wire toward `to`. Every
    /// message the host sends — SM, batch frame, FM or RM — leaves here,
    /// already accounted.
    fn send(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool);
    /// Arm `from`'s lane window toward `to`: at `at`, call
    /// [`SiteHost::on_flush_timer`] with `to` and `epoch`.
    fn arm_flush(&mut self, from: SiteId, to: SiteId, epoch: u64, at: SimTime);
    /// The metrics the host accounts into.
    fn metrics(&mut self) -> &mut RunMetrics;
    /// The execution history, when one is being recorded.
    fn history(&mut self) -> Option<&mut History>;
    /// The trace sink.
    fn tracer(&mut self) -> &mut dyn Tracer;

    /// Journal `rec` for `site` before the transition it describes.
    fn journal(&mut self, site: SiteId, rec: WalRecord) {
        let _ = (site, rec);
    }
    /// `msg` from `from` is about to reach `site`'s protocol; `false`
    /// drops it as a duplicate.
    fn admit(&mut self, site: SiteId, from: SiteId, msg: &Msg) -> bool {
        let _ = (site, from, msg);
        true
    }
    /// `site` issued write `wid`; `effects` are about to be routed.
    fn wrote(&mut self, site: SiteId, wid: WriteId, effects: &[Effect]) {
        let _ = (site, wid, effects);
    }
    /// `site` applied `write`; `false` keeps the apply out of the history
    /// and the trace (it was already recorded before a crash).
    fn applied(&mut self, site: SiteId, write: WriteId) -> bool {
        let _ = (site, write);
        true
    }
}

/// The paper's synchronous RemoteFetch, parked: the FM is on the wire and
/// the site issues nothing new until the matching RM lands.
#[derive(Clone, Copy, Debug)]
pub struct ParkedFetch {
    /// The variable being fetched.
    pub var: VarId,
    /// The replica serving the fetch (the read is recorded against it).
    pub target: SiteId,
    /// Warm-up attribution of the read operation.
    pub measured: bool,
    /// Issue counter: bumped on every failover or recovery re-issue, so a
    /// stale deadline timer can be recognized.
    pub attempt: u32,
    /// When the current attempt's FM left, for the fetch-RTT statistic.
    pub issued_at: SimTime,
}

/// An SM parked in a destination lane, awaiting its flush.
struct PendingSm {
    /// The exact per-update message the receiver will eventually see.
    sm: crate::Sm,
    /// Post-warm-up attribution of the update's issuing operation.
    measured: bool,
    /// What this update would have cost as its own SM frame (base + full
    /// piggyback) — the baseline the batching saving is measured against.
    full_bytes: u64,
}

/// The batching state of one sender: its lanes and their window length.
struct Lanes {
    batcher: DestBatcher<PendingSm>,
    window: SimDuration,
}

/// One site: its protocol state machine and the per-site layer around it.
pub struct SiteHost {
    site: SiteId,
    proto: Box<dyn ProtocolSite>,
    size_model: SizeModel,
    payload_len: u32,
    lanes: Option<Lanes>,
    fetch: Option<ParkedFetch>,
    /// Receipt instant of each update delivered here and not yet applied.
    receipt: FxHashMap<WriteId, SimTime>,
}

impl SiteHost {
    /// Host `proto` as `site`. Written values carry `payload_len` modeled
    /// bytes; `batch` turns per-destination lanes on.
    pub fn new(
        site: SiteId,
        proto: Box<dyn ProtocolSite>,
        size_model: SizeModel,
        payload_len: u32,
        batch: Option<BatchPlan>,
    ) -> Self {
        SiteHost {
            site,
            proto,
            size_model,
            payload_len,
            lanes: batch.map(|plan| Lanes {
                batcher: DestBatcher::new(BatchPolicy {
                    max_items: plan.max_sms,
                    max_bytes: plan.max_bytes,
                }),
                window: plan.window,
            }),
            fetch: None,
            receipt: FxHashMap::default(),
        }
    }

    /// The hosted site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The protocol state machine.
    pub fn proto(&self) -> &dyn ProtocolSite {
        self.proto.as_ref()
    }

    /// The protocol state machine, mutably (crash, recovery, sync, GC).
    pub fn proto_mut(&mut self) -> &mut dyn ProtocolSite {
        self.proto.as_mut()
    }

    /// Swap in a rebuilt protocol state machine (WAL replay).
    pub fn replace_proto(&mut self, proto: Box<dyn ProtocolSite>) {
        self.proto = proto;
    }

    /// The outstanding remote fetch, if the site is parked in one.
    pub fn fetch(&self) -> Option<&ParkedFetch> {
        self.fetch.as_ref()
    }

    /// Issue one operation. Returns `true` when it parked in a remote
    /// fetch; the completion is reported by [`SiteHost::deliver`].
    pub fn issue(&mut self, op: OpKind, measured: bool, out: &mut impl Outbound) -> bool {
        let site = self.site;
        match op {
            OpKind::Write { var, data } => {
                out.journal(
                    site,
                    WalRecord::OwnWrite {
                        var,
                        data,
                        payload_len: self.payload_len,
                    },
                );
                let (wid, effects) = self.proto.write(var, data, self.payload_len);
                out.wrote(site, wid, &effects);
                emit(
                    out,
                    site,
                    EventKind::Write {
                        var,
                        clock: wid.clock,
                    },
                );
                if measured {
                    out.metrics().record_op(true, false);
                }
                if let Some(h) = out.history() {
                    h.record_write(site, wid, var);
                }
                self.route(effects, measured, out);
                false
            }
            OpKind::Read { var } => match self.proto.read(var) {
                ReadResult::Local(v) => {
                    out.journal(site, WalRecord::LocalRead { var });
                    if measured {
                        out.metrics().record_op(false, false);
                    }
                    self.read_locally(var, v.map(|x| x.writer), out);
                    false
                }
                ReadResult::Fetch { target, msg } => {
                    out.journal(site, WalRecord::FetchIssued { var });
                    self.fetch = Some(ParkedFetch {
                        var,
                        target,
                        measured,
                        attempt: 0,
                        issued_at: out.now(),
                    });
                    self.send_fetch(msg, out);
                    true
                }
            },
        }
    }

    /// Deliver one frame from `from`. A batch frame is expanded back into
    /// its per-update messages, each fed to the protocol in order. Returns
    /// `true` when the delivery completed the parked fetch.
    pub fn deliver(
        &mut self,
        from: SiteId,
        msg: Msg,
        measured: bool,
        out: &mut impl Outbound,
    ) -> bool {
        let site = self.site;
        let mut completed = false;
        for (msg, measured) in unbatch(msg, measured) {
            // A fetch re-issued across a crash can be answered twice; the
            // protocols assert a single outstanding fetch, so an RM that
            // no longer matches the parked one is consumed here.
            if let Msg::Rm(rm) = &msg {
                if self.fetch.is_none_or(|f| f.var != rm.var) {
                    out.metrics().dup_drops += 1;
                    continue;
                }
            }
            if !out.admit(site, from, &msg) {
                continue;
            }
            let writer = match &msg {
                Msg::Sm(sm) => Some(sm.value.writer),
                _ => None,
            };
            if let Some(w) = writer {
                self.receipt.insert(w, out.now());
            }
            emit(
                out,
                site,
                EventKind::Deliver {
                    from,
                    kind: msg.kind(),
                    writer,
                },
            );
            out.metrics().per_site.site_mut(site.index()).delivers += 1;
            let pend_before = self.proto.pending_len();
            let effects = self.proto.on_message(from, msg);
            completed |= self.route(effects, measured, out);
            let pend_after = self.proto.pending_len();
            let m = out.metrics();
            if pend_after > pend_before {
                m.per_site.site_mut(site.index()).buffered += (pend_after - pend_before) as u64;
            }
            m.max_pending = m.max_pending.max(pend_after);
            m.pending_samples.record(pend_after as f64);
            self.drain_trace(out);
        }
        completed
    }

    /// Route effects the protocol produced outside an op or a delivery
    /// (recovery and departure fast-forwards). Returns `true` when they
    /// completed the parked fetch.
    pub fn apply_effects(
        &mut self,
        effects: Vec<Effect>,
        measured: bool,
        out: &mut impl Outbound,
    ) -> bool {
        let completed = self.route(effects, measured, out);
        self.drain_trace(out);
        completed
    }

    /// The lane window armed with `epoch` toward `to` expired: flush the
    /// lane unless it already left (stale epoch). Returns whether a frame
    /// went out.
    pub fn on_flush_timer(&mut self, to: SiteId, epoch: u64, out: &mut impl Outbound) -> bool {
        let items = self
            .lanes
            .as_mut()
            .and_then(|l| l.batcher.on_timer(to, epoch));
        match items {
            Some(items) => {
                self.flush_lane(to, items, out);
                true
            }
            None => false,
        }
    }

    /// Flush every lane (a barrier that must not leave updates parked).
    pub fn flush_all(&mut self, out: &mut impl Outbound) {
        let drained = match self.lanes.as_mut() {
            Some(l) => l.batcher.flush_all(),
            None => return,
        };
        for (to, items) in drained {
            self.flush_lane(to, items, out);
        }
    }

    /// Drop every parked update without sending it: the sender crashed,
    /// and its never-transmitted updates are volatile state.
    pub fn drop_lanes(&mut self) {
        if let Some(l) = self.lanes.as_mut() {
            drop(l.batcher.flush_all());
        }
    }

    /// `true` when no update is parked in any lane.
    pub fn lanes_empty(&self) -> bool {
        self.lanes.as_ref().is_none_or(|l| l.batcher.is_empty())
    }

    /// Re-address the parked fetch to `target` as a new attempt and send a
    /// fresh FM. `failover` marks a move away from an unresponsive or
    /// departed replica. Returns the new attempt number.
    pub fn refetch(&mut self, target: SiteId, failover: bool, out: &mut impl Outbound) -> u32 {
        let now = out.now();
        let f = self.fetch.as_mut().expect("refetch without a parked fetch");
        f.target = target;
        f.attempt += 1;
        f.issued_at = now;
        let (var, attempt) = (f.var, f.attempt);
        if failover {
            out.metrics().fetch_failovers += 1;
            emit(out, self.site, EventKind::FetchFailover { var, attempt });
        }
        self.send_fetch(Msg::Fm(Fm { var }), out);
        attempt
    }

    /// Re-issue the parked fetch after this site recovered from a crash;
    /// its FM (or the RM reply) died with the old incarnation. A `replayed`
    /// protocol (WAL recovery) still holds its outstanding-fetch slot, so a
    /// raw FM goes to the recorded target; a rebuilt one is asked to read
    /// again. Returns `true` when the read completed locally instead.
    pub fn resume_fetch(&mut self, replayed: bool, out: &mut impl Outbound) -> bool {
        let Some(f) = self.fetch else {
            return false;
        };
        if replayed {
            self.refetch(f.target, false, out);
            return false;
        }
        let attempt = f.attempt + 1;
        match self.proto.read(f.var) {
            ReadResult::Fetch { target, msg } => {
                out.journal(self.site, WalRecord::FetchIssued { var: f.var });
                self.fetch = Some(ParkedFetch {
                    target,
                    attempt,
                    issued_at: out.now(),
                    ..f
                });
                self.send_fetch(msg, out);
                false
            }
            // Unreachable in practice (the variable was not locally
            // replicated or the fetch would never have been issued), but
            // if the protocol can answer locally now, complete.
            ReadResult::Local(v) => {
                out.journal(self.site, WalRecord::LocalRead { var: f.var });
                self.fetch = None;
                if f.measured {
                    out.metrics().record_op(false, true);
                }
                self.read_locally(f.var, v.map(|x| x.writer), out);
                true
            }
        }
    }

    /// Give up on the parked fetch: a degraded read. The protocol releases
    /// its fetch slot (journaled first); no history record is written,
    /// since the operation returned no value.
    pub fn abandon_fetch(&mut self, out: &mut impl Outbound) {
        let f = self.fetch.take().expect("abandon without a parked fetch");
        out.journal(self.site, WalRecord::FetchAborted { var: f.var });
        self.proto.abort_fetch(f.var);
        out.metrics().degraded_reads += 1;
        emit(out, self.site, EventKind::DegradedRead { var: f.var });
    }

    /// Forget the parked fetch without a trace (the site left the view).
    pub fn forget_fetch(&mut self) {
        self.fetch = None;
    }

    /// Keep only the receipt times of writes `keep` accepts.
    pub fn retain_receipts(&mut self, mut keep: impl FnMut(&WriteId) -> bool) {
        self.receipt.retain(|w, _| keep(w));
    }

    /// Record a read the local replica answered.
    fn read_locally(&mut self, var: VarId, writer: Option<WriteId>, out: &mut impl Outbound) {
        emit(out, self.site, EventKind::ReadLocal { var, writer });
        if let Some(h) = out.history() {
            h.record_read(self.site, var, writer, self.site);
        }
    }

    /// Trace and send the parked fetch's FM. The lane toward the server
    /// flushes first: the fetch must observe the fetcher's own in-flight
    /// writes, and must not overtake them on the channel.
    fn send_fetch(&mut self, msg: Msg, out: &mut impl Outbound) {
        let f = self.fetch.expect("sending a fetch that is not parked");
        emit(
            out,
            self.site,
            EventKind::FetchIssue {
                var: f.var,
                target: f.target,
                attempt: f.attempt,
            },
        );
        self.flush_dest(f.target, out);
        let bytes = msg.meta_size(&self.size_model);
        self.ship(f.target, msg, bytes, f.measured, out);
    }

    /// Route protocol effects: sends through the lanes onto the wire,
    /// applies into the metrics and history, a fetch completion into the
    /// parked read. Returns `true` when the parked fetch completed.
    fn route(&mut self, effects: Vec<Effect>, measured: bool, out: &mut impl Outbound) -> bool {
        let site = self.site;
        let mut completed = false;
        // A multicast write fans out one `Effect::Send` per destination,
        // all sharing the same `Arc`'d piggyback snapshot. Sizing the
        // piggyback is `O(entries)`, so it is memoized per snapshot: the
        // fan-out is sized once instead of once per destination.
        let mut meta_memo: Option<(SmMeta, u64)> = None;
        for e in effects {
            match e {
                Effect::Send { to, msg } => {
                    let size = match &msg {
                        Msg::Sm(sm) => match &meta_memo {
                            Some((cached, sz)) if shares_snapshot(cached, &sm.meta) => *sz,
                            _ => {
                                let sz = msg.meta_size(&self.size_model);
                                meta_memo = Some((sm.meta.clone(), sz));
                                sz
                            }
                        },
                        _ => msg.meta_size(&self.size_model),
                    };
                    let msg = match msg {
                        Msg::Sm(sm) if self.lanes.is_some() => {
                            self.park(to, sm, measured, size, out);
                            continue;
                        }
                        other => other,
                    };
                    self.flush_dest(to, out);
                    self.ship(to, msg, size, measured, out);
                }
                Effect::Applied { var, write } => {
                    let m = out.metrics();
                    m.applies += 1;
                    m.per_site.site_mut(site.index()).applies += 1;
                    let first = out.applied(site, write);
                    // Own-write applies have no receipt; only received
                    // updates contribute to the apply-latency statistic.
                    let mut dwell_ns = 0u64;
                    if let Some(t0) = self.receipt.remove(&write) {
                        dwell_ns = (out.now() - t0).as_nanos();
                        let m = out.metrics();
                        m.record_apply_latency(dwell_ns as f64);
                        m.per_site
                            .site_mut(site.index())
                            .record_dwell(dwell_ns as f64);
                    }
                    if first {
                        if let Some(h) = out.history() {
                            h.record_apply(site, write);
                        }
                        emit(
                            out,
                            site,
                            EventKind::Apply {
                                origin: write.site,
                                clock: write.clock,
                                var,
                                dwell_ns,
                            },
                        );
                    }
                }
                Effect::FetchDone { var, value } => {
                    let f = self
                        .fetch
                        .take()
                        .filter(|f| f.var == var)
                        .expect("FetchDone matches the parked fetch");
                    let rtt_ns = (out.now() - f.issued_at).as_nanos();
                    let m = out.metrics();
                    m.record_fetch_rtt(site.index(), rtt_ns as f64);
                    if f.measured {
                        m.record_op(false, true);
                    }
                    let writer = value.map(|x| x.writer);
                    emit(
                        out,
                        site,
                        EventKind::FetchDone {
                            var,
                            served_by: f.target,
                            rtt_ns,
                            writer,
                        },
                    );
                    if let Some(h) = out.history() {
                        h.record_read(site, var, writer, f.target);
                    }
                    completed = true;
                }
            }
        }
        completed
    }

    /// Park an SM in its destination lane; bytes, entries and trace are
    /// accounted when the lane flushes.
    fn park(
        &mut self,
        to: SiteId,
        sm: crate::Sm,
        measured: bool,
        size: u64,
        out: &mut impl Outbound,
    ) {
        let lanes = self.lanes.as_mut().expect("parking requires lanes");
        let pending = PendingSm {
            sm,
            measured,
            full_bytes: size,
        };
        match lanes.batcher.offer(to, pending, size) {
            Offer::First { epoch } => {
                let at = out.now() + lanes.window;
                out.arm_flush(self.site, to, epoch, at);
            }
            Offer::Queued => {}
            Offer::Flush(items) => self.flush_lane(to, items, out),
        }
    }

    /// Flush the lane toward `to`, if anything is parked in it.
    fn flush_dest(&mut self, to: SiteId, out: &mut impl Outbound) {
        if let Some(items) = self.lanes.as_mut().and_then(|l| l.batcher.flush_dest(to)) {
            self.flush_lane(to, items, out);
        }
    }

    /// Ship one drained lane. A single parked update goes out as a plain
    /// [`Msg::Sm`] with exact unbatched accounting (batching that never
    /// amortizes anything must not *cost* anything either); two or more
    /// become one [`Msg::Batch`] frame charged the merged-piggyback size,
    /// with the saving against per-SM frames recorded in the batching
    /// counters.
    fn flush_lane(&mut self, to: SiteId, items: Vec<PendingSm>, out: &mut impl Outbound) {
        debug_assert!(!items.is_empty(), "a drained lane is never empty");
        if items.len() == 1 {
            let p = items.into_iter().next().expect("len checked");
            self.ship(to, Msg::Sm(p.sm), p.full_bytes, p.measured, out);
            return;
        }
        let unbatched: u64 = items.iter().map(|p| p.full_bytes).sum();
        let measured = items.iter().any(|p| p.measured);
        let batch = SmBatch {
            sms: items
                .into_iter()
                .map(|p| BatchedSm {
                    sm: p.sm,
                    measured: p.measured,
                })
                .collect(),
        };
        let count = batch.len() as u64;
        let msg = Msg::Batch(Arc::new(batch));
        let bytes = msg.meta_size(&self.size_model);
        let m = out.metrics();
        m.batch_flushes += 1;
        m.batched_sms += count;
        m.batch_bytes_saved += unbatched.saturating_sub(bytes);
        self.ship(to, msg, bytes, measured, out);
    }

    /// Account one frame of `bytes` and put it on the wire.
    fn ship(&mut self, to: SiteId, msg: Msg, bytes: u64, measured: bool, out: &mut impl Outbound) {
        let site = self.site;
        let m = out.metrics();
        m.record_msg(msg.kind(), bytes, measured);
        m.per_site.site_mut(site.index()).sends += 1;
        match &msg {
            Msg::Sm(sm) => m.sm_entries.record(sm.meta.entry_count() as f64),
            Msg::Batch(b) => {
                for bs in &b.sms {
                    m.sm_entries.record(bs.sm.meta.entry_count() as f64);
                }
            }
            _ => {}
        }
        if out.tracer().enabled() {
            // One send event per carried update, with the frame's bytes
            // amortized over them (remainder on the first), so per-site
            // byte sums over a trace match the metrics.
            let writers: Vec<Option<WriteId>> = match &msg {
                Msg::Batch(b) => b.sms.iter().map(|bs| Some(bs.sm.value.writer)).collect(),
                Msg::Sm(sm) => vec![Some(sm.value.writer)],
                _ => vec![None],
            };
            let share = bytes / writers.len() as u64;
            let mut first = bytes - share * (writers.len() as u64 - 1);
            for writer in writers {
                emit(
                    out,
                    site,
                    EventKind::Send {
                        to,
                        kind: msg.kind(),
                        bytes: first,
                        writer,
                    },
                );
                first = share;
            }
        }
        out.send(site, to, msg, measured);
    }

    /// Move the protocol's buffered trace events into the tracer. The
    /// protocols have no notion of time, so their events are stamped here,
    /// at the instant that triggered them.
    fn drain_trace(&mut self, out: &mut impl Outbound) {
        if !out.tracer().enabled() {
            return;
        }
        for ev in self.proto.take_trace() {
            let kind = match ev {
                ProtoTraceEvent::Buffered {
                    origin,
                    clock,
                    var,
                    dep_site,
                    dep_clock,
                } => EventKind::Buffer {
                    origin,
                    clock,
                    var,
                    dep_site,
                    dep_clock,
                },
                ProtoTraceEvent::LogPruned { removed, remaining } => EventKind::LogPrune {
                    removed: removed as u64,
                    remaining: remaining as u64,
                },
            };
            emit(out, self.site, kind);
        }
    }
}

/// Emit one trace event at the current instant, if tracing is on.
#[inline]
fn emit(out: &mut impl Outbound, site: SiteId, kind: EventKind) {
    if out.tracer().enabled() {
        let now = out.now();
        out.tracer().emit(TraceEvent::at(now, site, kind));
    }
}

/// Unbatch-on-deliver: expand a batch frame into its per-update messages
/// (original piggybacks, original order, per-update warm-up attribution);
/// a plain message passes through untouched. The receiving protocol sees
/// exactly the deliveries it would have seen without batching, so every
/// delivery predicate — and the checker — observes the same execution.
fn unbatch(msg: Msg, measured: bool) -> Vec<(Msg, bool)> {
    match msg {
        Msg::Batch(b) => b
            .sms
            .iter()
            .map(|bs| (Msg::Sm(bs.sm.clone()), bs.measured))
            .collect(),
        m => vec![(m, measured)],
    }
}

/// True when two SM metas share the same `Arc`'d snapshot (one multicast's
/// fan-out). Pointer equality implies value equality; distinct writes
/// always carry distinct allocations, so this never conflates different
/// snapshots.
fn shares_snapshot(a: &SmMeta, b: &SmMeta) -> bool {
    match (a, b) {
        (SmMeta::FullTrack { write: x }, SmMeta::FullTrack { write: y }) => Arc::ptr_eq(x, y),
        (SmMeta::OptTrack { log: x, .. }, SmMeta::OptTrack { log: y, .. }) => Arc::ptr_eq(x, y),
        (SmMeta::Crp { log: x, .. }, SmMeta::Crp { log: y, .. }) => Arc::ptr_eq(x, y),
        (SmMeta::OptP { write: x }, SmMeta::OptP { write: y }) => Arc::ptr_eq(x, y),
        _ => false,
    }
}
