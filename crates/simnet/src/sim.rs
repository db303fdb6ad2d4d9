//! The full-system simulation driver.

use crate::channel::{ChannelMatrix, FaultPlan, LatencyModel, PartitionWindow};
use crate::kernel::{EventHeap, SimEvent};
use crate::stability::{StabilityPlan, StabilityState};
use crate::transport::{Transport, TransportCmd, TransportTuning};
use causal_checker::History;
use causal_clocks::{DestSet, PruneConfig};
use causal_memory::{DynamicPlacement, Placement};
use causal_metrics::RunMetrics;
use causal_obs::{EventKind, NoopTracer, TraceEvent, Tracer};
use causal_proto::host::protocol_config;
pub use causal_proto::BatchPlan;
use causal_proto::{
    build_site, DurableStore, Effect, Frame, Msg, Outbound, OwnLedger, PeerAckInfo, ProtocolConfig,
    ProtocolKind, ProtocolSite, Replication, SiteHost, StableCut, SyncState, WalRecord,
};
use causal_types::{OpKind, SimDuration, SimTime, SiteId, SizeModel, VarId, WriteId};
use causal_workload::{generate, ChurnOp, ChurnPlan, Schedule, WorkloadParams};
use fxhash::FxHashSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// A site pause (fail-stop with recovery): during `[start, end)` the site
/// neither issues operations nor processes incoming messages; everything
/// addressed to it is buffered and handled at resume, in arrival order.
/// State survives (the paper's motivation §I: independent hardware
/// maintenance without systematic disasters).
#[derive(Clone, Debug)]
pub struct PauseWindow {
    /// The paused site.
    pub site: SiteId,
    /// Pause onset.
    pub start: SimTime,
    /// Resume instant.
    pub end: SimTime,
}

impl PauseWindow {
    /// If `site` is paused at `now`, the instant it resumes.
    fn resumes(&self, site: SiteId, now: SimTime) -> Option<SimTime> {
        (self.site == site && now >= self.start && now < self.end).then_some(self.end)
    }
}

/// A fail-stop crash **with state loss**: at `start` the site loses all
/// volatile state — clocks, logs, parked updates, replica values,
/// `LastWriteOn` metadata — keeping only its durable own-write ledger. At
/// `end` it restarts, announces a new incarnation, and rebuilds its causal
/// knowledge through a state-sync handshake with every live replica.
///
/// Unlike [`PauseWindow`], messages arriving while the site is down are
/// *lost* (the reliable transport's senders retransmit them), so crash
/// windows require chaos mode and are orchestrated together with the
/// [`FaultPlan`]. Windows of one *site* must not overlap (asserted at
/// runtime). Windows of different sites may overlap — a correlated
/// failure — which a [`DurabilityPlan`] WAL recovery survives with full
/// state, and which otherwise completes in degraded mode once the sync
/// deadline expires.
#[derive(Clone, Debug)]
pub struct CrashWindow {
    /// The crashing site.
    pub site: SiteId,
    /// Crash instant (fail-stop, state loss).
    pub start: SimTime,
    /// Restart instant (recovery + sync handshake begins).
    pub end: SimTime,
}

/// Durability and graceful-degradation switches of one run.
///
/// `Default` is all-off: the own-write ledger is the only durable state,
/// recovery is a full peer rebuild, and a blocked remote read waits for its
/// predesignated replica indefinitely. Enabling `wal` gives every site a
/// [`DurableStore`] and implies chaos mode (the reliable transport), since
/// crash recovery is its only consumer.
#[derive(Clone, Debug, Default)]
pub struct DurabilityPlan {
    /// Per-site write-ahead log: recovery replays checkpoint + log locally
    /// and asks peers only for the delta past its replayed high-water
    /// marks, which makes overlapping crashes and a crash inside a
    /// partition recoverable.
    pub wal: bool,
    /// Periodic checkpoint interval (requires `wal` and must be positive).
    /// `None` never checkpoints: replay re-drives the whole log.
    pub checkpoint_every: Option<SimDuration>,
    /// Deadline after which a blocked remote read fails over to the next
    /// candidate replica, and after `2·p` expired attempts is abandoned as
    /// a degraded read. `None` blocks indefinitely.
    pub fetch_deadline: Option<SimDuration>,
    /// Sites whose crash also destroys the durable medium
    /// ([`DurableStore::wipe`]): their recovery falls back to the full
    /// peer rebuild.
    pub lose_media: Vec<SiteId>,
    /// Sites whose WAL loads fail-soft at every recovery: the crash tore
    /// the final log record, so replay truncates it
    /// ([`DurableStore::tear_tail`]), rolls the redelivery marks back to
    /// the checkpoint floor, and reconciles the replayed state against the
    /// durable own-write ledger so no `WriteId` is ever reused. Requires
    /// `wal`.
    pub torn_tail: Vec<SiteId>,
}

/// Configuration of one simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// Which protocol every site runs.
    pub protocol: ProtocolKind,
    /// Replica placement (partial or full).
    pub placement: Arc<Placement>,
    /// The operation workload.
    pub workload: WorkloadParams,
    /// Channel latency model.
    pub latency: LatencyModel,
    /// Byte-accounting calibration.
    pub size_model: SizeModel,
    /// Opt-Track pruning switches (ignored by the other protocols).
    pub prune: PruneConfig,
    /// Record a [`History`] for post-run consistency checking. Adds memory
    /// proportional to the operation count; off for large sweeps.
    pub record_history: bool,
    /// Injected network partitions (empty by default).
    pub partitions: Vec<PartitionWindow>,
    /// Replay this exact schedule instead of generating one from
    /// `workload` (trace-driven runs; see `causal_workload::csv`). Its
    /// shape must match `workload.n`.
    pub schedule_override: Option<causal_workload::Schedule>,
    /// Injected site pauses (empty by default).
    pub pauses: Vec<PauseWindow>,
    /// Lossy-network fault plan. When it is a no-op and `crashes` is empty
    /// the reliable transport is bypassed entirely and the run takes the
    /// exact lossless path (bit-identical metrics).
    pub faults: FaultPlan,
    /// Injected fail-stop crashes with state loss (empty by default).
    pub crashes: Vec<CrashWindow>,
    /// Durability and graceful-degradation switches (all-off by default).
    pub durability: DurabilityPlan,
    /// Scheduled membership and placement changes — joins bootstrapped by
    /// state transfer, graceful and fail-stop leaves, variable migrations —
    /// executed as epoch'd two-phase view changes while the workload runs.
    /// `None` keeps the placement static. A churn plan implies chaos mode
    /// (the reliable transport).
    pub churn: Option<ChurnPlan>,
    /// Causal-stability tracking and stable-frontier garbage collection.
    /// `None` (the default) disables the subsystem entirely — no stability
    /// tick is ever scheduled, keeping such runs byte-identical to builds
    /// that predate it.
    pub stability: Option<StabilityPlan>,
    /// Per-destination update batching. `None` (the default) sends every
    /// SM as its own frame, byte-identical to builds that predate the
    /// batcher; `Some` parks updates in per-destination lanes and ships
    /// them as merged-piggyback [`Msg::Batch`] frames.
    pub batching: Option<BatchPlan>,
}

impl SimConfig {
    /// The paper's partial-replication setting (`p = 0.3·n`, even
    /// placement) for the given protocol.
    pub fn paper_partial(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> Self {
        assert!(
            protocol.supports_partial(),
            "{protocol} is full-replication only"
        );
        SimConfig {
            protocol,
            placement: Arc::new(Placement::paper_partial(n).expect("valid n")),
            workload: WorkloadParams::paper(n, w_rate, seed),
            latency: LatencyModel::default_wan(),
            size_model: SizeModel::java_like(),
            prune: PruneConfig::default(),
            record_history: false,
            partitions: Vec::new(),
            schedule_override: None,
            pauses: Vec::new(),
            faults: FaultPlan::default(),
            crashes: Vec::new(),
            durability: DurabilityPlan::default(),
            churn: None,
            stability: None,
            batching: None,
        }
    }

    /// The paper's full-replication setting (`p = n`) for the given
    /// protocol. Any of the four protocols can run fully replicated.
    pub fn paper_full(protocol: ProtocolKind, n: usize, w_rate: f64, seed: u64) -> Self {
        SimConfig {
            protocol,
            placement: Arc::new(Placement::full(n).expect("valid n")),
            workload: WorkloadParams::paper(n, w_rate, seed),
            latency: LatencyModel::default_wan(),
            size_model: SizeModel::java_like(),
            prune: PruneConfig::default(),
            record_history: false,
            partitions: Vec::new(),
            schedule_override: None,
            pauses: Vec::new(),
            faults: FaultPlan::default(),
            crashes: Vec::new(),
            durability: DurabilityPlan::default(),
            churn: None,
            stability: None,
            batching: None,
        }
    }

    /// Shrink to a fast test-sized run (60 events per process).
    pub fn small(mut self) -> Self {
        self.workload.events_per_process = 60;
        self
    }

    /// Enable history recording (for the consistency checker).
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Inject a lossy-network fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Inject fail-stop crash windows.
    pub fn with_crashes(mut self, crashes: Vec<CrashWindow>) -> Self {
        self.crashes = crashes;
        self
    }

    /// Install a durability plan (WAL, checkpoints, fetch deadlines).
    pub fn with_durability(mut self, durability: DurabilityPlan) -> Self {
        self.durability = durability;
        self
    }

    /// Install a churn plan (membership and placement changes).
    pub fn with_churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Install a causal-stability plan (watermark gossip, stable-frontier
    /// GC, overdue watchdog, soft-cap backpressure).
    pub fn with_stability(mut self, stability: StabilityPlan) -> Self {
        self.stability = Some(stability);
        self
    }

    /// Enable per-destination update batching under `plan`.
    pub fn with_batching(mut self, plan: BatchPlan) -> Self {
        self.batching = Some(plan);
        self
    }

    /// `true` when this run needs the reliable transport (lossy network,
    /// crash injection, WAL-backed durability, or membership churn).
    pub fn chaos(&self) -> bool {
        !self.faults.is_noop()
            || !self.crashes.is_empty()
            || self.durability.wal
            || self.churn.as_ref().is_some_and(|p| !p.is_empty())
    }
}

/// Everything a run produces.
pub struct SimResult {
    /// Counters and byte totals.
    pub metrics: RunMetrics,
    /// The recorded execution, when requested.
    pub history: Option<History>,
    /// Virtual time at which the system went quiescent.
    pub duration: SimTime,
    /// Updates still parked at the end — **must** be zero; nonzero means an
    /// activation predicate can never fire (a protocol bug).
    pub final_pending: usize,
    /// Per-site causality-metadata storage footprint at quiescence, bytes
    /// (clocks + logs + LastWriteOn structures, under the run's size
    /// model). The paper notes Full-Track "incurs the same storage cost"
    /// as its piggybacks; this measures it.
    pub final_local_meta: Vec<u64>,
}

/// How long a recovering site waits for its expected `SyncResp`s before
/// coming up in degraded mode (2 s of virtual time — correlated crashes
/// can take an expected responder down mid-handshake).
const SYNC_DEADLINE: SimDuration = SimDuration(2_000_000_000);

/// How long a proposed view change waits for full quiescence before it is
/// installed *forced* (2 s of virtual time, mirroring [`SYNC_DEADLINE`]):
/// a member crashing mid-drain must degrade the view change, not wedge it.
const VIEW_DEADLINE: SimDuration = SimDuration(2_000_000_000);

/// Poll cadence of the quiescence test while a view change drains.
const VIEW_POLL: SimDuration = SimDuration(100_000_000);

/// Liveness of a site under crash injection.
#[derive(Clone, Copy, PartialEq, Debug)]
enum SiteStatus {
    /// Normal operation.
    Up,
    /// Crashed: operations defer, arriving data frames are lost.
    Down,
    /// Restarted, collecting `SyncResp`s; data frames buffer until the
    /// protocol state is reinstalled.
    Syncing,
    /// Not in the membership view: either not yet joined or departed for
    /// good. Operations are dropped, arriving frames are lost.
    Out,
}

/// A proposed view change draining toward its install.
struct PendingView {
    /// Index into the churn plan's event list.
    idx: usize,
    /// Proposal instant (for the view-change-latency statistic and the
    /// forced-install deadline).
    proposed_at: SimTime,
}

/// Everything the membership layer adds to a run.
struct ChurnState {
    /// The validated reconfiguration schedule.
    plan: ChurnPlan,
    /// The epoch'd view the protocol sites share (via `Arc<dyn
    /// Replication>`): installs become visible to every site at once.
    dynp: Arc<DynamicPlacement>,
    /// The view change currently quiescing, if any. View changes install
    /// strictly in plan order.
    pending: Option<PendingView>,
    /// Proposals that reached their scheduled time while another view
    /// change was still in flight, FIFO.
    queued: VecDeque<usize>,
    /// Operations held during quiescence, replayed at install.
    view_held: Vec<SimEvent>,
    /// Sites that joined the view and are still bootstrapping by state
    /// transfer.
    joining: Vec<bool>,
}

/// One recovery's `SyncResp` collection.
struct SyncCollect {
    /// The recovery instant (for the recovery-time statistic).
    started: SimTime,
    /// The incarnation the responses must echo.
    inc: u32,
    /// Peers that were up when the recovery began — the response set the
    /// recovery waits for. Down peers cannot answer; their own later
    /// recovery fast-forwards this site past anything missed.
    expected: Vec<SiteId>,
    /// Whether the local WAL replay succeeded. If so, the replay restored
    /// the protocol's outstanding-fetch slot, and recovery completion must
    /// re-send a raw FM instead of calling `read()` again.
    via_wal: bool,
    /// Responses gathered so far.
    sources: Vec<(SiteId, PeerAckInfo, SyncState)>,
}

/// Everything the lossy/crashy mode adds to a run.
struct Chaos {
    transport: Transport,
    faults: FaultPlan,
    /// Fault-decision stream, independent of the latency stream so the
    /// fault plan never perturbs latency sampling.
    fault_rng: StdRng,
    status: Vec<SiteStatus>,
    /// Events deferred while a site is down or syncing, replayed in order
    /// at recovery completion.
    held: Vec<Vec<SimEvent>>,
    sync: Vec<Option<SyncCollect>>,
    ledgers: Vec<Option<OwnLedger>>,
    /// Per-site durable stores (WAL + checkpoint images), present iff the
    /// run's [`DurabilityPlan::wal`] is on.
    stores: Option<Vec<DurableStore>>,
    /// History-level apply dedup: a crashed site re-applies redelivered
    /// updates it had already applied (and recorded) before losing state;
    /// the checker's per-origin FIFO pass must see each apply once.
    applied_seen: FxHashSet<(SiteId, WriteId)>,
}

/// Run one simulation to quiescence.
pub fn run(cfg: &SimConfig) -> SimResult {
    run_traced(cfg, &mut NoopTracer)
}

/// Run one simulation to quiescence, emitting structured trace events into
/// `tracer`. With a disabled tracer ([`NoopTracer`]) this is exactly
/// [`run`]: every emission site is gated on `tracer.enabled()` and the
/// protocol-side trace buffers are never allocated.
pub fn run_traced(cfg: &SimConfig, tracer: &mut dyn Tracer) -> SimResult {
    let mut sim = Sim::new(cfg, tracer);
    while let Some((now, ev)) = sim.net.heap.pop() {
        // A paused site defers everything — operations and deliveries — to
        // its resume instant; heap insertion order preserves the original
        // arrival order among deferred events. Crash and recovery events
        // are the fault injector's own and never defer.
        let event_site = match &ev {
            SimEvent::OpReady { site } => Some(*site),
            SimEvent::Deliver { to, .. } => Some(*to),
            SimEvent::DeliverFrame { to, .. } => Some(*to),
            SimEvent::RetransmitCheck { from, .. } => Some(*from),
            SimEvent::FetchDeadline { site, .. } => Some(*site),
            SimEvent::BatchFlush { from, .. } => Some(*from),
            SimEvent::Crash { .. }
            | SimEvent::Recover { .. }
            | SimEvent::SyncTimeout { .. }
            | SimEvent::CheckpointTick
            | SimEvent::StabilityTick
            | SimEvent::ViewPropose { .. }
            | SimEvent::ViewQuiesceCheck { .. } => None,
        };
        if let Some(site) = event_site {
            if let Some(resume) = cfg.pauses.iter().filter_map(|p| p.resumes(site, now)).max() {
                sim.net.heap.push(resume, ev);
                continue;
            }
        }
        sim.handle(ev);
    }
    sim.finish()
}

/// One run: the per-site hosts and the world they live in.
struct Sim<'a> {
    hosts: Vec<SiteHost>,
    net: Net<'a>,
}

/// Everything of a run except the hosts: the event heap and channels, the
/// shared recorders, and the simulator-only layers (chaos transport, WAL,
/// stability, churn). It is the hosts' [`Outbound`].
struct Net<'a> {
    cfg: &'a SimConfig,
    n: usize,
    /// The replication view every site is built against.
    repl: Arc<dyn Replication>,
    /// The protocol configuration every site is built with.
    proto_cfg: ProtocolConfig,
    schedule: Schedule,
    /// Per site, the index of its next scheduled operation.
    next_op: Vec<usize>,
    heap: EventHeap,
    channels: ChannelMatrix,
    /// Latency sampling stream.
    lat_rng: StdRng,
    metrics: RunMetrics,
    history: Option<History>,
    chaos: Option<Chaos>,
    stability: Option<StabilityState>,
    churn: Option<ChurnState>,
    tracer: &'a mut dyn Tracer,
}

impl<'a> Sim<'a> {
    /// Validate `cfg`, build every site, and arm the initial events.
    fn new(cfg: &'a SimConfig, tracer: &'a mut dyn Tracer) -> Self {
        let n = cfg.workload.n;
        assert_eq!(cfg.placement.n(), n, "placement and workload disagree on n");
        let schedule = cfg
            .schedule_override
            .clone()
            .unwrap_or_else(|| generate(&cfg.workload));
        assert_eq!(
            schedule.per_site.len(),
            n,
            "override schedule shape mismatch"
        );

        // A churn plan swaps the static placement for a shared dynamic
        // view: every site holds the same `Arc`, so an installed view
        // change is visible to all of them at once.
        let (repl, churn): (Arc<dyn Replication>, Option<ChurnState>) = match &cfg.churn {
            Some(plan) if !plan.is_empty() => {
                plan.validate(n, cfg.workload.q)
                    .expect("invalid churn plan (validate before running)");
                let dynp = Arc::new(DynamicPlacement::new(
                    (*cfg.placement).clone(),
                    &plan.initial_members(n),
                ));
                // Variables homed solely on not-yet-joined sites start
                // orphaned; re-home them onto view-1 members so every read
                // and write has a replica from the first event on.
                dynp.rehome_orphans(cfg.workload.q);
                (
                    dynp.clone() as Arc<dyn Replication>,
                    Some(ChurnState {
                        plan: plan.clone(),
                        dynp,
                        pending: None,
                        queued: VecDeque::new(),
                        view_held: Vec::new(),
                        joining: vec![false; n],
                    }),
                )
            }
            _ => (cfg.placement.clone() as Arc<dyn Replication>, None),
        };
        let proto_cfg = protocol_config(ProtocolConfig { prune: cfg.prune }, cfg.batching);
        let hosts: Vec<SiteHost> = SiteId::all(n)
            .map(|s| {
                let mut proto = build_site(cfg.protocol, s, repl.clone(), proto_cfg);
                proto.set_tracing(tracer.enabled());
                SiteHost::new(
                    s,
                    proto,
                    cfg.size_model,
                    cfg.workload.payload_len,
                    cfg.batching,
                )
            })
            .collect();

        let mut metrics = RunMetrics::new();
        metrics.per_site.ensure(n);
        let chaos = cfg.chaos().then(|| Chaos {
            transport: Transport::new(n, TransportTuning::default()),
            faults: cfg.faults.clone(),
            fault_rng: StdRng::seed_from_u64(cfg.workload.seed ^ 0xFA17_BAD0_0DD5_EED5),
            status: vec![SiteStatus::Up; n],
            held: (0..n).map(|_| Vec::new()).collect(),
            sync: (0..n).map(|_| None).collect(),
            ledgers: vec![None; n],
            stores: cfg
                .durability
                .wal
                .then(|| (0..n).map(|_| DurableStore::new(n)).collect()),
            applied_seen: FxHashSet::default(),
        });
        // The stability subsystem starts with the run's initial membership;
        // without a plan nothing below allocates or schedules, and the run
        // is byte-identical to a stability-free build.
        let stability = cfg.stability.as_ref().map(|plan| {
            let members: Vec<bool> = match &cfg.churn {
                Some(p) if !p.is_empty() => p.initial_members(n),
                _ => vec![true; n],
            };
            StabilityState::new(n, plan.clone(), &members)
        });
        let mut net = Net {
            cfg,
            n,
            repl,
            proto_cfg,
            schedule,
            next_op: vec![0; n],
            heap: EventHeap::new(),
            channels: ChannelMatrix::new(n, cfg.latency).with_partitions(cfg.partitions.clone()),
            // Independent stream for latency sampling, derived from the
            // workload seed so a (seed, config) pair fully determines the
            // run.
            lat_rng: StdRng::seed_from_u64(cfg.workload.seed ^ 0xC0FF_EE00_D15E_A5E5),
            metrics,
            history: cfg.record_history.then(|| History::new(n)),
            chaos,
            stability,
            churn,
            tracer,
        };
        net.arm_initial_events();
        Sim { hosts, net }
    }

    /// Dispatch one event to its handler.
    fn handle(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::OpReady { site } => self.op_ready(site),
            SimEvent::Deliver {
                from,
                to,
                msg,
                measured,
                sent_at,
            } => {
                let transit = self.net.heap.now() - sent_at;
                self.net
                    .metrics
                    .transit_ns
                    .record(transit.as_nanos() as f64);
                self.deliver_app(from, to, msg, measured);
            }
            SimEvent::DeliverFrame {
                from,
                to,
                frame,
                measured,
                sent_at,
            } => self.deliver_frame(from, to, frame, measured, sent_at),
            SimEvent::RetransmitCheck {
                from,
                to,
                epoch,
                seq,
                attempt,
            } => {
                let c = self.net.chaos.as_mut().expect("timers require chaos mode");
                let cmds = c.transport.retransmit_check(from, to, epoch, seq, attempt);
                self.net.dispatch_cmds(from, cmds);
            }
            SimEvent::Crash { site } => self.crash(site),
            SimEvent::Recover { site } => self.recover(site),
            SimEvent::FetchDeadline { site, var, attempt } => {
                self.fetch_deadline(site, var, attempt)
            }
            SimEvent::SyncTimeout { site, inc } => {
                let stale = {
                    let c = self
                        .net
                        .chaos
                        .as_ref()
                        .expect("sync timers require chaos mode");
                    c.status[site.index()] != SiteStatus::Syncing
                        || c.sync[site.index()]
                            .as_ref()
                            .is_none_or(|col| col.inc != inc)
                };
                if !stale {
                    // An expected responder died mid-handshake: stop
                    // waiting and come up with whatever arrived (plus the
                    // WAL replay).
                    self.net.metrics.degraded_recoveries += 1;
                    self.finish_recovery(site);
                }
            }
            SimEvent::CheckpointTick => self.checkpoint_tick(),
            SimEvent::StabilityTick => self.stability_tick(),
            SimEvent::ViewPropose { idx } => {
                // Parked updates must drain with the rest of the in-flight
                // traffic during quiescence: flush every sender's lanes
                // onto the wire before the view change starts draining.
                for h in &mut self.hosts {
                    h.flush_all(&mut self.net);
                }
                self.net
                    .churn
                    .as_mut()
                    .expect("view events require a churn plan")
                    .queued
                    .push_back(idx);
                self.propose_next_view();
            }
            SimEvent::ViewQuiesceCheck { idx } => self.view_quiesce_check(idx),
            SimEvent::BatchFlush { from, to, epoch } => {
                // A stale epoch means the lane already flushed on a
                // count/byte trigger (or a crash/view barrier) and the
                // timer outlived it; the host filters that out.
                self.hosts[from.index()].on_flush_timer(to, epoch, &mut self.net);
            }
        }
    }

    /// The application process at `site` issues its next operation, unless
    /// a crash, a view change or backpressure holds it back.
    fn op_ready(&mut self, site: SiteId) {
        let i = site.index();
        let net = &mut self.net;
        if let Some(c) = net.chaos.as_mut() {
            match c.status[i] {
                SiteStatus::Up => {}
                // A departed site never issues again.
                SiteStatus::Out => return,
                // Crashed or syncing: the application resumes after
                // recovery completes.
                SiteStatus::Down | SiteStatus::Syncing => {
                    c.held[i].push(SimEvent::OpReady { site });
                    return;
                }
            }
        }
        // Quiesce: while a view change drains, no new operation starts;
        // held operations replay at install.
        if let Some(ch) = net.churn.as_mut() {
            if ch.pending.is_some() {
                ch.view_held.push(SimEvent::OpReady { site });
                return;
            }
        }
        let op = net.schedule.per_site[i][net.next_op[i]];
        // Soft-cap backpressure: while retained metadata exceeds the
        // stability plan's cap, the next *write* defers one heartbeat at a
        // time (bounded — see `MAX_WRITE_DEFERRALS`) instead of growing the
        // unstable window further. Reads always proceed.
        if let Some(stab) = net.stability.as_mut() {
            if matches!(op.kind, OpKind::Write { .. }) && stab.defer_write(site) {
                let at = net.heap.now() + stab.plan.heartbeat_every;
                net.heap.push(at, SimEvent::OpReady { site });
                return;
            }
        }
        debug_assert!(
            self.hosts[i].fetch().is_none(),
            "op issued while fetch outstanding"
        );
        let measured = net.next_op[i] >= net.schedule.warmup_events;
        net.next_op[i] += 1;
        if self.hosts[i].issue(op.kind, measured, net) {
            net.arm_fetch_deadline(&self.hosts[i]);
        } else {
            net.schedule_next(site);
        }
    }

    /// The one place an app message reaches a site.
    fn deliver_app(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool) {
        if self.hosts[to.index()].deliver(from, msg, measured, &mut self.net) {
            // The application resumes: its next op fires at the later of
            // its planned time and the fetch return.
            self.net.schedule_next(to);
        }
    }

    /// A transport frame arrives (chaos mode).
    fn deliver_frame(
        &mut self,
        from: SiteId,
        to: SiteId,
        frame: Box<Frame>,
        measured: bool,
        sent_at: SimTime,
    ) {
        // Liveness gate: a down site loses arriving traffic; a syncing site
        // buffers data until its state is rebuilt but must process the sync
        // handshake itself.
        let c = self.net.chaos.as_mut().expect("frames require chaos mode");
        match c.status[to.index()] {
            SiteStatus::Down | SiteStatus::Out => {
                self.net.metrics.crash_drops += 1;
                return;
            }
            SiteStatus::Syncing if !frame.is_sync() => {
                c.held[to.index()].push(SimEvent::DeliverFrame {
                    from,
                    to,
                    frame,
                    measured,
                    sent_at,
                });
                return;
            }
            _ => {}
        }
        match *frame {
            Frame::SyncReq {
                inc,
                ledger,
                applied,
            } => self.handle_sync_req(to, from, inc, &ledger, applied),
            Frame::SyncResp { inc, ack, state } => {
                let c = self.net.chaos.as_mut().expect("sync requires chaos mode");
                let Some(col) = c.sync[to.index()].as_mut() else {
                    return; // stale response for an already-finished recovery
                };
                if col.inc != inc {
                    return;
                }
                // Once every peer that was up at recovery start has
                // answered, the snapshot union is installed. (A
                // concurrently recovering peer may answer too — its extra
                // snapshot is folded in but never waited for.)
                col.sources.push((from, ack, state));
                let complete = col
                    .expected
                    .iter()
                    .all(|e| col.sources.iter().any(|(s, _, _)| s == e));
                if complete {
                    self.finish_recovery(to);
                }
            }
            data_or_ack => {
                if matches!(data_or_ack, Frame::Data { .. }) {
                    let transit = self.net.heap.now() - sent_at;
                    self.net
                        .metrics
                        .transit_ns
                        .record(transit.as_nanos() as f64);
                }
                let c = self.net.chaos.as_mut().expect("frames require chaos mode");
                let cmds =
                    c.transport
                        .on_frame(to, from, data_or_ack, measured, &mut self.net.metrics);
                for (msg, meas) in self.net.dispatch_cmds(to, cmds) {
                    self.deliver_app(from, to, msg, meas);
                }
            }
        }
    }

    /// Fail-stop crash with state loss.
    fn crash(&mut self, site: SiteId) {
        self.net.emit(site, EventKind::Crash);
        let c = self.net.chaos.as_mut().expect("crashes require chaos mode");
        assert_eq!(
            c.status[site.index()],
            SiteStatus::Up,
            "s{site} crashed again before its previous recovery finished"
        );
        c.status[site.index()] = SiteStatus::Down;
        let host = &mut self.hosts[site.index()];
        let (ledger, _lost_parked) = host.proto_mut().crash_volatile();
        c.ledgers[site.index()] = Some(ledger);
        c.transport.crash(site);
        // The crashing sender's parked (never-transmitted) updates are
        // volatile state and die with it, exactly like unsent writes;
        // recovery's ledger fast-forward settles peers past them. Draining
        // also stales the lanes' window timers.
        host.drop_lanes();
        if let Some(stab) = self.net.stability.as_mut() {
            stab.on_crash(site);
        }
        if self.net.cfg.durability.lose_media.contains(&site) {
            let stores = c.stores.as_mut().expect("media loss requires the WAL");
            stores[site.index()].wipe();
        }
    }

    /// Restart a crashed site: replay its WAL if it has one, then ask every
    /// peer for the state it missed.
    fn recover(&mut self, site: SiteId) {
        let cfg = self.net.cfg;
        let c = self.net.chaos.as_mut().expect("crashes require chaos mode");
        assert_eq!(
            c.status[site.index()],
            SiteStatus::Down,
            "recover without crash"
        );
        let ledger = c.ledgers[site.index()]
            .clone()
            .expect("ledger saved at crash");
        let inc = c.transport.revive(site, &ledger);
        self.net.emit(site, EventKind::Recover { inc });
        let c = self.net.chaos.as_mut().expect("chaos");
        // Local-first recovery: rebuild the state machine from the durable
        // store, so peers only need to fill in the delta. Media loss (or
        // running without the WAL) falls back to the full peer rebuild from
        // the cleared state machine.
        let mut applied = None;
        let mut via_wal = false;
        if let Some(stores) = c.stores.as_mut() {
            let store = &mut stores[site.index()];
            // Fail-soft load: a torn final record is truncated rather than
            // aborting the replay; the redelivery marks roll back to the
            // checkpoint floor so the lost suffix is re-driven by the
            // transport.
            if cfg.durability.torn_tail.contains(&site) {
                store.tear_tail(1);
            }
            let (repl, proto_cfg) = (&self.net.repl, self.net.proto_cfg);
            if let Some((replayed, replay_applied)) =
                store.replay(|| build_site(cfg.protocol, site, repl.clone(), proto_cfg))
            {
                let host = &mut self.hosts[site.index()];
                host.replace_proto(replayed);
                if let Some(stab) = self.net.stability.as_mut() {
                    // The rebuilt state has applied exactly the
                    // checkpoint's applies plus these replayed ones;
                    // anything else from the volatile window is re-parked,
                    // not applied, and stays outstanding.
                    for w in &replay_applied {
                        stab.applied(site, *w);
                    }
                }
                // The replayed site may carry a trace buffer cloned from
                // the live site at checkpoint time (stale replay-era
                // events): discard it, then restore the run's tracing mode.
                let proto = host.proto_mut();
                let _ = proto.take_trace();
                proto.set_tracing(self.net.tracer.enabled());
                // A truncated tail may have lost the site's latest own
                // writes: raise the replayed state to the durable ledger so
                // no WriteId is ever reused.
                proto.restore_own_ledger(&ledger);
                self.net.metrics.recovery_replays += 1;
                applied = Some(store.applied_high_water(site, ledger.own_clock));
                via_wal = true;
            }
        }
        let nothing_expected = self.net.start_sync(site, inc, &ledger, applied, via_wal);
        if nothing_expected {
            // Nothing to wait for: a single-site system, or every peer is
            // down too (correlated failure) — the WAL replay (or, without
            // it, the bare ledger) is all the state there is.
            self.finish_recovery(site);
        }
    }

    /// A blocked read's deadline expired: fail over to the next candidate
    /// replica, or give up as a degraded read once the budget is spent.
    fn fetch_deadline(&mut self, site: SiteId, var: VarId, attempt: u32) {
        let i = site.index();
        // Stale timer: the read completed, or a failover / crash-recovery
        // re-issue already bumped the attempt.
        let live = self.hosts[i]
            .fetch()
            .is_some_and(|f| f.var == var && f.attempt == attempt);
        let net = &mut self.net;
        // The reader itself crashed while blocked: its recovery re-issues
        // the fetch and re-arms.
        let up = net
            .chaos
            .as_ref()
            .expect("fetch deadlines require chaos mode")
            .status[i]
            == SiteStatus::Up;
        if !live || !up {
            return;
        }
        // View-aware failover: under churn the candidate walk must skip
        // departed members and honor installed migrations.
        let candidates = match net.churn.as_ref() {
            Some(ch) => ch.dynp.fetch_candidates(var, site),
            None => net.cfg.placement.fetch_candidates(var, site),
        };
        let budget = 2 * candidates.len() as u32;
        if attempt + 1 >= budget {
            self.hosts[i].abandon_fetch(net);
            net.schedule_next(site);
        } else {
            // Re-address the FM to the next candidate replica in
            // ring-preference order, cycling.
            let next = candidates[(attempt as usize + 1) % candidates.len()];
            self.hosts[i].refetch(next, true, net);
            net.arm_fetch_deadline(&self.hosts[i]);
        }
    }

    /// Checkpoint every live site whose log grew since its last image.
    fn checkpoint_tick(&mut self) {
        let every = self
            .net
            .cfg
            .durability
            .checkpoint_every
            .expect("checkpoint tick without an interval");
        for s in SiteId::all(self.net.n) {
            // Only a live site's state is consistent; a crashed or syncing
            // site checkpoints right after its recovery completes instead.
            if self.net.is_up(s) {
                self.net.checkpoint(s, self.hosts[s.index()].proto(), true);
            }
        }
        // Keep ticking only while the run is otherwise live, so the cadence
        // never keeps a quiescent system awake.
        if !self.net.heap.is_empty() {
            let at = self.net.heap.now() + every;
            self.net.heap.push(at, SimEvent::CheckpointTick);
        }
    }

    /// Heartbeat the stability rows, advance the frontier, and collect what
    /// it made stable.
    fn stability_tick(&mut self) {
        let n = self.net.n;
        let now = self.net.heap.now();
        let size_model = self.net.cfg.size_model;
        let up: Vec<bool> = SiteId::all(n).map(|s| self.net.is_up(s)).collect();
        let net = &mut self.net;
        let stab = net
            .stability
            .as_mut()
            .expect("stability tick without a plan");
        stab.heartbeat(&up);
        let advanced = stab.advance();
        if net.tracer.enabled() {
            for (origin, clock) in &advanced {
                net.tracer.emit(TraceEvent::at(
                    now,
                    *origin,
                    EventKind::FrontierAdvance { clock: *clock },
                ));
            }
        }
        net.metrics.record_stability_lag(stab.lag() as f64);
        if stab.plan.gc {
            // Each live member collects behind *its own* — gossip-lagged,
            // hence always ≤ true — frontier; the stable counts are global
            // (exact), which is safe for the same reason: both only ever
            // under-approximate stability.
            for s in SiteId::all(n).filter(|s| up[s.index()]) {
                let stats = {
                    let cut = StableCut {
                        clocks: stab.site_frontier(s),
                        counts: stab.stable_counts(),
                    };
                    self.hosts[s.index()].proto_mut().gc_stable(&cut)
                };
                if !stats.is_empty() {
                    stab.gc_log_entries += stats.log_entries as u64;
                    stab.gc_slots += stats.slots as u64;
                    if net.tracer.enabled() {
                        net.tracer.emit(TraceEvent::at(
                            now,
                            s,
                            EventKind::GcRun {
                                log_entries: stats.log_entries as u64,
                                slots: stats.slots as u64,
                            },
                        ));
                    }
                }
            }
            let stalled = advanced.is_empty()
                && stab
                    .members()
                    .iter()
                    .zip(&up)
                    .any(|(&m, &alive)| m && !alive);
            if stalled {
                stab.gc_stalled_ticks += 1;
            }
            // Driver-side retention maps keyed on stable writes can go too
            // — except the apply-dedup set while a checker history is
            // recorded, because a post-crash redelivery of even a stable
            // write re-applies and must stay deduplicated in the history.
            let gf = stab.global_frontier();
            if net.history.is_none() {
                if let Some(c) = net.chaos.as_mut() {
                    c.applied_seen.retain(|(_, w)| w.clock > gf[w.site.index()]);
                }
                for h in &mut self.hosts {
                    h.retain_receipts(|w| w.clock > gf[w.site.index()]);
                }
            }
            // A frontier advance licenses stable checkpoints: the fresh
            // image folds the just-collected state and every WAL segment
            // behind it is deleted, so the durable footprint tracks the
            // unstable window too.
            if !advanced.is_empty() {
                for s in SiteId::all(n).filter(|s| up[s.index()]) {
                    net.checkpoint(s, self.hosts[s.index()].proto(), true);
                }
            }
        }
        // Retained-metadata estimate (protocol meta + WAL): feeds the peak
        // gauge and the soft-cap backpressure decision.
        let mut retained: u64 = self
            .hosts
            .iter()
            .map(|h| h.proto().local_meta_size(&size_model))
            .sum();
        if let Some(stores) = net.chaos.as_ref().and_then(|c| c.stores.as_ref()) {
            retained += stores.iter().map(|st| st.retained_bytes()).sum::<u64>();
        }
        let stab = net.stability.as_mut().expect("checked above");
        let was_over = stab.over_cap;
        stab.sample_retained(retained);
        let crossed = stab.over_cap && !was_over;
        let overdue = stab.overdue_scan(now);
        let every = stab.plan.heartbeat_every;
        if crossed {
            net.emit(SiteId::from(0), EventKind::Backpressure { retained });
        }
        for (s, w) in overdue {
            net.emit(
                s,
                EventKind::BufferedOverdue {
                    origin: w.site,
                    clock: w.clock,
                },
            );
        }
        if !net.heap.is_empty() {
            net.heap.push(now + every, SimEvent::StabilityTick);
        }
    }

    /// Poll a draining view change: install it once the system is quiet,
    /// or forced once its deadline passes.
    fn view_quiesce_check(&mut self, idx: usize) {
        let now = self.net.heap.now();
        let proposed_at = {
            let ch = self
                .net
                .churn
                .as_ref()
                .expect("view events require a churn plan");
            match &ch.pending {
                Some(p) if p.idx == idx => p.proposed_at,
                _ => return, // stale poll for an installed view
            }
        };
        // Quiescent: no data frame is in flight or unsettled between live
        // sites, and no recovery handshake is open. Held operations
        // guarantee no *new* traffic starts, so the test is monotone until
        // the install.
        let quiet = {
            let c = self.net.chaos.as_ref().expect("churn requires chaos mode");
            let up: Vec<bool> = c.status.iter().map(|s| *s == SiteStatus::Up).collect();
            !c.status.contains(&SiteStatus::Syncing)
                && c.transport.quiescent(&up)
                && self.hosts.iter().all(|h| h.lanes_empty())
                && !self.net.heap.events().any(|e| match e {
                    SimEvent::DeliverFrame { to, frame, .. } => {
                        matches!(**frame, Frame::Data { .. }) && up[to.index()]
                    }
                    SimEvent::Deliver { to, .. } => up[to.index()],
                    _ => false,
                })
        };
        let forced = !quiet && now >= proposed_at + VIEW_DEADLINE;
        if quiet || forced {
            if forced {
                self.net.metrics.views_forced += 1;
            }
            self.install_view(idx, proposed_at, forced);
        } else {
            self.net
                .heap
                .push(now + VIEW_POLL, SimEvent::ViewQuiesceCheck { idx });
        }
    }

    /// A live site (`me`) handles a recovering peer's `SyncReq`:
    /// fast-forward past the peer's lost writes, renumber the SM backlog
    /// into the new epoch, re-issue a blocked fetch that was addressed to
    /// the dead incarnation, and answer with a state snapshot.
    fn handle_sync_req(
        &mut self,
        me: SiteId,
        peer: SiteId,
        inc: u32,
        ledger: &OwnLedger,
        applied: Option<Vec<u64>>,
    ) {
        let size_model = self.net.cfg.size_model;
        let c = self.net.chaos.as_mut().expect("sync requires chaos mode");
        let (ack_info, renumbered) = c.transport.peer_recovered(me, peer, inc);
        self.net.dispatch_cmds(me, renumbered);
        let host = &mut self.hosts[me.index()];
        // A fetch blocked on the dead incarnation would wait forever: its
        // FM (or the RM reply) died with the peer's volatile state.
        // Re-issue it on the new epoch; a duplicate reply is ignored at
        // delivery. The attempt bump invalidates any armed deadline timer.
        if host.fetch().is_some_and(|f| f.target == peer) {
            host.refetch(peer, false, &mut self.net);
            self.net.arm_fetch_deadline(host);
        }
        // Protocol-level fast-forward: lost writes count as applied, parked
        // updates from the dead incarnation are discarded, and anything
        // that was waiting only on the lost writes drains now. Journaled
        // first, so a later replay of this site re-drives the same
        // fast-forward.
        self.net.journal(
            me,
            WalRecord::PeerRecovered {
                peer,
                ledger: ledger.clone(),
            },
        );
        let (effects, _dropped) = host.proto_mut().note_peer_recovery(peer, ledger);
        // The fast-forward counts the peer's lost writes as applied without
        // ever emitting `Effect::Applied`; settle them or the stable
        // frontier wedges on updates nobody will deliver again.
        if let Some(stab) = self.net.stability.as_mut() {
            stab.settle_peer(me, peer, ledger.own_clock);
        }
        if host.apply_effects(effects, false, &mut self.net) {
            self.net.schedule_next(me);
        }
        // Answer with this site's causal knowledge and shared-variable
        // values — filtered down to the delta past the requester's replayed
        // per-origin high-water marks when it recovered from its WAL.
        let mut state = host.proto().export_sync(peer);
        if let Some(applied) = &applied {
            let full = state.meta_size(&size_model);
            state = state.filter_delta(applied);
            self.net.metrics.delta_sync_saved_bytes += full - state.meta_size(&size_model);
        }
        let state_bytes = state.meta_size(&size_model);
        let resp = Frame::SyncResp {
            inc,
            ack: ack_info,
            state,
        };
        self.net.metrics.sync_count += 1;
        self.net.metrics.sync_bytes += resp.overhead(&size_model) + state_bytes;
        self.net.emit(
            me,
            EventKind::SyncResp {
                to: peer,
                bytes: state_bytes,
            },
        );
        self.net.send_control(me, peer, resp);
    }

    /// Install the collected peer snapshots, mark the site up, replay
    /// buffered events and re-issue the site's own interrupted fetch.
    fn finish_recovery(&mut self, me: SiteId) {
        let now = self.net.heap.now();
        let size_model = self.net.cfg.size_model;
        let (col, held) = {
            let c = self.net.chaos.as_mut().expect("chaos");
            let col = c.sync[me.index()].take().expect("sync in progress");
            c.status[me.index()] = SiteStatus::Up;
            (col, std::mem::take(&mut c.held[me.index()]))
        };
        // A join bootstrap rides the recovery handshake verbatim; account
        // its transfer cost (and whether any donor never answered) to the
        // churn metrics before installing.
        if let Some(ch) = self.net.churn.as_mut() {
            if ch.joining[me.index()] {
                ch.joining[me.index()] = false;
                for (_, _, st) in &col.sources {
                    self.net.metrics.churn_transfer_bytes += st.meta_size(&size_model);
                }
                if col
                    .expected
                    .iter()
                    .any(|e| !col.sources.iter().any(|(s, _, _)| s == e))
                {
                    self.net.metrics.churn_transfers_degraded += 1;
                }
            }
        }
        let host = &mut self.hosts[me.index()];
        host.proto_mut().install_sync(&col.sources);
        // Sync-installed writes are fast-forwarded, never individually
        // applied; settle each donor's acked high-water so the frontier can
        // pass them.
        if let Some(stab) = self.net.stability.as_mut() {
            for (peer, ack, _) in &col.sources {
                stab.settle_peer(me, *peer, ack.sm_max_clock);
            }
            // The full-replication protocols fast-forward past the whole
            // merged snapshot horizon and drop its redeliveries as
            // duplicates; those writes never raise an apply effect, so
            // settle them here too.
            if let Some(h) = host.proto().applied_horizon() {
                for (j, hw) in h.iter().enumerate() {
                    if SiteId::from(j) != me {
                        stab.settle_peer(me, SiteId::from(j), *hw);
                    }
                }
            }
        }
        // Re-establish durability at the recovered state: a fresh
        // checkpoint folds in the installed snapshots (which are not
        // journaled) and truncates the log — and re-arms a wiped medium.
        self.net.checkpoint(me, host.proto(), false);
        let dur_ns = (now - col.started).as_nanos();
        self.net.metrics.recovery_ns.record(dur_ns as f64);
        self.net.emit(me, EventKind::RecoveryDone { dur_ns });
        for ev in held {
            self.net.heap.push(now, ev);
        }
        // The site's own in-flight fetch died with its old incarnation (the
        // FM may never have left, or the RM reply now addresses a dead
        // epoch). The attempt bump invalidates any armed deadline timer.
        if host.fetch().is_some() {
            if host.resume_fetch(col.via_wal, &mut self.net) {
                self.net.schedule_next(me);
            } else {
                self.net.arm_fetch_deadline(host);
            }
        }
    }

    /// Start quiescing the next queued view change, if none is in flight.
    /// View changes install strictly in plan order; a proposal that arrives
    /// while another is quiescing waits its turn in the FIFO.
    fn propose_next_view(&mut self) {
        let now = self.net.heap.now();
        let Some(ch) = self.net.churn.as_mut() else {
            return;
        };
        if ch.pending.is_some() {
            return;
        }
        let Some(idx) = ch.queued.pop_front() else {
            return;
        };
        ch.pending = Some(PendingView {
            idx,
            proposed_at: now,
        });
        // A fail-stop leave crashes at the *proposal* — the volatile state
        // is lost the instant the failure happens; the view change only
        // ratifies the departure at the epoch boundary. (Skipped when a
        // fault-plan crash already took the site down: its ledger is saved
        // either way.)
        if let ChurnOp::CrashLeave(s) = ch.plan.events[idx].op {
            if self.net.is_up(s) {
                self.net.emit(s, EventKind::Crash);
                let c = self.net.chaos.as_mut().expect("churn requires chaos mode");
                c.status[s.index()] = SiteStatus::Down;
                let (ledger, _lost_parked) = self.hosts[s.index()].proto_mut().crash_volatile();
                c.ledgers[s.index()] = Some(ledger);
                c.transport.crash(s);
                if let Some(stab) = self.net.stability.as_mut() {
                    stab.on_crash(s);
                }
            }
        }
        self.net.heap.push(now, SimEvent::ViewQuiesceCheck { idx });
    }

    /// Re-address every blocked remote fetch whose target replica just left
    /// the view (or stopped replicating `only_var`): fail over to the best
    /// candidate under the new placement, or abandon the read as degraded
    /// when no candidate remains.
    fn retarget_blocked_fetches(&mut self, old_target: SiteId, only_var: Option<VarId>) {
        for s in SiteId::all(self.net.n) {
            // A crashed reader's recovery re-issues its own fetch.
            if !self.net.is_up(s) {
                continue;
            }
            let host = &mut self.hosts[s.index()];
            let Some(var) = host
                .fetch()
                .filter(|f| f.target == old_target && only_var.is_none_or(|v| v == f.var))
                .map(|f| f.var)
            else {
                continue;
            };
            let ch = self.net.churn.as_ref().expect("retarget requires churn");
            match ch.dynp.fetch_candidates(var, s).first().copied() {
                Some(next) => {
                    host.refetch(next, true, &mut self.net);
                    self.net.arm_fetch_deadline(host);
                }
                None => {
                    // No replica is reachable under the new view: degraded
                    // read, journaled so a WAL replay does not resurrect
                    // the fetch slot.
                    host.abandon_fetch(&mut self.net);
                    self.net.schedule_next(s);
                }
            }
        }
    }

    /// Install view change `idx`: apply the membership/placement mutation,
    /// run its state transfers, bump the epoch, release held operations,
    /// and start the next queued proposal.
    fn install_view(&mut self, idx: usize, proposed_at: SimTime, forced: bool) {
        let now = self.net.heap.now();
        let op = self
            .net
            .churn
            .as_ref()
            .expect("install requires a churn plan")
            .plan
            .events[idx]
            .op;
        let mut finish_join = None;
        let subject = match op {
            ChurnOp::Join(s) => {
                if self.join(s) {
                    finish_join = Some(s);
                }
                s
            }
            ChurnOp::Leave(s) | ChurnOp::CrashLeave(s) => {
                self.leave(s, matches!(op, ChurnOp::CrashLeave(_)));
                s
            }
            ChurnOp::Migrate { var, from, to } => {
                self.migrate(var, from, to);
                to
            }
        };
        let net = &mut self.net;
        net.metrics.view_changes += 1;
        net.metrics
            .view_change_ns
            .record((now - proposed_at).as_nanos() as f64);
        let ch = net.churn.as_mut().expect("install requires a churn plan");
        let epoch = ch.dynp.epoch();
        ch.pending = None;
        // Release the operations held during quiescence in their original
        // order (same-time heap ties break by insertion sequence).
        let held = std::mem::take(&mut ch.view_held);
        net.emit(
            subject,
            EventKind::ViewChange {
                epoch,
                forced: forced as u64,
            },
        );
        for ev in held {
            net.heap.push(now, ev);
        }
        if let Some(s) = finish_join {
            // Single-member (or fully-crashed) view: nothing to wait for.
            self.finish_recovery(s);
        }
        self.propose_next_view();
    }

    /// Admit `s` to the view and start its bootstrap. Returns `true` when
    /// no live peer exists to wait for.
    fn join(&mut self, s: SiteId) -> bool {
        let ch = self.net.churn.as_mut().expect("join requires a churn plan");
        ch.dynp.install_join(s);
        ch.joining[s.index()] = true;
        // A join is a recovery from nothing: revive the transport endpoint,
        // then bootstrap by the digest/pull handshake — peers renumber
        // their (empty) streams, ship snapshots, and the collected union
        // becomes the joiner's state.
        let c = self.net.chaos.as_mut().expect("churn requires chaos mode");
        assert_eq!(
            c.status[s.index()],
            SiteStatus::Out,
            "join of an in-view site (validate should have caught this)"
        );
        let ledger = self.hosts[s.index()].proto().own_ledger();
        let inc = c.transport.revive(s, &ledger);
        self.net.emit(s, EventKind::Recover { inc });
        self.net.start_sync(s, inc, &ledger, None, false);
        let expected = self.net.chaos.as_ref().expect("chaos").sync[s.index()]
            .as_ref()
            .expect("sync just started")
            .expected
            .clone();
        // Seed the joiner's per-origin delivery state from every live
        // peer's ledger: writes up to a peer's current clock were multicast
        // to the *old* view and will never arrive on the joiner's fresh
        // channels, while everything after this install is addressed to it
        // and arrives contiguously. Without the seed, count/FIFO predicates
        // (Opt-Track-CRP) park every post-join write behind pre-join tuples
        // the joiner can never receive.
        for peer in &expected {
            let ledger = self.hosts[peer.index()].proto().own_ledger();
            let (eff, _) = self.hosts[s.index()]
                .proto_mut()
                .note_peer_recovery(*peer, &ledger);
            debug_assert!(eff.is_empty(), "a fresh joiner has nothing parked");
        }
        // The joiner's stability row seeds at today's issued clocks:
        // pre-join writes were multicast to the old view and reach it (if
        // at all) only through the bootstrap snapshots, never as individual
        // applies.
        if let Some(stab) = self.net.stability.as_mut() {
            stab.add_member(s);
        }
        // Arm the joiner's first workload operation; it is held while the
        // bootstrap runs and replayed at completion.
        self.net.schedule_next(s);
        self.net.metrics.joins += 1;
        expected.is_empty()
    }

    /// Remove `s` from the view: re-home what only it replicated, let the
    /// survivors prune it, and re-aim fetches addressed to it.
    fn leave(&mut self, s: SiteId, crashed: bool) {
        let size_model = self.net.cfg.size_model;
        // The departure ledger survivors fast-forward past: the durable one
        // saved at the crash, or the live one drained at the epoch boundary
        // for a graceful leave.
        let ledger = if crashed || !self.net.is_up(s) {
            self.net
                .chaos
                .as_ref()
                .expect("churn requires chaos mode")
                .ledgers[s.index()]
            .clone()
            .expect("ledger saved at crash")
        } else {
            self.hosts[s.index()].proto().own_ledger()
        };
        // The checker must not demand deliveries at the departed site past
        // this point.
        if let Some(h) = self.net.history.as_mut() {
            h.seal_site(s);
        }
        // Re-home every variable whose replica set would empty, *before*
        // the member list shrinks: a graceful leaver donates its copy; a
        // crashed one cannot (degraded).
        let dynp = self.net.churn.as_ref().expect("churn").dynp.clone();
        let members_after = {
            let mut m = dynp.members();
            m.remove(s);
            m
        };
        for var in VarId::all(self.net.cfg.workload.q) {
            let raw = dynp.raw_replicas(var);
            if !raw.contains(s) || !raw.intersect(&members_after).is_empty() {
                continue;
            }
            let target = members_after
                .iter()
                .find(|m| self.net.is_up(*m))
                .or_else(|| members_after.iter().next())
                .expect("a view never empties");
            if !crashed {
                let state = self.hosts[s.index()]
                    .proto()
                    .export_sync(target)
                    .retain_vars(&[var]);
                let bytes = state.meta_size(&size_model);
                // Pure max-merge: installing into a live site only adds
                // knowledge, never rolls anything back.
                let receiver = &mut self.hosts[target.index()];
                receiver
                    .proto_mut()
                    .install_sync(&[(s, PeerAckInfo::default(), state)]);
                self.net.metrics.churn_transfer_bytes += bytes;
                self.net.checkpoint(target, receiver.proto(), false);
            } else {
                self.net.metrics.churn_transfers_degraded += 1;
            }
            dynp.install_override(var, DestSet::from_sites([target]));
        }
        dynp.install_leave(s);
        {
            let c = self.net.chaos.as_mut().expect("chaos");
            c.status[s.index()] = SiteStatus::Out;
            c.held[s.index()].clear();
            c.sync[s.index()] = None;
            // Kills survivors' retransmission timers toward the departed
            // site — there is no future incarnation to renumber their
            // backlog for.
            c.transport.forget(s);
        }
        self.hosts[s.index()].forget_fetch();
        // Survivors prune their causal metadata of the departed site —
        // journaled first, so a later WAL replay re-drives the same
        // pruning. Syncing sites are deliberately skipped: a joiner
        // mid-bootstrap waiting on the leaver times out into a degraded
        // transfer instead.
        for m in SiteId::all(self.net.n) {
            if m == s || !self.net.is_up(m) {
                continue;
            }
            self.net.journal(
                m,
                WalRecord::PeerDeparted {
                    peer: s,
                    ledger: ledger.clone(),
                },
            );
            let host = &mut self.hosts[m.index()];
            let (effects, _dropped) = host.proto_mut().note_peer_departed(s, &ledger);
            if host.apply_effects(effects, false, &mut self.net) {
                self.net.schedule_next(m);
            }
        }
        // Drop the leaver's column from the frontier minimum and settle
        // survivors past its final clock — its undelivered updates were
        // just fast-forwarded, not applied.
        if let Some(stab) = self.net.stability.as_mut() {
            stab.remove_member(s, ledger.own_clock);
        }
        self.retarget_blocked_fetches(s, None);
        self.net.metrics.leaves += 1;
    }

    /// Move `var`'s replica from `from` to `to`.
    fn migrate(&mut self, var: VarId, from: SiteId, to: SiteId) {
        let size_model = self.net.cfg.size_model;
        let dynp = self.net.churn.as_ref().expect("churn").dynp.clone();
        if dynp.base().is_full() {
            // Under full replication every member already holds `var`, and
            // the count-based delivery predicates (Full-Track's
            // expected-count, CRP's per-sender FIFO contiguity) assume full
            // fan-out: shrinking the destination set would starve them. The
            // migration is an epoch bump and nothing else.
            self.net.metrics.migrations += 1;
            return;
        }
        let raw = dynp.raw_replicas(var);
        if !raw.contains(to) {
            // Seed the new replica with a one-variable state transfer,
            // preferring the vacated replica as donor and failing over to
            // any live one.
            let donor = if !self.net.is_up(to) {
                None
            } else if raw.contains(from) && self.net.is_up(from) {
                Some(from)
            } else {
                raw.intersect(&dynp.members())
                    .iter()
                    .find(|d| *d != to && self.net.is_up(*d))
            };
            match donor {
                Some(d) => {
                    let state = self.hosts[d.index()]
                        .proto()
                        .export_sync(to)
                        .retain_vars(&[var]);
                    let bytes = state.meta_size(&size_model);
                    let receiver = &mut self.hosts[to.index()];
                    receiver
                        .proto_mut()
                        .install_sync(&[(d, PeerAckInfo::default(), state)]);
                    self.net.metrics.churn_transfer_bytes += bytes;
                    self.net.checkpoint(to, receiver.proto(), false);
                }
                None => self.net.metrics.churn_transfers_degraded += 1,
            }
        }
        let mut replicas = raw;
        let vacated = replicas.remove(from);
        replicas.insert(to);
        dynp.install_override(var, replicas);
        if vacated && self.net.is_up(from) {
            let host = &mut self.hosts[from.index()];
            host.proto_mut().drop_var(var);
            self.net.checkpoint(from, host.proto(), false);
            // A fetch already addressed to the vacated replica would find
            // the variable dropped: re-aim it.
            self.retarget_blocked_fetches(from, Some(var));
        }
        self.net.metrics.migrations += 1;
    }

    /// Fold the subsystems' counters into the run metrics.
    fn finish(self) -> SimResult {
        let Sim { hosts, net } = self;
        let mut metrics = net.metrics;
        if let Some(stores) = net.chaos.as_ref().and_then(|c| c.stores.as_ref()) {
            for st in stores {
                metrics.wal_appends += st.appends;
                metrics.wal_bytes += st.append_bytes;
                metrics.checkpoints += st.checkpoints;
                metrics.checkpoint_bytes += st.checkpoint_bytes;
                metrics.wal_truncated += st.truncated;
                metrics.wal_segments_sealed += st.segments_sealed;
                metrics.wal_deleted_bytes += st.deleted_bytes;
            }
        }
        if let Some(stab) = net.stability.as_ref() {
            metrics.gossip_rows += stab.gossip_rows;
            metrics.gossip_bytes += stab.gossip_bytes;
            metrics.buffered_overdue += stab.buffered_overdue;
            metrics.gc_log_entries += stab.gc_log_entries;
            metrics.gc_slots += stab.gc_slots;
            metrics.gc_stalled_ticks += stab.gc_stalled_ticks;
            metrics.backpressure_events += stab.backpressure_events;
            metrics.retained_meta_peak = metrics.retained_meta_peak.max(stab.retained_meta_peak);
            metrics.unstable_peak = metrics.unstable_peak.max(stab.unstable_peak);
        }
        SimResult {
            metrics,
            history: net.history,
            duration: net.heap.now(),
            final_pending: hosts.iter().map(|h| h.proto().pending_len()).sum(),
            final_local_meta: hosts
                .iter()
                .map(|h| h.proto().local_meta_size(&net.cfg.size_model))
                .collect(),
        }
    }
}

impl Net<'_> {
    /// Arm the timers and the first operation of every process in the
    /// initial view, validating the crash and durability plans on the way.
    fn arm_initial_events(&mut self) {
        let cfg = self.cfg;
        let n = self.n;
        if let Some(plan) = &cfg.stability {
            self.heap.push(
                SimTime::ZERO + plan.heartbeat_every,
                SimEvent::StabilityTick,
            );
        }
        // Seed the initial view: sites whose first churn event is a join
        // start outside the membership, and each plan event proposes at its
        // time.
        if let Some(ch) = &self.churn {
            let c = self.chaos.as_mut().expect("churn implies chaos mode");
            for (i, member) in ch.plan.initial_members(n).iter().enumerate() {
                if !member {
                    c.status[i] = SiteStatus::Out;
                }
            }
            for (idx, ev) in ch.plan.events.iter().enumerate() {
                self.heap.push(ev.at, SimEvent::ViewPropose { idx });
            }
        }
        // Windows of one site must not overlap; windows of different sites
        // may (a correlated failure), which WAL recovery survives and which
        // otherwise completes degraded.
        let mut sorted: Vec<&CrashWindow> = cfg.crashes.iter().collect();
        sorted.sort_by_key(|c| (c.site, c.start));
        for w in sorted.windows(2) {
            assert!(
                w[0].site != w[1].site || w[0].end <= w[1].start,
                "crash windows on s{} overlap: {:?} vs {:?}",
                w[0].site,
                w[0],
                w[1]
            );
        }
        for c in &cfg.crashes {
            assert!(c.start < c.end, "empty crash window: {c:?}");
            assert!(c.site.index() < n, "crash site out of range: {c:?}");
            self.heap.push(c.start, SimEvent::Crash { site: c.site });
            self.heap.push(c.end, SimEvent::Recover { site: c.site });
        }
        let d = &cfg.durability;
        if let Some(every) = d.checkpoint_every {
            assert!(d.wal, "checkpoint interval requires the WAL");
            assert!(
                every > SimDuration::ZERO,
                "checkpoint interval must be positive"
            );
            self.heap
                .push(SimTime::ZERO + every, SimEvent::CheckpointTick);
        }
        assert!(
            d.lose_media.is_empty() || d.wal,
            "media loss requires the WAL"
        );
        for s in &d.lose_media {
            assert!(s.index() < n, "lose-media site out of range: s{s}");
        }
        assert!(
            d.torn_tail.is_empty() || d.wal,
            "torn-tail injection requires the WAL"
        );
        for s in &d.torn_tail {
            assert!(s.index() < n, "torn-tail site out of range: s{s}");
        }
        // A joiner's application starts when its view change installs.
        for site in SiteId::all(n) {
            if self.status(site) == Some(SiteStatus::Out) {
                continue;
            }
            if let Some(op) = self.schedule.per_site[site.index()].first() {
                self.heap.push(op.at, SimEvent::OpReady { site });
            }
        }
    }

    /// `site`'s liveness under crash injection (`None` on the lossless
    /// path, where every site is always up).
    fn status(&self, site: SiteId) -> Option<SiteStatus> {
        self.chaos.as_ref().map(|c| c.status[site.index()])
    }

    /// Whether `site` is up.
    fn is_up(&self, site: SiteId) -> bool {
        self.status(site).is_none_or(|s| s == SiteStatus::Up)
    }

    /// Emit one trace event at the current instant.
    fn emit(&mut self, site: SiteId, kind: EventKind) {
        if self.tracer.enabled() {
            self.tracer
                .emit(TraceEvent::at(self.heap.now(), site, kind));
        }
    }

    /// Arm the next scheduled operation of `site`, honoring the schedule
    /// time (an op never fires before its planned instant, and a blocking
    /// fetch pushes it later).
    fn schedule_next(&mut self, site: SiteId) {
        let ops = &self.schedule.per_site[site.index()];
        if let Some(op) = ops.get(self.next_op[site.index()]) {
            let at = op.at.max(self.heap.now());
            self.heap.push(at, SimEvent::OpReady { site });
        }
    }

    /// Arm the deadline of `host`'s parked fetch, when the run has one.
    fn arm_fetch_deadline(&mut self, host: &SiteHost) {
        let (Some(_), Some(deadline), Some(f)) = (
            self.chaos.as_ref(),
            self.cfg.durability.fetch_deadline,
            host.fetch(),
        ) else {
            return;
        };
        let ev = SimEvent::FetchDeadline {
            site: host.site(),
            var: f.var,
            attempt: f.attempt,
        };
        self.heap.push(self.heap.now() + deadline, ev);
    }

    /// Checkpoint `site`'s durable store (a no-op without the WAL);
    /// `if_dirty` skips the deep state clone when nothing was journaled
    /// since the last image.
    fn checkpoint(&mut self, site: SiteId, proto: &dyn ProtocolSite, if_dirty: bool) {
        let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) else {
            return;
        };
        let store = &mut stores[site.index()];
        let bytes = if if_dirty {
            store.take_checkpoint_if_dirty(proto, &self.cfg.size_model)
        } else {
            Some(store.take_checkpoint(proto, &self.cfg.size_model))
        };
        if let Some(bytes) = bytes {
            self.emit(site, EventKind::Checkpoint { bytes });
        }
    }

    /// Open `site`'s recovery handshake for incarnation `inc` (the site is
    /// syncing until it completes): ask every peer still in the view for
    /// its state (`applied` = the WAL replay's
    /// high-water marks, for a delta answer) and arm the sync deadline.
    /// Returns `true` when no live peer is expected to answer.
    fn start_sync(
        &mut self,
        site: SiteId,
        inc: u32,
        ledger: &OwnLedger,
        applied: Option<Vec<u64>>,
        via_wal: bool,
    ) -> bool {
        let now = self.heap.now();
        let c = self.chaos.as_mut().expect("sync requires chaos mode");
        c.status[site.index()] = SiteStatus::Syncing;
        let expected: Vec<SiteId> = SiteId::all(self.n)
            .filter(|p| *p != site && c.status[p.index()] == SiteStatus::Up)
            .collect();
        let nothing_expected = expected.is_empty();
        c.sync[site.index()] = Some(SyncCollect {
            started: now,
            inc,
            expected,
            via_wal,
            sources: Vec::new(),
        });
        // Departed members never answer (and their channels were
        // forgotten): don't waste sync traffic on them.
        let peers: Vec<SiteId> = SiteId::all(self.n)
            .filter(|p| *p != site && c.status[p.index()] != SiteStatus::Out)
            .collect();
        for peer in peers {
            let req = Frame::SyncReq {
                inc,
                ledger: ledger.clone(),
                applied: applied.clone(),
            };
            self.metrics.sync_count += 1;
            self.metrics.sync_bytes += req.overhead(&self.cfg.size_model);
            self.emit(site, EventKind::SyncReq { to: peer });
            self.send_control(site, peer, req);
        }
        self.heap
            .push(now + SYNC_DEADLINE, SimEvent::SyncTimeout { site, inc });
        nothing_expected
    }

    /// Put a sync-handshake frame on the channel. Control frames bypass
    /// the reliable transport and its fault plan.
    fn send_control(&mut self, from: SiteId, to: SiteId, frame: Frame) {
        let now = self.heap.now();
        let at = self
            .channels
            .delivery_time(from, to, now, &mut self.lat_rng);
        self.heap.push(
            at,
            SimEvent::DeliverFrame {
                from,
                to,
                frame: Box::new(frame),
                measured: false,
                sent_at: now,
            },
        );
    }

    /// Interpret transport commands: put frames on the (lossy) wire, arm
    /// retransmission timers, and collect in-order handoffs for the caller
    /// to deliver to the receiving site.
    fn dispatch_cmds(&mut self, origin: SiteId, cmds: Vec<TransportCmd>) -> Vec<(Msg, bool)> {
        let now = self.heap.now();
        let mut handoffs = Vec::new();
        for cmd in cmds {
            match cmd {
                TransportCmd::Emit {
                    to,
                    frame,
                    measured,
                    retransmit,
                } => {
                    let overhead = frame.overhead(&self.cfg.size_model);
                    match &frame {
                        Frame::Ack { .. } => {
                            self.metrics.ack_count += 1;
                            self.metrics.ack_bytes += overhead;
                        }
                        Frame::Data { seq, .. } => {
                            self.metrics.envelope_bytes += overhead;
                            if retransmit {
                                self.metrics.retransmissions += 1;
                                self.metrics.per_site.site_mut(origin.index()).retransmits += 1;
                                self.emit(origin, EventKind::Retransmit { to, seq: *seq });
                            }
                        }
                        sync => unreachable!("transport never emits sync frames: {sync:?}"),
                    }
                    let c = self.chaos.as_mut().expect("frames require chaos mode");
                    if c.faults.should_drop(origin, to, now, &mut c.fault_rng) {
                        self.metrics.fault_drops += 1;
                        continue;
                    }
                    let copies = if c.faults.should_dup(origin, to, &mut c.fault_rng) {
                        self.metrics.fault_dups += 1;
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        let at = self
                            .channels
                            .delivery_time(origin, to, now, &mut self.lat_rng);
                        self.heap.push(
                            at,
                            SimEvent::DeliverFrame {
                                from: origin,
                                to,
                                frame: Box::new(frame.clone()),
                                measured,
                                sent_at: now,
                            },
                        );
                    }
                }
                TransportCmd::Arm {
                    to,
                    stream_gen,
                    seq,
                    attempt,
                    after,
                } => {
                    // `attempt == 1` is the initial RTO timer armed with
                    // every send; only re-arms after a retransmission are
                    // backoffs.
                    if attempt > 1 {
                        self.emit(
                            origin,
                            EventKind::Backoff {
                                to,
                                seq,
                                attempt,
                                after_ns: after.as_nanos(),
                            },
                        );
                    }
                    self.heap.push(
                        now + after,
                        SimEvent::RetransmitCheck {
                            from: origin,
                            to,
                            epoch: stream_gen,
                            seq,
                            attempt,
                        },
                    );
                }
                TransportCmd::Handoff { msg, measured } => handoffs.push((msg, measured)),
            }
        }
        handoffs
    }
}

impl Outbound for Net<'_> {
    fn now(&self) -> SimTime {
        self.heap.now()
    }

    /// The one place an app message goes onto the wire: straight onto its
    /// lossless channel, or into the reliable transport in chaos mode.
    fn send(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool) {
        let now = self.heap.now();
        match self.chaos.as_mut() {
            Some(c) => {
                let cmds = c.transport.send(from, to, msg, measured);
                self.dispatch_cmds(from, cmds);
            }
            None => {
                let at = self
                    .channels
                    .delivery_time(from, to, now, &mut self.lat_rng);
                self.heap.push(
                    at,
                    SimEvent::Deliver {
                        from,
                        to,
                        msg,
                        measured,
                        sent_at: now,
                    },
                );
            }
        }
    }

    fn arm_flush(&mut self, from: SiteId, to: SiteId, epoch: u64, at: SimTime) {
        self.heap.push(at, SimEvent::BatchFlush { from, to, epoch });
    }

    fn metrics(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }

    fn history(&mut self) -> Option<&mut History> {
        self.history.as_mut()
    }

    fn tracer(&mut self) -> &mut dyn Tracer {
        &mut *self.tracer
    }

    /// WAL fiction: the record is durable before the transition is
    /// externally visible.
    fn journal(&mut self, site: SiteId, rec: WalRecord) {
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            let bytes = stores[site.index()].append(rec, &self.cfg.size_model);
            self.emit(site, EventKind::WalAppend { bytes });
        }
    }

    /// A replayed site has already counted the transport's redelivered
    /// updates, and every delivery it does take is journaled before the
    /// protocol sees it. Every app message piggybacks the sender's delivery
    /// row; an arriving update also arms the stuck-buffer watchdog (its
    /// apply disarms it).
    fn admit(&mut self, site: SiteId, from: SiteId, msg: &Msg) -> bool {
        if let Some(stores) = self.chaos.as_mut().and_then(|c| c.stores.as_mut()) {
            let store = &mut stores[site.index()];
            if store.already_seen(msg) {
                self.metrics.dup_drops += 1;
                return false;
            }
            let rec = WalRecord::Recv {
                from,
                msg: msg.clone(),
            };
            let bytes = store.append(rec, &self.cfg.size_model);
            self.emit(site, EventKind::WalAppend { bytes });
        }
        if let Some(stab) = self.stability.as_mut() {
            stab.on_deliver(from, site);
            if let Msg::Sm(sm) = msg {
                stab.note_receipt(site, sm.value.writer, self.heap.now());
            }
        }
        true
    }

    /// Register the write with every site that must apply it — the SM
    /// fan-out plus the origin's own apply — *before* the effects run, so
    /// the own apply settles against an existing registration.
    fn wrote(&mut self, site: SiteId, wid: WriteId, effects: &[Effect]) {
        let Some(stab) = self.stability.as_mut() else {
            return;
        };
        let mut dests = DestSet::EMPTY;
        for e in effects {
            match e {
                Effect::Send {
                    to,
                    msg: Msg::Sm(_),
                } => dests.insert(*to),
                Effect::Applied { write, .. } if *write == wid => dests.insert(site),
                _ => {}
            }
        }
        stab.on_write(site, wid, dests);
    }

    /// After a crash a site re-applies redelivered updates it already
    /// recorded before losing state; the history must keep each apply
    /// once.
    fn applied(&mut self, site: SiteId, write: WriteId) -> bool {
        if let Some(stab) = self.stability.as_mut() {
            stab.applied(site, write);
        }
        self.chaos
            .as_mut()
            .is_none_or(|c| c.applied_seen.insert((site, write)))
    }
}
