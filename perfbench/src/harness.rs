//! The replay harness: per-layer attribution measured from outside the
//! program.
//!
//! The harness drives `build_site` protocol sites synchronously. It issues
//! one operation, then delivers every message that operation caused,
//! in global FIFO order, before it issues the next one. Every
//! `Effect::Send` crosses the real codec (`wire::encode_routed_with` then
//! `wire::decode_routed`) before it reaches `on_message`, as it does on the
//! TCP fabric. With timing on, each call into a layer is timed and, for
//! one operation in [`SPAN_EVERY`], recorded as a span whose parent is the
//! operation's root span. With timing off no clock is read at all, so the
//! difference between the two wall times is the cost of tracing.
//!
//! The live runtime interleaves deliveries differently (other operations
//! run while messages are in flight), so protocol state such as Opt-Track
//! log lengths can differ from the live run's: the per-operation costs
//! measured here are an estimate of the live path's, not a trace of it.

use causal_memory::Placement;
use causal_metrics::{MessageStats, OpLatency};
use causal_proto::{
    build_site, wire, Effect, ProtocolConfig, ProtocolKind, ProtocolSite, ReadResult, Replication,
};
use causal_runtime::loadgen::ClosedLoop;
use causal_runtime::LoadProfile;
use causal_simnet::{LatencyModel, SimConfig};
use causal_types::{MetaSized, MsgKind, OpKind, SimTime, SiteId, SizeModel, VarId};
use causal_workload::Schedule;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One operation of a replay stream: the issuing site and the operation.
pub type StreamOp = (SiteId, OpKind);

/// Spans are recorded for one operation in this many (every call is still
/// timed), which keeps a paper-scale replay's span log in memory.
pub const SPAN_EVERY: u64 = 64;

const KIND_NAMES: [&str; 3] = ["sm", "fm", "rm"];
const ENCODE_SPANS: [&str; 3] = ["wire.encode.sm", "wire.encode.fm", "wire.encode.rm"];
const DECODE_SPANS: [&str; 3] = ["wire.decode.sm", "wire.decode.fm", "wire.decode.rm"];
const ON_SPANS: [&str; 3] = ["proto.on_sm", "proto.on_fm", "proto.on_rm"];

/// Short name of a message kind, as used in metric names.
pub fn kind_name(k: MsgKind) -> &'static str {
    KIND_NAMES[k.index()]
}

/// Work counts and busy time per layer, accumulated over a replay. Busy
/// times stay zero when timing is off.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    pub ops: u64,
    pub writes: u64,
    pub reads: u64,
    pub remote_reads: u64,
    pub write_ns: u64,
    pub read_ns: u64,
    /// `on_message` time per message kind (indexed by `MsgKind::index`).
    pub on_ns: [u64; 3],
    pub encode_ns: [u64; 3],
    pub decode_ns: [u64; 3],
    /// Encoded routed-frame bytes per kind.
    pub frame_bytes: [u64; 3],
    /// Message counts and metadata bytes per kind, under the size model.
    pub msgs: MessageStats,
}

impl LayerStats {
    /// Time spent inside protocol calls (`write`, `read`, `on_message`).
    pub fn proto_ns(&self) -> u64 {
        self.write_ns + self.read_ns + self.on_ns.iter().sum::<u64>()
    }

    /// Time spent in the codec (routed encode plus decode).
    pub fn wire_ns(&self) -> u64 {
        self.encode_ns.iter().sum::<u64>() + self.decode_ns.iter().sum::<u64>()
    }

    pub fn merge(&mut self, o: &LayerStats) {
        self.ops += o.ops;
        self.writes += o.writes;
        self.reads += o.reads;
        self.remote_reads += o.remote_reads;
        self.write_ns += o.write_ns;
        self.read_ns += o.read_ns;
        for k in 0..3 {
            self.on_ns[k] += o.on_ns[k];
            self.encode_ns[k] += o.encode_ns[k];
            self.decode_ns[k] += o.decode_ns[k];
            self.frame_bytes[k] += o.frame_bytes[k];
        }
        self.msgs.merge(&o.msgs);
    }
}

/// One timed call. `start_ns`/`end_ns` are offsets from the harness's
/// creation; `parent` is the operation's root span (`None` for the root).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
}

/// Sites of one protocol, driven synchronously with FIFO delivery.
pub struct Harness {
    sites: Vec<Box<dyn ProtocolSite>>,
    size_model: SizeModel,
    timed: bool,
    epoch: Instant,
    /// Encoded frames in flight: `(start, len)` into `arena`.
    queue: VecDeque<(usize, usize)>,
    arena: Vec<u8>,
    /// The outstanding remote read: `(site, var, completed)`.
    fetch: Option<(SiteId, VarId, bool)>,
    /// Root span of the operation being replayed, when it is sampled.
    root: Option<u64>,
    op_seq: u64,
    span_seq: u64,
    pub stats: LayerStats,
    pub spans: Vec<Span>,
}

/// The placement the simulator's paper settings and `serve` give `kind`:
/// the paper's partial placement (`p = 0.3n`) for the partial protocols,
/// full replication for the others.
pub fn placement_for(kind: ProtocolKind, n: usize) -> Arc<Placement> {
    let p = if kind.supports_partial() {
        Placement::paper_partial(n)
    } else {
        Placement::full(n)
    };
    Arc::new(p.expect("n is a valid site count"))
}

impl Harness {
    pub fn new(kind: ProtocolKind, n: usize, size_model: SizeModel, timed: bool) -> Self {
        let repl: Arc<dyn Replication> = placement_for(kind, n);
        Harness {
            sites: (0..n)
                .map(|i| {
                    build_site(
                        kind,
                        SiteId::from(i),
                        repl.clone(),
                        ProtocolConfig::default(),
                    )
                })
                .collect(),
            size_model,
            timed,
            epoch: Instant::now(),
            queue: VecDeque::new(),
            arena: Vec::new(),
            fetch: None,
            root: None,
            op_seq: 0,
            span_seq: 0,
            stats: LayerStats::default(),
            spans: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.timed {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    #[inline]
    fn span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(root) = self.root {
            self.span_seq += 1;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                id: self.span_seq,
                parent: Some(root),
                op: self.op_seq,
            });
        }
    }

    /// Replay `ops` in order, each to quiescence.
    pub fn replay(&mut self, ops: &[StreamOp]) -> Result<(), String> {
        ops.iter().try_for_each(|(site, kind)| self.op(*site, kind))
    }

    /// Issue one operation at `site` and deliver everything it causes.
    fn op(&mut self, site: SiteId, kind: &OpKind) -> Result<(), String> {
        self.op_seq += 1;
        self.stats.ops += 1;
        let t_op = self.now();
        self.root = (self.timed && self.op_seq.is_multiple_of(SPAN_EVERY)).then(|| {
            self.span_seq += 1;
            self.span_seq
        });
        let root_name = match *kind {
            OpKind::Write { var, data } => {
                let t0 = self.now();
                let (_, effects) = self.sites[site.index()].write(var, data, 0);
                let t1 = self.now();
                self.stats.writes += 1;
                self.stats.write_ns += t1 - t0;
                self.span("proto.write", t0, t1);
                self.route(site, effects)?;
                "op.write"
            }
            OpKind::Read { var } => {
                let t0 = self.now();
                let res = self.sites[site.index()].read(var);
                let t1 = self.now();
                self.stats.reads += 1;
                self.stats.read_ns += t1 - t0;
                self.span("proto.read", t0, t1);
                if let ReadResult::Fetch { target, msg } = res {
                    self.stats.remote_reads += 1;
                    self.fetch = Some((site, var, false));
                    self.send(site, target, &msg);
                }
                "op.read"
            }
        };
        self.drain()?;
        if let Some((s, var, done)) = self.fetch.take() {
            if !done {
                return Err(format!(
                    "harness: remote read of {var:?} at {s:?} never returned"
                ));
            }
        }
        if let Some(id) = self.root.take() {
            let end = self.now();
            self.spans.push(Span {
                name: root_name,
                start_ns: t_op,
                end_ns: end,
                id,
                parent: None,
                op: self.op_seq,
            });
        }
        Ok(())
    }

    fn send(&mut self, from: SiteId, to: SiteId, msg: &causal_proto::Msg) {
        let k = msg.kind();
        self.stats.msgs.record(k, msg.meta_size(&self.size_model));
        let start = self.arena.len();
        let t0 = self.now();
        let arena = &mut self.arena;
        wire::encode_routed_with(from, to, msg, |b| arena.extend_from_slice(b));
        let t1 = self.now();
        let len = self.arena.len() - start;
        self.stats.encode_ns[k.index()] += t1 - t0;
        self.stats.frame_bytes[k.index()] += len as u64;
        self.span(ENCODE_SPANS[k.index()], t0, t1);
        self.queue.push_back((start, len));
    }

    fn drain(&mut self) -> Result<(), String> {
        while let Some((start, len)) = self.queue.pop_front() {
            let t0 = self.now();
            let routed = wire::decode_routed(&self.arena[start..start + len])
                .map_err(|e| format!("harness: frame failed to decode: {e}"))?;
            let t1 = self.now();
            let k = routed.msg.kind().index();
            let effects = self.sites[routed.dst.index()].on_message(routed.src, routed.msg);
            let t2 = self.now();
            self.stats.decode_ns[k] += t1 - t0;
            self.stats.on_ns[k] += t2 - t1;
            self.span(DECODE_SPANS[k], t0, t1);
            self.span(ON_SPANS[k], t1, t2);
            self.route(routed.dst, effects)?;
        }
        self.arena.clear();
        Ok(())
    }

    fn route(&mut self, site: SiteId, effects: Vec<Effect>) -> Result<(), String> {
        for e in effects {
            match e {
                Effect::Send { to, msg } => self.send(site, to, &msg),
                Effect::Applied { .. } => {}
                Effect::FetchDone { var, .. } => match &mut self.fetch {
                    Some((s, v, done)) if *s == site && *v == var && !*done => *done = true,
                    _ => {
                        return Err(format!(
                            "harness: unexpected fetch return of {var:?} at {site:?}"
                        ))
                    }
                },
            }
        }
        Ok(())
    }

    /// Updates still parked in pending buffers (must be 0 after a replay).
    pub fn pending(&self) -> usize {
        self.sites.iter().map(|s| s.pending_len()).sum()
    }
}

/// A schedule's operations in issue order: by planned time, ties by site.
/// Fetches complete synchronously here, so no process is ever blocked
/// past its next planned operation.
pub fn schedule_stream(s: &Schedule) -> Vec<StreamOp> {
    let mut ops: Vec<_> = s
        .per_site
        .iter()
        .enumerate()
        .flat_map(|(i, ops)| ops.iter().map(move |op| (op.at, i, op.kind)))
        .collect();
    ops.sort_by_key(|(at, i, _)| (*at, *i));
    ops.into_iter()
        .map(|(_, i, k)| (SiteId::from(i), k))
        .collect()
}

/// The closed-loop clients' operations, drawn through the public
/// `ClosedLoop::pop`/`completed` calls with synthetic timestamps: every
/// operation completes the instant it is issued. Each client's sequence
/// depends only on its RNG, so it is the sequence the live run draws; only
/// the interleaving across clients differs.
pub fn closed_loop_stream(profile: &LoadProfile, n: usize) -> Vec<StreamOp> {
    let sink = Arc::new(Mutex::new(OpLatency::new()));
    let mut loops: Vec<ClosedLoop> = (0..n)
        .map(|i| ClosedLoop::new(profile, SiteId::from(i), sink.clone()))
        .collect();
    let mut out = Vec::new();
    while let Some((due, i)) = loops
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.next_due().map(|d| (d, i)))
        .min()
    {
        let (kind, client) = loops[i].pop();
        loops[i].completed(client, due, 0.0);
        out.push((SiteId::from(i), kind));
    }
    out
}

/// Append `spans` as JSON lines tagged with `run`.
pub fn write_spans(out: &mut impl Write, run: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"run\": \"{run}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"id\": {}, \"parent\": {parent}, \"op\": {}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.op
        )?;
    }
    Ok(())
}

/// Harness fidelity: on a small schedule, the harness's message counts
/// and metadata bytes per kind equal `simnet::run`'s, for every protocol,
/// which ties the `proto`/`wire` attribution to the protocols' real call
/// pattern. The schedule is shifted so that no two sites issue at the same
/// instant, and the simulator's latency (1 µs) is far below the shift
/// (10 µs per site), so the simulator too delivers each operation's
/// messages before the next operation, in the harness's order.
pub fn fidelity(seed: u64) -> Result<(), String> {
    let n = 8;
    for kind in ProtocolKind::ALL {
        for w in [0.2, 0.8] {
            let base = if kind.supports_partial() {
                SimConfig::paper_partial(kind, n, w, seed)
            } else {
                SimConfig::paper_full(kind, n, w, seed)
            };
            let mut cfg = base.small();
            let mut schedule = causal_workload::generate(&cfg.workload);
            for (i, ops) in schedule.per_site.iter_mut().enumerate() {
                for op in ops {
                    op.at = SimTime(op.at.0 + 10_000 * i as u64);
                }
            }
            cfg.latency = LatencyModel::Constant { micros: 1 };
            cfg.schedule_override = Some(schedule.clone());
            let sim = causal_simnet::run(&cfg);

            let mut h = Harness::new(kind, n, cfg.size_model, false);
            h.replay(&schedule_stream(&schedule))?;
            let tag = format!("harness fidelity, {kind} w={w}");
            if h.pending() != 0 || sim.final_pending != 0 {
                return Err(format!("{tag}: updates left parked"));
            }
            for k in [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm] {
                let (hc, sc) = (h.stats.msgs.count(k), sim.metrics.all.count(k));
                let (hb, sb) = (h.stats.msgs.bytes(k), sim.metrics.all.bytes(k));
                if hc != sc || hb != sb {
                    return Err(format!(
                        "{tag}: {k:?} harness {hc} msgs / {hb} B, simnet {sc} msgs / {sb} B"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_matches_simnet_counts_and_bytes() {
        for seed in [11, 12] {
            fidelity(seed).unwrap();
        }
    }

    #[test]
    fn fidelity_exercises_every_message_kind() {
        let schedule =
            causal_workload::generate(&causal_workload::WorkloadParams::small(8, 0.5, 11));
        let mut h = Harness::new(ProtocolKind::OptTrack, 8, SizeModel::java_like(), true);
        h.replay(&schedule_stream(&schedule)).unwrap();
        for k in [MsgKind::Sm, MsgKind::Fm, MsgKind::Rm] {
            assert!(h.stats.msgs.count(k) > 0, "{k:?} never sent");
        }
        assert_eq!(h.stats.msgs.count(MsgKind::Fm), h.stats.remote_reads);
        assert!(!h.spans.is_empty() && h.stats.proto_ns() > 0);
    }

    #[test]
    fn closed_loop_stream_is_deterministic_and_budgeted() {
        let profile = LoadProfile {
            clients_per_site: 2,
            ops_per_client: 5,
            think: std::time::Duration::from_millis(3),
            w_rate: 0.5,
            q: 100,
            seed: 3,
            duration: None,
        };
        let a = closed_loop_stream(&profile, 4);
        assert_eq!(a.len(), 4 * 2 * 5);
        assert_eq!(a, closed_loop_stream(&profile, 4));
    }
}
