//! One site of the live deployment, as a poll-driven state machine.
//!
//! A [`Node`] is a thin shell around the shared per-site layer,
//! [`causal_proto::SiteHost`] — the same host the simulator drives. The
//! host owns the protocol state machine, the per-destination lanes and
//! batch framing, unbatch-on-deliver, fetch parking, receipt timing and all
//! send accounting; the node adds only what is specific to a live run:
//!
//! * an [`OpDriver`] that decides *when the next operation happens* —
//!   either replaying a pre-generated workload schedule (so a simulator run
//!   with the same seed predicts this node's traffic message for message)
//!   or running the closed-loop clients of the `serve` load generator;
//! * the link to the fabric: frames leave through the run's one
//!   `MuxTransport` while the run-wide in-flight tally is kept, and lane
//!   windows become wall-clock timers.
//!
//! Nodes do not own a thread. The sharded scheduler in [`crate::runner`]
//! multiplexes K sites onto each worker, calling [`Node::on_wire`] for
//! every mailbox frame and [`Node::poll`] to issue due operations; a node
//! must therefore never block. The paper's synchronous RemoteFetch is the
//! host's parked fetch: the site issues no new operations while a fetch is
//! outstanding (one sequential process, exactly the paper's model) but
//! keeps serving incoming messages, which is what unblocks the fetch in
//! the first place.
//!
//! Measured-traffic attribution mirrors the simulator exactly: an
//! operation is measured iff its schedule index is past the warm-up
//! window, every frame carries its `measured` bit across the wire, and a
//! server answering a fetch attributes the RM to the *fetcher's* window —
//! that is what makes real-cluster counters comparable against simnet's
//! predictions run for run.

use crate::loadgen::ClosedLoop;
use crate::runner::Quiesce;
use crate::tcp::MuxTransport;
use causal_checker::History;
use causal_metrics::RunMetrics;
use causal_obs::{NoopTracer, Tracer};
use causal_proto::{Msg, Outbound, SiteHost};
use causal_types::{OpKind, ScheduledOp, SimTime, SiteId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What travels between sites.
pub enum Wire {
    /// A protocol message from a peer.
    Msg {
        /// The sending site.
        from: SiteId,
        /// The payload.
        msg: Msg,
        /// Warm-up attribution of the frame (batch frames additionally
        /// carry a per-update bit inside [`causal_proto::BatchedSm`]).
        measured: bool,
    },
    /// Coordinator broadcast: drain and exit.
    Stop,
}

/// What a site hands back to the coordinator when it stops.
pub struct NodeOutcome {
    /// The site's recorded execution fragment (own ops + own applies).
    pub history: History,
    /// Messages this site *sent*, with meta-data byte totals.
    pub metrics: RunMetrics,
    /// Updates still parked at shutdown (must be 0).
    pub final_pending: usize,
}

/// What drives a node's operation stream.
pub enum OpDriver {
    /// Replay a pre-generated schedule at a wall-clock scale — the
    /// simulator's workload, so equal seeds produce identical operation
    /// sequences on both instruments.
    Replay {
        /// The site's pre-generated operations, sorted by issue time.
        schedule: Vec<ScheduledOp>,
        /// Operations at indices `< warmup` are warm-up (unmeasured).
        warmup: usize,
        /// Virtual-to-wall-clock scale (e.g. 0.01 replays a 2 s gap in
        /// 20 ms).
        time_scale: f64,
        /// Next schedule index to issue.
        next: usize,
    },
    /// Closed-loop load-generator clients (see [`crate::loadgen`]); every
    /// operation is measured.
    Closed(ClosedLoop),
}

impl OpDriver {
    /// A replay driver starting at the schedule's beginning.
    pub fn replay(schedule: Vec<ScheduledOp>, warmup: usize, time_scale: f64) -> Self {
        OpDriver::Replay {
            schedule,
            warmup,
            time_scale,
            next: 0,
        }
    }

    /// When the next operation is due, as an offset from the run start;
    /// `None` once the driver is exhausted.
    fn next_due(&self) -> Option<Duration> {
        match self {
            OpDriver::Replay {
                schedule,
                time_scale,
                next,
                ..
            } => schedule.get(*next).map(|op| {
                let virt = op.at.as_nanos() as f64 * time_scale;
                Duration::from_nanos(virt as u64)
            }),
            OpDriver::Closed(loop_) => loop_.next_due(),
        }
    }

    /// Take the due operation. Returns the op, its measured attribution,
    /// and — for closed-loop drivers — the issuing client's index.
    fn pop(&mut self) -> (OpKind, bool, Option<usize>) {
        match self {
            OpDriver::Replay {
                schedule,
                warmup,
                next,
                ..
            } => {
                let op = schedule[*next];
                let measured = *next >= *warmup;
                *next += 1;
                (op.kind, measured, None)
            }
            OpDriver::Closed(loop_) => {
                let (kind, client) = loop_.pop();
                (kind, true, Some(client))
            }
        }
    }

    /// An operation issued by `client` completed after `latency_ns`;
    /// schedule the client's next operation past its think time.
    fn completed(&mut self, client: usize, now_off: Duration, latency_ns: f64) {
        if let OpDriver::Closed(loop_) = self {
            loop_.completed(client, now_off, latency_ns);
        }
    }
}

/// What every node of one run shares: the transport, the quiescence
/// tally, and the run's zero instant (schedule offsets, client due times
/// and every host timestamp are relative to it).
pub(crate) struct RunShared {
    pub(crate) transport: Arc<MuxTransport>,
    pub(crate) quiesce: Arc<Quiesce>,
    pub(crate) start: Instant,
}

/// The runtime side of a node's [`Outbound`]: frames leave through the
/// transport (keeping the in-flight tally), lane windows become wall-clock
/// timers, and the node's own metrics and history fragment collect what
/// its host records. The runtime does not trace.
struct Link {
    transport: Arc<MuxTransport>,
    quiesce: Arc<Quiesce>,
    start: Instant,
    /// Armed lane windows: `(due, destination, epoch)`. A timer that fires
    /// after its lane already flushed is ignored by the host.
    timers: Vec<(SimTime, SiteId, u64)>,
    history: History,
    metrics: RunMetrics,
    tracer: NoopTracer,
}

impl Link {
    /// The wall-clock instant of a host timestamp.
    fn instant(&self, t: SimTime) -> Instant {
        self.start + Duration::from_nanos(t.as_nanos())
    }

    /// The earliest armed lane window.
    fn next_timer(&self) -> Option<Instant> {
        self.timers
            .iter()
            .map(|(at, _, _)| *at)
            .min()
            .map(|at| self.instant(at))
    }
}

impl Outbound for Link {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Ship `msg`, keeping the global in-flight tally consistent even when
    /// the peer is already gone.
    fn send(&mut self, from: SiteId, to: SiteId, msg: Msg, measured: bool) {
        self.quiesce.frame_sent();
        if !self.transport.send(from, to, &msg, measured) {
            // The frame never entered the network; the transport counted
            // the connection error.
            self.quiesce.frames_done(1);
        }
    }

    fn arm_flush(&mut self, _from: SiteId, to: SiteId, epoch: u64, at: SimTime) {
        self.timers.push((at, to, epoch));
    }

    fn metrics(&mut self) -> &mut RunMetrics {
        &mut self.metrics
    }

    fn history(&mut self) -> Option<&mut History> {
        Some(&mut self.history)
    }

    fn tracer(&mut self) -> &mut dyn Tracer {
        &mut self.tracer
    }
}

/// One site of the live deployment: its [`SiteHost`], the driver that
/// decides when the next operation is due, and the link to the fabric.
/// Owned by a scheduler worker and driven through [`Node::poll`] /
/// [`Node::on_wire`].
pub struct Node {
    host: SiteHost,
    driver: OpDriver,
    link: Link,
    /// The issuing client and issue instant of the read parked in a
    /// remote fetch, reported to the driver when the fetch completes.
    parked_op: Option<(Option<usize>, Instant)>,
    done_fired: bool,
}

impl Node {
    /// A fresh node for `host`'s site in a run of `n` sites.
    pub(crate) fn new(host: SiteHost, driver: OpDriver, n: usize, shared: &RunShared) -> Self {
        Node {
            link: Link {
                transport: shared.transport.clone(),
                quiesce: shared.quiesce.clone(),
                start: shared.start,
                timers: Vec::new(),
                history: History::new(n),
                metrics: RunMetrics::new(),
                tracer: NoopTracer,
            },
            host,
            driver,
            parked_op: None,
            done_fired: false,
        }
    }

    /// Record the mailbox backlog the scheduler found when it picked this
    /// site up.
    pub(crate) fn note_mailbox_depth(&mut self, depth: usize) {
        let m = &mut self.link.metrics;
        m.mailbox_depth_peak = m.mailbox_depth_peak.max(depth as u64);
    }

    /// Fire due lane windows and issue every due operation. Returns
    /// whether any work was done and the next instant this node needs a
    /// timed wake-up for (`None` = it is purely message-driven now).
    pub(crate) fn poll(&mut self) -> (bool, Option<Instant>) {
        let mut progressed = self.fire_due_timers();
        loop {
            if self.host.fetch().is_some() {
                // Parked in the paper's synchronous RemoteFetch: the site
                // is one sequential process, so no new operations until
                // the RM lands — but lane timers stay armed.
                return (progressed, self.link.next_timer());
            }
            match self.driver.next_due() {
                Some(off) => {
                    let due = self.link.start + off;
                    if due <= Instant::now() {
                        self.issue_next();
                        progressed = true;
                    } else {
                        let wake = self.link.next_timer().map_or(due, |t| t.min(due));
                        return (progressed, Some(wake));
                    }
                }
                None => {
                    if !self.done_fired {
                        // Driver exhausted (and no fetch outstanding).
                        // Flush parked lanes *before* reporting
                        // completion: every remaining update must be on
                        // the wire (and in the in-flight tally) by the
                        // time the coordinator can observe this site as
                        // finished — cascades never produce new SMs, so
                        // lanes stay empty from here on.
                        self.host.flush_all(&mut self.link);
                        self.link.timers.clear();
                        self.done_fired = true;
                        progressed = true;
                        self.link.quiesce.site_finished();
                    }
                    return (progressed, self.link.next_timer());
                }
            }
        }
    }

    /// Feed one mailbox frame. Returns `false` on `Stop` — the node is
    /// done and must be collected with [`Node::finish`].
    pub(crate) fn on_wire(&mut self, wire: Wire) -> bool {
        match wire {
            Wire::Msg {
                from,
                msg,
                measured,
            } => {
                // Cascade sends are counted inside the delivery, before
                // this frame is released, so the coordinator cannot
                // observe a spurious in-flight zero.
                if self.host.deliver(from, msg, measured, &mut self.link) {
                    let (client, t0) = self.parked_op.take().expect("a parked read completed");
                    self.op_completed(client, t0);
                }
                self.link.quiesce.frames_done(1);
                true
            }
            Wire::Stop => {
                if self.host.fetch().is_some() {
                    // A racing shutdown degrades this one read instead of
                    // taking the whole run down.
                    self.host.abandon_fetch(&mut self.link);
                }
                false
            }
        }
    }

    /// Surrender the node's recorded outcome.
    pub(crate) fn finish(self) -> NodeOutcome {
        NodeOutcome {
            history: self.link.history,
            metrics: self.link.metrics,
            final_pending: self.host.proto().pending_len(),
        }
    }

    /// Issue the driver's due operation. A remote read parks the node in
    /// its host's fetch instead of blocking the worker.
    fn issue_next(&mut self) {
        let (kind, measured, client) = self.driver.pop();
        let t0 = Instant::now();
        if self.host.issue(kind, measured, &mut self.link) {
            self.parked_op = Some((client, t0));
        } else {
            self.op_completed(client, t0);
        }
    }

    /// Report a completed operation back to its closed-loop client (replay
    /// drivers ignore this).
    fn op_completed(&mut self, client: Option<usize>, t0: Instant) {
        if let Some(c) = client {
            self.driver
                .completed(c, self.link.start.elapsed(), t0.elapsed().as_nanos() as f64);
        }
    }

    /// Flush every lane whose window has expired. Returns whether anything
    /// fired.
    fn fire_due_timers(&mut self) -> bool {
        if self.link.timers.is_empty() {
            return false;
        }
        let now = self.link.now();
        let mut fired = false;
        while let Some(i) = self.link.timers.iter().position(|(at, _, _)| *at <= now) {
            let (_, to, epoch) = self.link.timers.swap_remove(i);
            fired |= self.host.on_flush_timer(to, epoch, &mut self.link);
        }
        fired
    }
}
