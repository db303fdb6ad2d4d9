//! `sim-paper`: the paper's n = 40 column in the discrete-event simulator.
//!
//! Twelve cells: Full-Track and Opt-Track under the paper's partial
//! placement (`p = 0.3n`), Opt-Track-CRP and optP under full replication,
//! each at w ∈ {0.2, 0.5, 0.8}, 600 events per process. The three
//! schedules are generated outside the timed region and handed to
//! `simnet::run` through `schedule_override`. This workload never touches
//! the live runtime, TCP, the load generator or the wire codec, so it is
//! the no-change control for every live-path optimisation.

use crate::harness::{self, Harness, LayerStats};
use crate::sys::{stolen, Usage};
use crate::{least_disturbed, median, Outcome};
use causal_checker::check;
use causal_metrics::MessageStats;
use causal_proto::ProtocolKind;
use causal_simnet::SimConfig;
use causal_types::{MsgKind, SizeModel};
use causal_workload::{generate, Schedule, WorkloadParams};
use std::io::Write;
use std::time::{Duration, Instant};

pub const N: usize = 40;
pub const WRITE_RATES: [f64; 3] = [0.2, 0.5, 0.8];
const SETUP_WARMUP: usize = 3;
const MIN_SWEEPS: usize = 3;

/// Paper Table III: optP's SM carries `209 + 10n` metadata bytes under
/// the Java-like size model.
const OPTP_SM_BYTES: u64 = 209 + 10 * N as u64;

fn slug(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::FullTrack => "full-track",
        ProtocolKind::OptTrack => "opt-track",
        ProtocolKind::OptTrackCrp => "opt-track-crp",
        ProtocolKind::OptP => "optp",
        ProtocolKind::HbTrack => "hb-track",
    }
}

struct Cell {
    kind: ProtocolKind,
    w: usize,
    cfg: SimConfig,
}

fn cells(seed: u64, schedules: &[Schedule]) -> Vec<Cell> {
    let mut out = Vec::new();
    for (w, rate) in WRITE_RATES.iter().enumerate() {
        for kind in ProtocolKind::ALL {
            let mut cfg = if kind.supports_partial() {
                SimConfig::paper_partial(kind, N, *rate, seed)
            } else {
                SimConfig::paper_full(kind, N, *rate, seed)
            };
            cfg.schedule_override = Some(schedules[w].clone());
            out.push(Cell { kind, w, cfg });
        }
    }
    out
}

/// Generate the three schedules, timed, in seconds.
fn generate_all(seed: u64) -> (f64, Vec<Schedule>) {
    let t = Instant::now();
    let schedules = WRITE_RATES
        .iter()
        .map(|w| generate(&WorkloadParams::paper(N, *w, seed)))
        .collect();
    (t.elapsed().as_secs_f64(), schedules)
}

/// Generate the three schedules for the sweeps. The first
/// `SETUP_WARMUP` generations grow the heap and are not timed; the timed
/// ones are spread over the whole run (see [`sweep`]), so the set-up time
/// is a median over the same machine conditions as the sweeps.
fn setup(seed: u64) -> Vec<Schedule> {
    for _ in 0..SETUP_WARMUP {
        generate_all(seed);
    }
    generate_all(seed).1
}

/// One timed `simnet::run` call, in seconds.
#[derive(Clone, Copy)]
struct Sample {
    wall: f64,
    cpu: f64,
    /// CPU time other tenants took from the machine meanwhile.
    stolen: f64,
}

/// Timed repetitions of the twelve-cell sweep.
struct Sweeps {
    /// Per cell, one sample per sweep.
    cells: Vec<Vec<Sample>>,
    /// Summed wall seconds per sweep.
    total_s: Vec<f64>,
    /// Per-cell message statistics of the first sweep.
    stats: Vec<MessageStats>,
    /// Wall seconds of each timed schedule generation, one after each
    /// cell's `simnet::run`.
    setup_s: Vec<f64>,
    ops_per_sweep: u64,
    degraded: u64,
}

impl Sweeps {
    /// Each cell's median wall seconds over its least-disturbed repetitions.
    fn cell_wall_s(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|v| {
                let kept = least_disturbed(v, |x| x.stolen);
                median(&kept.into_iter().map(|x| x.wall).collect::<Vec<_>>())
            })
            .collect()
    }

    /// Process CPU time per simulated operation over every timed call.
    /// Steal barely touches this one busy thread, but other tenants still
    /// move its speed from call to call (one cell's CPU time varies by up to
    /// a quarter within a run), so every call counts.
    fn cpu_us_per_op(&self) -> f64 {
        let cpu: f64 = self.cells.iter().flatten().map(|x| x.cpu).sum();
        cpu * 1e6 / (self.total_s.len() as u64 * self.ops_per_sweep) as f64
    }
}

fn sweep(cells: &[Cell], seed: u64, budget: Duration, min: usize) -> Result<Sweeps, String> {
    let mut s = Sweeps {
        cells: vec![Vec::new(); cells.len()],
        total_s: Vec::new(),
        stats: Vec::new(),
        setup_s: Vec::new(),
        ops_per_sweep: cells
            .iter()
            .map(|c| {
                c.cfg
                    .schedule_override
                    .as_ref()
                    .map_or(0, |s| s.total_ops() as u64)
            })
            .sum(),
        degraded: 0,
    };
    let start = Instant::now();
    while s.total_s.len() < min || start.elapsed() < budget {
        let mut total = 0.0;
        for (i, c) in cells.iter().enumerate() {
            let u0 = Usage::now();
            let t = Instant::now();
            let (r, stolen) = stolen(|| causal_simnet::run(&c.cfg));
            let wall = t.elapsed().as_secs_f64();
            let cpu = Usage::now().since(&u0).cpu().as_secs_f64();
            total += wall;
            s.cells[i].push(Sample { wall, cpu, stolen });
            let tag = format!("{} w={}", c.kind, WRITE_RATES[c.w]);
            if r.final_pending != 0 {
                return Err(format!(
                    "{tag}: {} updates parked at quiescence",
                    r.final_pending
                ));
            }
            match s.stats.get(i) {
                None => s.stats.push(r.metrics.all),
                Some(first) if *first != r.metrics.all => {
                    return Err(format!(
                        "{tag}: message counts differ across repetitions of one seed"
                    ))
                }
                Some(_) => {}
            }
            if c.kind == ProtocolKind::OptP {
                let sms = r.metrics.all.count(MsgKind::Sm);
                if sms == 0 || r.metrics.all.bytes(MsgKind::Sm) != sms * OPTP_SM_BYTES {
                    return Err(format!(
                        "{tag}: optP SM metadata is not 209 + 10n = {OPTP_SM_BYTES} bytes"
                    ));
                }
            }
            s.degraded += r.metrics.degraded_reads;
            // One timed set-up per cell, after the run's memory is freed.
            drop(r);
            s.setup_s.push(generate_all(seed).0);
        }
        s.total_s.push(total);
    }
    Ok(s)
}

/// Untimed correctness step: each protocol re-runs one of its cells with
/// history recording, verified by the causal checker. The write rate
/// rotates with the seed and differs between protocols, so one run covers
/// all three rates and a few seeds cover every cell. Returns the
/// operations checked and the checker's wall time.
fn check_histories(cells: &[Cell], seed: u64) -> Result<(u64, Duration), String> {
    let mut ops = 0;
    let mut busy = Duration::ZERO;
    let chosen = ProtocolKind::ALL.iter().enumerate().map(|(p, kind)| {
        let w = (seed as usize % WRITE_RATES.len() + p) % WRITE_RATES.len();
        cells
            .iter()
            .find(|c| c.kind == *kind && c.w == w)
            .expect("every cell exists")
    });
    for c in chosen {
        let r = causal_simnet::run(&c.cfg.clone().with_history());
        let history = r.history.ok_or("simulator returned no history")?;
        let t = Instant::now();
        let v = check(&history);
        busy += t.elapsed();
        if !v.protocol_clean() || r.final_pending != 0 {
            return Err(format!(
                "{} w={}: checker violations {v:?}, {} parked",
                c.kind, WRITE_RATES[c.w], r.final_pending
            ));
        }
        ops += history.ops().iter().map(|o| o.len() as u64).sum::<u64>();
    }
    Ok((ops, busy))
}

pub fn end_to_end(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let schedules = setup(seed);
    let cells = cells(seed, &schedules);
    let s = sweep(&cells, seed, Duration::from_secs(seconds), MIN_SWEEPS)?;
    let peak_rss = Usage::now().max_rss_bytes;
    let (checked, _) = check_histories(&cells, seed)?;

    let sweeps = s.total_s.len() as u64;
    let ops = s.ops_per_sweep as f64;
    let sim_wall_s: f64 = s.cell_wall_s().iter().sum();
    let mut out = Outcome::default();
    out.metric("setup_s", median(&s.setup_s));
    out.metric("cpu_us_per_op", s.cpu_us_per_op());
    out.metric("peak_rss_mb", peak_rss as f64 / 1e6);
    out.attempted = sweeps * s.ops_per_sweep + checked;
    out.failed = s.degraded;
    out.detail("setup_s_samples", &s.setup_s);
    out.detail("sweep_wall_s", &s.total_s);
    out.detail("cell_wall_s", &s.cell_wall_s());
    out.note(format!(
        "{sweeps} sweeps; CPU over all of them; wall figures are each cell's median \
         over its least-disturbed repetitions"
    ));
    out.not_gated("sim_wall_s", sim_wall_s, "s");
    out.not_gated("ops_per_s", ops / sim_wall_s, "1/s");
    Ok(out)
}

pub fn traced(seed: u64, seconds: u64, spans: &mut impl Write) -> Result<Outcome, String> {
    harness::fidelity(seed)?;
    let schedules = setup(seed);
    let cells = cells(seed, &schedules);
    let s = sweep(&cells, seed, Duration::from_secs(seconds / 3), 2)?;
    let (checked, check_busy) = check_histories(&cells, seed)?;

    // Replay every cell's schedule through the harness with timing on, for
    // the attribution. Tracing cost is the on/off wall ratio over one cell
    // per protocol (the w = 0.5 column), replayed both ways.
    let streams: Vec<_> = schedules.iter().map(harness::schedule_stream).collect();
    let model = SizeModel::java_like();
    let mut layers = LayerStats::default();
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for c in &cells {
        let stream = &streams[c.w];
        let mut on = Harness::new(c.kind, N, model, true);
        let t = Instant::now();
        on.replay(stream)?;
        let on_wall = t.elapsed().as_secs_f64();
        if on.pending() != 0 {
            return Err(format!("{} harness replay left updates parked", c.kind));
        }
        layers.merge(&on.stats);
        let run = format!("{}/w={}", slug(c.kind), WRITE_RATES[c.w]);
        harness::write_spans(spans, &run, &on.spans).map_err(|e| e.to_string())?;
        if c.w == 1 {
            drop(on);
            let mut off = Harness::new(c.kind, N, model, false);
            let t = Instant::now();
            off.replay(stream)?;
            off_s += t.elapsed().as_secs_f64();
            on_s += on_wall;
        }
    }

    let cell_s = s.cell_wall_s();
    let mut out = Outcome::default();
    out.metric("workload.generate_ms", median(&s.setup_s) * 1e3);
    for kind in ProtocolKind::ALL {
        let ms: f64 = cells
            .iter()
            .zip(&cell_s)
            .filter(|(c, _)| c.kind == kind)
            .map(|(_, s)| s * 1e3)
            .sum();
        out.metric(format!("simnet.cell_ms.{}", slug(kind)), ms);
    }
    let sim_ms: f64 = cell_s.iter().sum::<f64>() * 1e3;
    out.metric("simnet.wall_ms", sim_ms);
    out.metric("simnet.self_ms", sim_ms - layers.proto_ns() as f64 / 1e6);
    let mut sim_msgs = MessageStats::default();
    s.stats.iter().for_each(|m| sim_msgs.merge(m));
    out.metric(
        "proto.msgs_per_op",
        sim_msgs.total_count() as f64 / s.ops_per_sweep as f64,
    );
    out.metric(
        "proto.meta_bytes_per_op",
        sim_msgs.total_bytes() as f64 / s.ops_per_sweep as f64,
    );
    crate::layer_metrics(&mut out, &layers);
    out.metric(
        "checker.us_per_op",
        check_busy.as_secs_f64() * 1e6 / checked as f64,
    );
    out.harness_cost(on_s, off_s);
    out.attempted = s.total_s.len() as u64 * s.ops_per_sweep + checked + layers.ops;
    out.failed = s.degraded;
    Ok(out)
}
