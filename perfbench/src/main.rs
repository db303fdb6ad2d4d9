//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-paper|serve-write|serve-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Every metric is printed by name and
//! unit; the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A run whose outputs fail
//! a correctness gate prints no result and exits with status 1; bad
//! arguments exit with status 2. Each result is also written, with the
//! host and build fingerprint, to `perfbench/out/`. See
//! `perfbench/README.md` for the metric definitions.

mod harness;
mod serve;
mod sim;
mod sys;

use harness::LayerStats;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics (tracing off), name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), name and unit. A metric a workload
/// does not exercise (the simulator on a live workload, the runtime on
/// `sim-paper`) reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.ops_per_s", "1/s"),
    ("loadgen.p50_us", "us"),
    ("loadgen.p99_us", "us"),
    ("workload.generate_ms", "ms"),
    ("simnet.cell_ms.full-track", "ms"),
    ("simnet.cell_ms.opt-track", "ms"),
    ("simnet.cell_ms.opt-track-crp", "ms"),
    ("simnet.cell_ms.optp", "ms"),
    ("simnet.wall_ms", "ms"),
    ("simnet.self_ms", "ms"),
    ("proto.write_ns", "ns"),
    ("proto.read_ns", "ns"),
    ("proto.on_sm_ns", "ns"),
    ("proto.on_fm_ns", "ns"),
    ("proto.on_rm_ns", "ns"),
    ("proto.sends_per_write", "count"),
    ("proto.msgs_per_op", "count"),
    ("proto.meta_bytes_per_op", "B"),
    ("proto.us_per_op", "us"),
    ("wire.encode_ns.sm", "ns"),
    ("wire.decode_ns.sm", "ns"),
    ("wire.encode_ns.rm", "ns"),
    ("wire.decode_ns.rm", "ns"),
    ("wire.bytes_per_frame.sm", "B"),
    ("wire.bytes_per_frame.rm", "B"),
    ("wire.us_per_op", "us"),
    ("runtime.cpu_us_per_op", "us"),
    ("runtime.cpu_user_us_per_op", "us"),
    ("runtime.cpu_sys_us_per_op", "us"),
    ("runtime.ctx_switches_per_op", "count"),
    ("runtime.frames_per_syscall", "count"),
    ("runtime.mailbox_depth_peak", "count"),
    ("runtime.threads_spawned", "count"),
    ("runtime.max_pending", "count"),
    ("runtime.overhead_us_per_op", "us"),
    ("checker.us_per_op", "us"),
    ("harness.spans_off_ms", "ms"),
    ("harness.spans_on_ms", "ms"),
    ("harness.span_overhead", "ratio"),
];

const WORKLOADS: [&str; 3] = ["sim-paper", "serve-write", "serve-read"];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra JSON members for the results file (per-repetition samples).
    details: Vec<String>,
    notes: Vec<String>,
    /// Wall-clock figures printed and recorded but not gated.
    not_gated: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn detail(&mut self, name: &str, samples: &[f64]) {
        let v: Vec<String> = samples.iter().map(|x| x.to_string()).collect();
        self.details.push(format!("\"{name}\": [{}]", v.join(", ")));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    pub fn not_gated(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.not_gated.push((name, value, unit));
    }

    /// The harness's wall time with spans on and off, and their ratio.
    pub fn harness_cost(&mut self, on_s: f64, off_s: f64) {
        self.metric("harness.spans_on_ms", on_s * 1e3);
        self.metric("harness.spans_off_ms", off_s * 1e3);
        self.metric("harness.span_overhead", on_s / off_s);
    }

    /// Order the metrics as `catalogue` lists them, filling the ones this
    /// workload does not exercise with 0, and reject unknown or non-finite
    /// values.
    fn resolve(
        &self,
        catalogue: &[(&str, &'static str)],
    ) -> Result<Vec<(String, f64, &'static str)>, String> {
        for (name, v) in &self.metrics {
            if !catalogue.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
        }
        Ok(catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name.to_string(), v, *unit)
            })
            .collect())
    }
}

/// Per-call harness costs and counts shared by every traced workload.
pub fn layer_metrics(out: &mut Outcome, l: &LayerStats) {
    use causal_types::MsgKind::{Fm, Rm, Sm};
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let count = |k| l.msgs.count(k);
    out.metric("proto.write_ns", per(l.write_ns, l.writes));
    out.metric("proto.read_ns", per(l.read_ns, l.reads));
    out.metric("proto.on_sm_ns", per(l.on_ns[Sm.index()], count(Sm)));
    out.metric("proto.on_fm_ns", per(l.on_ns[Fm.index()], count(Fm)));
    out.metric("proto.on_rm_ns", per(l.on_ns[Rm.index()], count(Rm)));
    out.metric("proto.sends_per_write", per(count(Sm), l.writes));
    out.metric("proto.us_per_op", per(l.proto_ns(), l.ops) / 1e3);
    for k in [Sm, Rm] {
        let name = harness::kind_name(k);
        let i = k.index();
        out.metric(
            format!("wire.encode_ns.{name}"),
            per(l.encode_ns[i], count(k)),
        );
        out.metric(
            format!("wire.decode_ns.{name}"),
            per(l.decode_ns[i], count(k)),
        );
        out.metric(
            format!("wire.bytes_per_frame.{name}"),
            per(l.frame_bytes[i], count(k)),
        );
    }
    out.metric("wire.us_per_op", per(l.wire_ns(), l.ops) / 1e3);
}

/// Median (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The least-disturbed half (rounded up) of `reps`, ranked by the CPU
/// time `stolen` from the machine while each ran. Other tenants on a
/// shared host only ever slow a repetition down, so the reported medians
/// are taken over the repetitions they disturbed least.
pub fn least_disturbed<T>(reps: &[T], stolen: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut order: Vec<usize> = (0..reps.len()).collect();
    order.sort_by(|a, b| {
        stolen(&reps[*a])
            .total_cmp(&stolen(&reps[*b]))
            .then(a.cmp(b))
    });
    order.truncate(reps.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| &reps[i]).collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? >= 1 => seconds = Some(num()?),
            "--seconds" => return Err("--seconds must be at least 1".into()),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--trace" => return Err("--trace is 0 or 1".into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(a: &Args, out_dir: &Path) -> Result<Outcome, String> {
    let mix = match a.workload.as_str() {
        "serve-write" => Some(serve::Mix::Write),
        "serve-read" => Some(serve::Mix::Read),
        _ => None,
    };
    if !a.trace {
        return match mix {
            Some(m) => serve::end_to_end(m, a.seed, a.seconds),
            None => sim::end_to_end(a.seed, a.seconds),
        };
    }
    let path = out_dir.join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
    let mut spans = File::create(&path)
        .map(BufWriter::new)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let out = match mix {
        Some(m) => serve::traced(m, a.seed, a.seconds, &mut spans)?,
        None => sim::traced(a.seed, a.seconds, &mut spans)?,
    };
    spans
        .flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(out)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new("perfbench").join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let catalogue = if a.trace { PER_LAYER } else { END_TO_END };
    let result = run(&a, &out_dir).and_then(|o| {
        if o.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let m = o.resolve(catalogue)?;
        Ok((o, m))
    });
    let (out, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("no result: {e}");
            return ExitCode::FAILURE;
        }
    };

    let fp = sys::fingerprint(&a.workload, a.seed, a.seconds, a.trace);
    println!("# {{{fp}}}");
    for n in &out.notes {
        println!("# {n}");
    }
    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>16.4} {unit}");
    }
    for (name, v, unit) in &out.not_gated {
        println!("{name:<32} {v:>16.4} {unit} (wall clock, not gated)");
    }
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        members.join(", ")
    );
    let record = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let not_gated: Vec<String> = out
        .not_gated
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    let body = format!(
        "{{{fp}, \"result\": {line}, \"not_gated\": {{{}}}, \"samples\": {{{}}}}}\n",
        not_gated.join(", "),
        out.details.join(", ")
    );
    if let Err(e) = std::fs::write(&record, body) {
        eprintln!("error: cannot write {}: {e}", record.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}
