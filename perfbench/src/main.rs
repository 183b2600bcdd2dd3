//! perfbench: wall-clock benchmark of the S4D-Cache simulator.
//!
//! ```text
//! perfbench --workload <campaign_mix|seq_stream|crash_restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|tiny] [--spans-out <path>]
//! ```
//!
//! `--trace 0` repeats the workload untraced for `--seconds` and reports
//! the end-to-end metrics (medians over repetitions, wall times scaled to
//! a reference host speed by the kernels in `calib.rs`, which run in a
//! child process, `perfbench --host-kernel`). `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics; the spans of the last traced repetition are written to
//! `--spans-out`. Every repetition passes the behaviour gate: its
//! simulated fingerprint must equal the first one's, traced or not, and
//! `crash_restart` must read back every byte it wrote. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! check passed.

mod calib;
mod probe;
mod replay;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use calib::{HostClock, Kernel};
use probe::{Layer, Probe, Recorder};
use stats::{median, quantile, ratio};
use workloads::{RepOutcome, Size, Spec, Workload};

/// Repetitions that count, beyond the discarded warm-up one.
const MIN_SAMPLES: usize = 5;
/// `setup_s` is the median of at least this many set-ups, timed for at
/// least `SETUP_SECONDS`.
const MIN_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 0.5;
/// Set-ups are timed in batches of at least this long between two runs
/// of the host-speed kernel.
const SETUP_BATCH_SECONDS: f64 = 0.05;

struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
    spans_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec: Spec {
            workload,
            seed: seed.ok_or("--seed is required")?,
            size,
        },
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans_out: spans_out.unwrap_or_else(|| PathBuf::from("perfbench/out/spans.tsv")),
    })
}

/// Attempts, failures and the behaviour gate across repetitions.
#[derive(Default)]
struct Gate {
    reference: Option<Vec<u64>>,
    attempted: u64,
    failed: u64,
    mismatched_reps: u64,
}

impl Gate {
    fn check(&mut self, out: &RepOutcome) {
        self.attempted += out.attempted;
        let same = match &self.reference {
            None => {
                self.reference = Some(out.fingerprint.clone());
                true
            }
            Some(r) => *r == out.fingerprint,
        };
        if same {
            self.failed += out.failures.min(out.attempted);
        } else {
            // A diverging simulation invalidates the whole repetition.
            self.mismatched_reps += 1;
            self.failed += out.attempted;
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched_reps == 0 && self.attempted > 0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Prints a sample set as median, quartiles and count.
fn describe(name: &str, unit: &str, samples: &[f64]) {
    let mut v = samples.to_vec();
    println!(
        "  {name:<16} median {:>12.6} {unit:<6} q1 {:>12.6} q3 {:>12.6} n {}",
        quantile(&mut v, 0.5),
        quantile(&mut v, 0.25),
        quantile(&mut v, 0.75),
        v.len()
    );
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `--trace 0`: the end-to-end metrics.
fn run_plain(args: &Args, gate: &mut Gate) -> Vec<Metric> {
    let spec = args.spec;
    // Warm-up: one untimed repetition.
    let first = spec.execute(spec.prepare(None), None, None);
    gate.check(&first);
    let mode = spec.store_mode();
    let mut clock = Kernel::for_setup(mode).map(HostClock::start);
    // Set-up alone, back to back after the warm-up, so that every run
    // times it from the same allocator state; in batches of at least
    // `SETUP_BATCH_SECONDS`, each bracketed by the host-speed kernel when
    // there is one for the set-up.
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut spent = 0.0;
    while setups.len() < MIN_SETUPS || spent < SETUP_SECONDS {
        let mut batch = Vec::new();
        while batch.iter().sum::<f64>() < SETUP_BATCH_SECONDS {
            let t = Instant::now();
            let prepared = spec.prepare(None);
            batch.push(t.elapsed().as_secs_f64());
            drop(prepared);
        }
        let f = clock.as_mut().map_or(1.0, HostClock::factor);
        spent += batch.iter().sum::<f64>();
        setups.extend(batch.iter().map(|s| s * f));
        raw_setups.extend(batch);
    }
    drop(clock);
    let mut clock = HostClock::start(Kernel::for_mode(mode));
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    for rep in 1.. {
        let prepared = spec.prepare(None);
        let out = spec.execute(prepared, None, Some(&mut clock));
        gate.check(&out);
        let raw = ratio(out.completed as f64, out.wall_s);
        let rate = ratio(out.completed as f64, out.scaled_wall_s);
        eprintln!(
            "rep {rep}: wall {:.6} s, {raw:.1} ops/s, scaled wall {:.6} s, {rate:.1} ops/s",
            out.wall_s, out.scaled_wall_s
        );
        rates.push(rate);
        raw_rates.push(raw);
        if rates.len() >= MIN_SAMPLES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    println!(
        "end-to-end, {} timed repetitions; scaled to the reference host speed, then raw:",
        rates.len()
    );
    describe("setup_s", "s", &setups);
    describe("app_ops_per_s", "1/s", &rates);
    describe("raw setup_s", "s", &raw_setups);
    describe("raw ops_per_s", "1/s", &raw_rates);
    let ok = ratio((gate.attempted - gate.failed) as f64, gate.attempted as f64);
    vec![
        metric("setup_s", median(&setups), "s"),
        metric("app_ops_per_s", median(&rates), "1/s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        metric("sim_write_mibs", first.write_mibs, "MiB/s"),
        metric("sim_read_mibs", first.read_mibs, "MiB/s"),
        metric("ok_op_ratio", ok, "ratio"),
    ]
}

/// Per-layer wall-clock figures of one traced repetition, from its spans.
fn span_metrics(rec: &Recorder) -> Vec<Metric> {
    let n = Layer::COUNT;
    let mut durs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut child_ns = vec![0u64; rec.spans.len()];
    for s in &rec.spans {
        durs[s.layer as usize].push((s.end - s.start) as f64);
        if let Some(c) = child_ns.get_mut(s.parent as usize) {
            *c += s.end - s.start;
        }
    }
    // Self time: a span's duration minus what its children cover.
    let mut self_s = vec![0.0f64; n];
    for (i, s) in rec.spans.iter().enumerate() {
        let own = if s.layer.is_root() {
            (s.end - s.start).saturating_sub(child_ns[i])
        } else {
            s.end - s.start
        };
        self_s[s.layer as usize] += own as f64 * 1e-9;
    }
    let busy = |l: Layer| durs[l as usize].iter().sum::<f64>() * 1e-9;
    let calls = |l: Layer| durs[l as usize].len() as f64;
    let mut out = Vec::new();
    for (l, with_pct) in [
        (Layer::PlanIo, true),
        (Layer::OnPlanComplete, true),
        (Layer::PollBackground, true),
        (Layer::IoHooks, false),
    ] {
        out.push(metric(format!("{}.calls", l.name()), calls(l), "count"));
        out.push(metric(format!("{}.busy_s", l.name()), busy(l), "s"));
        if with_pct {
            let mut d = durs[l as usize].clone();
            out.push(metric(
                format!("{}.p50_ns", l.name()),
                quantile(&mut d, 0.5),
                "ns",
            ));
            out.push(metric(
                format!("{}.p99_ns", l.name()),
                quantile(&mut d, 0.99),
                "ns",
            ));
        }
    }
    out.push(metric("core.recover.busy_s", busy(Layer::Recover), "s"));
    for l in [Layer::Hdd, Layer::Ssd] {
        let mut d = durs[l as usize].clone();
        out.push(metric(format!("{}.calls", l.name()), calls(l), "count"));
        out.push(metric(format!("{}.busy_s", l.name()), busy(l), "s"));
        out.push(metric(
            format!("{}.p50_ns", l.name()),
            quantile(&mut d, 0.5),
            "ns",
        ));
        out.push(metric(
            format!("{}.p99_ns", l.name()),
            quantile(&mut d, 0.99),
            "ns",
        ));
    }
    let sum = |ls: &[Layer]| ls.iter().map(|&l| self_s[l as usize]).sum::<f64>();
    out.push(metric(
        "mpiio.runner.self_s",
        sum(&[Layer::RunnerRun, Layer::RunnerDrain]),
        "s",
    ));
    out.push(metric(
        "core.self_s",
        sum(&[
            Layer::Recover,
            Layer::PlanIo,
            Layer::OnPlanComplete,
            Layer::PollBackground,
            Layer::IoHooks,
            Layer::Control,
        ]),
        "s",
    ));
    out.push(metric(
        "storage.self_s",
        sum(&[Layer::Hdd, Layer::Ssd]),
        "s",
    ));
    out.push(metric("trace.spans", rec.spans.len() as f64, "count"));
    out
}

/// Deterministic per-layer counts and ratios of a repetition.
fn count_metrics(o: &RepOutcome, dispatches: u64) -> Vec<Metric> {
    let sim_s = o.sim_ns as f64 * 1e-9;
    vec![
        metric("core.records_replayed", o.records_replayed as f64, "count"),
        metric("mpiio.dispatches", dispatches as f64, "count"),
        metric("sim.events", o.events as f64, "count"),
        metric(
            "core.critical_ratio",
            ratio(o.critical as f64, o.evaluated as f64),
            "ratio",
        ),
        metric(
            "core.read_hit_ratio",
            ratio(o.read_hits as f64, o.read_lookups as f64),
            "ratio",
        ),
        metric(
            "mpiio.c_op_share",
            ratio(o.c_ops as f64, (o.c_ops + o.d_ops) as f64),
            "ratio",
        ),
        metric("core.journal_writes", o.journal_writes as f64, "count"),
        metric(
            "core.records_per_journal_write",
            ratio(o.journal_records as f64, o.journal_writes as f64),
            "ratio",
        ),
        metric(
            "pfs.hdd.utilisation",
            ratio(o.hdd_busy_ns as f64 * 1e-9, probe::D_SERVERS as f64 * sim_s),
            "ratio",
        ),
        metric(
            "pfs.ssd.utilisation",
            ratio(o.ssd_busy_ns as f64 * 1e-9, probe::C_SERVERS as f64 * sim_s),
            "ratio",
        ),
        metric("pfs.max_queue_depth", o.max_queue_depth as f64, "count"),
    ]
}

fn export_spans(rec: &Recorder, path: &PathBuf) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\treq")?;
    for s in &rec.spans {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.start,
            s.end,
            parent,
            s.req
        )?;
    }
    w.flush()
}

/// `--trace 1`: the per-layer metrics, from traced repetitions
/// alternating with untraced ones.
fn run_traced(args: &Args, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let spec = args.spec;
    let start = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_rep: Vec<Vec<Metric>> = Vec::new();
    let mut last: Option<(Recorder, RepOutcome)> = None;
    for rep in 0.. {
        let out = spec.execute(spec.prepare(None), None, None);
        gate.check(&out);
        let plain_wall = out.wall_s;
        let probe = Probe::new();
        let out = spec.execute(spec.prepare(Some(&probe)), Some(&probe), None);
        gate.check(&out);
        let rec = probe.take();
        if rep > 0 {
            plain_walls.push(plain_wall);
            traced_walls.push(out.wall_s);
            per_rep.push(span_metrics(&rec));
        }
        last = Some((rec, out));
        if per_rep.len() >= MIN_SAMPLES.div_ceil(2) && start.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
    }
    let (rec, out) = last.expect("at least one traced repetition ran");
    let mut metrics: Vec<Metric> = (0..per_rep[0].len())
        .map(|i| {
            let v: Vec<f64> = per_rep.iter().map(|m| m[i].value).collect();
            metric(per_rep[0][i].name.clone(), median(&v), per_rep[0][i].unit)
        })
        .collect();
    metrics.extend(count_metrics(&out, rec.dispatches));
    let plain = median(&plain_walls);
    metrics.push(metric(
        "sim.events_per_s",
        ratio(out.events as f64, plain),
        "1/s",
    ));
    metrics.push(metric(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), plain),
        "ratio",
    ));
    let r = replay::replay(&rec, spec.params(), spec.store_mode());
    metrics.extend([
        metric("cost.evaluate.calls", r.eval_calls as f64, "count"),
        metric("cost.evaluate.p50_ns", r.eval_p50_ns, "ns"),
        metric("cost.evaluate.p99_ns", r.eval_p99_ns, "ns"),
        metric("pfs.split.calls", r.split_calls as f64, "count"),
        metric("pfs.split.p50_ns", r.split_p50_ns, "ns"),
        metric("pfs.split.p99_ns", r.split_p99_ns, "ns"),
        metric("storage.store.write.busy_s", r.store_write_s, "s"),
        metric("storage.store.read.busy_s", r.store_read_s, "s"),
    ]);
    export_spans(&rec, &args.spans_out)
        .map_err(|e| format!("writing {}: {e}", args.spans_out.display()))?;
    println!(
        "traced: {} pairs; untraced wall median {plain:.4} s; {} spans written to {}",
        traced_walls.len(),
        rec.spans.len(),
        args.spans_out.display()
    );
    describe("untraced_wall_s", "s", &plain_walls);
    describe("traced_wall_s", "s", &traced_walls);
    Ok(metrics)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--host-kernel") {
        return calib::serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut gate = Gate::default();
    let metrics = if args.trace {
        match run_traced(&args, &mut gate) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_plain(&args, &mut gate)
    };
    for m in &metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if gate.mismatched_reps > 0 {
        println!(
            "behaviour gate: {} repetition(s) diverged from the first",
            gate.mismatched_reps
        );
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gate.correct(),
        gate.attempted,
        gate.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if gate.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
