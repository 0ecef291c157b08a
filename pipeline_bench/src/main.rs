//! End-to-end benchmark of the loopscope stability pipeline.
//!
//! ```text
//! pipeline_bench --workload <table2_session|allnodes_mesh|corners_mc>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one closed-loop client: the next op starts when the
//! previous one has returned and been checked. The engine runs pinned to one
//! sweep worker (`LOOPSCOPE_THREADS=1`); every other engine setting is left
//! at its default. The first stdout line records the resolved engine config
//! and solver structure; the last line is the JSON result. `--trace 0`
//! reports the end-to-end metrics, with times calibrated to a reference
//! machine speed (`speed.rs`) and the raw wall-time figures on the line
//! before; `--trace 1` reports the per-layer ledger of a traced re-enactment
//! in wall time (spans are written to `.bench_trace/`).

mod deck;
mod speed;
mod trace;
mod workloads;

use loopscope_sparse::kernels::KERNEL_ENV;
use loopscope_spice::batch::{configured_batch_width, BATCH_ENV};
use loopscope_spice::par::{configured_panel_width, configured_workers, PANEL_ENV, THREADS_ENV};
use loopscope_spice::solver::SOLVER_ENV;
use speed::{Probe, PROBE_REFERENCE_MS};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{AllNodesMesh, BenchResult, CornersMc, Counts, Table2Session, Workload};

/// The sweep worker count the benchmark pins.
const PINNED_WORKERS: usize = 1;
/// Environment knobs that must stay at their defaults.
const DEFAULTED_ENV: [&str; 4] = [PANEL_ENV, SOLVER_ENV, BATCH_ENV, KERNEL_ENV];
/// Set-ups before the first timed op; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed ops per run at least, so p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Traced ops per run at least.
const MIN_TRACED_OPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key, value);
    }
    let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
    let workload = take("workload")?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if let Some(key) = map.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin before any sweep runs; the engine re-reads these on every call.
    std::env::set_var(THREADS_ENV, PINNED_WORKERS.to_string());
    for key in DEFAULTED_ENV {
        std::env::remove_var(key);
    }
    let result = match args.workload.as_str() {
        "table2_session" => run::<Table2Session>(&args),
        "allnodes_mesh" => run::<AllNodesMesh>(&args),
        "corners_mc" => run::<CornersMc>(&args),
        other => Err(format!("unknown workload `{other}`").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipeline_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Interpolated quantile `q` of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kib / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1.0e3
}

/// A per-op layer counter: metric name, how to read it, unit.
type Counter = (&'static str, fn(&Counts) -> f64, &'static str);

/// The metrics object of the result line.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Wall time of a piece of work, raw and scaled to the probe's reference
/// speed (see `speed.rs`).
#[derive(Clone, Copy)]
struct Timed {
    wall: Duration,
    calibrated: Duration,
}

impl Timed {
    /// Runs `f` between two probes of the machine's speed.
    fn run<T>(probe: &mut Probe, f: impl FnOnce() -> T) -> (T, Self) {
        let before = probe.time();
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        let after = probe.time();
        let calibrated = Probe::calibrate(wall, before, after);
        (out, Self { wall, calibrated })
    }

    fn add(self, other: Self) -> Self {
        Self {
            wall: self.wall + other.wall,
            calibrated: self.calibrated + other.calibrated,
        }
    }
}

/// One set-up: input generation, input validation and a fixed count of
/// untimed warm-up ops. Each step is timed between its own probes, so a
/// change of the machine's speed during the set-up is followed step by step.
fn set_up<W: Workload>(seed: u64, probe: &mut Probe) -> BenchResult<(W, Timed)> {
    let (w, mut total) = Timed::run(probe, || W::setup(seed));
    let w = w?;
    for op in 0..W::WARMUP_OPS {
        let (out, t) = Timed::run(probe, || w.run(w.prepare(op)));
        black_box(out?);
        total = total.add(t);
    }
    Ok((w, total))
}

fn run<W: Workload>(args: &Args) -> BenchResult<()> {
    let workers = configured_workers();
    if workers != PINNED_WORKERS {
        return Err(format!("engine resolved {workers} workers, pinned {PINNED_WORKERS}").into());
    }
    let mut probe = Probe::new();
    // Back to back, all before the first timed op; the last one is used.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        let (fresh, t) = set_up::<W>(args.seed, &mut probe)?;
        setups.push(t);
        w = Some(fresh);
    }
    let w = w.expect("SETUP_REPS is at least 1");
    let structure = w.structure()?;
    println!(
        "{{\"config\": {{\"workload\": \"{}\", \"seed\": {}, \"workers\": {workers}, \"panel_width\": {}, \"batch_width\": {}, \"kernel\": \"{}\", \"solver\": \"{:?}\", \"dim\": {}, \"fill_nnz\": {}, \"btf_blocks\": {}, \"available_parallelism\": {}, \"probe_reference_ms\": {PROBE_REFERENCE_MS:?}}}}}",
        args.workload,
        args.seed,
        configured_panel_width(),
        configured_batch_width(),
        structure.kernel.name(),
        structure.solver,
        structure.dim,
        structure.fill_nnz,
        structure.block_count,
        loopscope_spice::par::available_workers(),
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let (attempted, failed, metrics) = if args.trace {
        traced(&w, budget, args, &structure)?
    } else {
        untraced(&w, budget, &setups, &mut probe)?
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.to_json()
    );
    Ok(())
}

/// The timed loop. Every op runs between two probes of the machine's
/// speed; the reported times are calibrated, and the raw wall-time figures
/// go to a `wall` line before the result.
fn untraced<W: Workload>(
    w: &W,
    budget: Duration,
    setups: &[Timed],
    probe: &mut Probe,
) -> BenchResult<(usize, usize, Metrics)> {
    let mut ops: Vec<Timed> = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed() < budget || ops.len() < MIN_OPS {
        let op = ops.len();
        let input = w.prepare(op);
        let (out, t) = Timed::run(probe, || w.run(input));
        ops.push(t);
        if let Err(e) = out.and_then(|o| Ok(w.check(op, &black_box(o))?)) {
            eprintln!("op {op} failed: {e}");
            failed += 1;
        }
    }
    let attempted = ops.len();
    let samples = (w.samples_per_op() * attempted) as f64;
    // setup_s, latency_p50_ms, latency_p90_ms, points_per_s of one clock.
    let figures = |clock: fn(&Timed) -> Duration| {
        let mut lat: Vec<f64> = ops.iter().map(|t| ms(clock(t))).collect();
        let busy_s = lat.iter().sum::<f64>() * 1.0e-3;
        let mut setup_s: Vec<f64> = setups.iter().map(|t| clock(t).as_secs_f64()).collect();
        [
            quantile(&mut setup_s, 0.5),
            quantile(&mut lat, 0.5),
            quantile(&mut lat, 0.9),
            samples / busy_s,
        ]
    };
    let wall = figures(|t| t.wall);
    println!(
        "{{\"wall\": {{\"setup_s\": {:?}, \"latency_p50_ms\": {:?}, \"latency_p90_ms\": {:?}, \"points_per_s\": {:?}}}}}",
        wall[0], wall[1], wall[2], wall[3]
    );
    let [setup_s, p50, p90, points_per_s] = figures(|t| t.calibrated);
    let mut m = Metrics(Vec::new());
    m.push("setup_s", setup_s, "s");
    m.push("latency_p50_ms", p50, "ms");
    m.push("latency_p90_ms", p90, "ms");
    m.push("points_per_s", points_per_s, "1/s");
    m.push(
        "success_rate",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    m.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok((attempted, failed, m))
}

fn traced<W: Workload>(
    w: &W,
    budget: Duration,
    args: &Args,
    structure: &loopscope_spice::SolverStructure,
) -> BenchResult<(usize, usize, Metrics)> {
    let mut tracer = Tracer::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut self_ms: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    // Whole cycles of the workload's inputs, so per-op count medians see
    // every input equally often and repeat exactly between runs.
    while start.elapsed() < budget
        || traced_ms.len() < MIN_TRACED_OPS
        || traced_ms.len() % W::OP_CYCLE != 0
    {
        let op = traced_ms.len();
        // The same request twice: through the top-level API and re-enacted
        // layer by layer under spans. Which goes first alternates per op, so
        // cache and order effects cancel in the tracing overhead.
        let (mut top, mut re) = (None, None);
        for traced_now in [op % 2 == 1, op % 2 == 0] {
            let input = w.prepare(op);
            if traced_now {
                let mut c = Counts::default();
                let root = tracer.begin_op(op);
                re = Some(w.run_traced(input, &mut tracer, &mut c));
                tracer.end(root);
                traced_ms.push(tracer.duration_ms(root));
                self_ms.push(tracer.self_times_ms(root));
                counts.push(c);
            } else {
                let t = Instant::now();
                top = Some(w.run(input));
                untraced_ms.push(ms(t.elapsed()));
            }
        }
        let top = top.expect("the untraced pass ran");
        let re = re.expect("the traced pass ran");

        let verdict = top.and_then(|top| {
            let re = re?;
            if W::fingerprint(&top) != W::fingerprint(&re) {
                return Err("re-enacted pipeline differs from the top-level call".into());
            }
            Ok(w.check(op, &top)?)
        });
        if let Err(e) = verdict {
            eprintln!("op {op} failed: {e}");
            failed += 1;
        }
    }
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path)?;

    let attempted = traced_ms.len();
    let median = |f: &dyn Fn(usize) -> f64| {
        let mut v: Vec<f64> = (0..attempted).map(f).collect();
        quantile(&mut v, 0.5)
    };
    let layer = |name: &'static str| median(&|i| self_ms[i].get(name).copied().unwrap_or(0.0));
    let count = |f: &dyn Fn(&Counts) -> f64| median(&|i| f(&counts[i]));

    let mut m = Metrics(Vec::new());
    for (metric, span) in [
        ("netlist.parse_ms", "netlist.parse"),
        ("circuits.build_ms", "circuits.build"),
        ("spice.dc.op_ms", "spice.dc.op"),
        ("spice.ac.single_node_ms", "spice.ac.single_node"),
        ("spice.ac.all_nodes_ms", "spice.ac.all_nodes"),
        ("spice.ac.sweep_ms", "spice.ac.sweep"),
        ("spice.batch.sweep_ms", "spice.batch.sweep"),
        ("spice.tran.run_ms", "spice.tran.run"),
        ("core.plot_ms", "core.plot"),
        ("core.peaks_ms", "core.peaks"),
        ("core.report_ms", "core.report"),
        ("bench.unattributed_ms", "op"),
    ] {
        m.push(metric, layer(span), "ms");
    }
    m.push(
        "bench.span_coverage",
        median(&|i| 1.0 - self_ms[i].get("op").copied().unwrap_or(0.0) / traced_ms[i]),
        "ratio",
    );
    let p50_traced = quantile(&mut traced_ms, 0.5);
    let p50_untraced = quantile(&mut untraced_ms, 0.5);
    m.push("bench.traced_p50_ms", p50_traced, "ms");
    m.push("bench.trace_overhead_ms", p50_traced - p50_untraced, "ms");

    let n = |v: usize| v as f64;
    let counters: [Counter; 11] = [
        (
            "spice.dc.newton_iterations",
            |c| c.dc_newton_iterations as f64,
            "count",
        ),
        (
            "spice.tran.accepted_steps",
            |c| c.tran_accepted_steps as f64,
            "count",
        ),
        (
            "spice.tran.rejected_steps",
            |c| c.tran_rejected_steps as f64,
            "count",
        ),
        (
            "spice.tran.newton_iterations",
            |c| c.tran_newton_iterations as f64,
            "count",
        ),
        (
            "spice.ac.factorizations",
            |c| c.ac_factorizations as f64,
            "count",
        ),
        ("spice.ac.symbolic", |c| c.ac_symbolic as f64, "count"),
        (
            "spice.ac.cached_assemblies",
            |c| c.ac_cached_assemblies as f64,
            "count",
        ),
        ("spice.ac.rhs_solves", |c| c.ac_rhs_solves as f64, "count"),
        (
            "spice.ac.retry_ratio",
            |c| c.ac_retries as f64 / c.ac_factorizations.max(1) as f64,
            "ratio",
        ),
        (
            "spice.batch.numeric_refactor",
            |c| c.batch_numeric_refactor as f64,
            "count",
        ),
        (
            "spice.batch.yield_fraction",
            |c| c.batch_yield_fraction,
            "ratio",
        ),
    ];
    for (metric, f, unit) in counters {
        m.push(metric, count(&f), unit);
    }
    m.push("sparse.dim", n(structure.dim), "count");
    m.push("sparse.fill_nnz", n(structure.fill_nnz), "count");
    m.push("sparse.btf_blocks", n(structure.block_count), "count");
    m.push(
        "sparse.solve_flops_computed",
        count(&|c| c.solve_flops),
        "flop",
    );
    Ok((attempted, failed, m))
}
