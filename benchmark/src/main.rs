#![forbid(unsafe_code)]
//! The repository's benchmark: time to verdict on four workloads, with
//! every verdict checked against a known answer.
//!
//! ```text
//! bash benchmark/run.sh --workload dfs-full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One workload runs per process (the simulator's host pool is
//! process-global and never shrinks). The benchmark drives only public
//! APIs and never picks an engine, checkpoint spacing or prune mode beyond
//! the workload's own. `--trace 0` prints the end-to-end metrics
//! (`wall_s`, `setup_s`, `peak_rss_mb`); `--trace 1` records spans around
//! every call into a layer and prints the per-layer metrics derived from
//! them. The last line of standard output is the result object; the line
//! before it is the host stamp. Detail per tree, row or cell goes to
//! standard error and to `benchmark/out/`. See `benchmark/README.md`.

mod clock;
mod explore;
mod host;
mod mech;
mod sample;
mod spans;

use bloom_sim::{SimError, SimReport};
use clock::{scaled_setup, Clock};
use spans::{Counts, Layers, Tracer};
use std::time::Instant;

/// Fewest timed passes a run reports a median over.
const MIN_PASSES: usize = 3;
/// Fresh processes whose set-up time joins this process's own in the
/// `setup_s` median.
const SETUP_PROBES: usize = 6;

/// Known-answer bookkeeping: every comparison counts as one attempted
/// check; a mismatch counts as failed and is reported on standard error.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("CHECK FAILED: {what}");
            }
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.expect(&format!("{what}: got {got:?}, want {want:?}"), ok);
    }

    /// Checks that `f` returns without panicking (for the library's own
    /// `assert_consistent`-style invariant checks).
    pub fn expect_no_panic(&mut self, what: &str, f: impl FnOnce() + std::panic::UnwindSafe) {
        let ok = std::panic::catch_unwind(f).is_ok();
        self.expect(what, ok);
    }
}

/// Engine tallies of one item or one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub pruned: u64,
    pub revisit_requests: u64,
    pub revisit_grants: u64,
    pub sym_grants: u64,
    /// Runs whose checker or law set flagged a violation.
    pub violations: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.pruned += other.pruned;
        self.revisit_requests += other.revisit_requests;
        self.revisit_grants += other.revisit_grants;
        self.sym_grants += other.sym_grants;
        self.violations += other.violations;
    }
}

/// One named workload: fixed work, a pass of items timed one by one.
pub trait Workload {
    /// The items of a pass (trees, rows or cells), indexed by span item,
    /// each with its operations per pass (1 where an item is one verdict).
    fn items(&self) -> Vec<(String, u64)>;
    /// Runs one item and checks every verdict it reaches. Between two runs
    /// of the item it calls [`Clock::tick`].
    fn run_item(
        &mut self,
        item: usize,
        tracer: Option<&Tracer>,
        clock: &Clock,
        checks: &mut Checks,
    ) -> Tally;
    /// Re-runs every run of the last pass alone under a `kernel` span
    /// (workloads whose kernel runs inside an engine).
    fn replay(&self, tracer: &Tracer, checks: &mut Checks);
    /// Untimed determinism self-checks against the last pass.
    fn self_check(&self, checks: &mut Checks);
}

/// The report of a run, whether it succeeded or failed.
pub fn report_of(result: &Result<SimReport, SimError>) -> &SimReport {
    match result {
        Ok(report) => report,
        Err(err) => &err.report,
    }
}

/// Builds a workload: plan expansion plus one warm-up run per scenario,
/// which also grows the host pool to the workload's high-water mark.
fn build(args: &Args, checks: &mut Checks) -> Option<Box<dyn Workload>> {
    let seed = args.seed;
    Some(match args.workload.as_str() {
        "dfs-full" => Box::new(explore::Explore::new(false, seed, checks)),
        "dpor-revisit" => Box::new(explore::Explore::new(true, seed, checks)),
        "sample-r3" => Box::new(sample::SampleR3::new(seed, checks)),
        "mech-ops" => Box::new(mech::MechOps::new(seed, checks)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    /// The workload seed: it orders the trees, rows or cells of a pass, and
    /// is `sample-r3`'s sampler and workload-DSL seed.
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sample::ARCHIVED_SEED,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of unsorted values (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest quantile that still has ten samples beyond it (the median
/// when there are fewer than twenty samples).
fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// One timed pass.
#[derive(Default)]
pub struct Pass {
    /// Seconds, the sum of the items'.
    secs: f64,
    /// Time in reference hand-offs (see [`Clock`]).
    handoffs: f64,
    /// Seconds per item, in item order.
    item_s: Vec<f64>,
    tally: Tally,
}

/// Runs timed passes until `budget` seconds have gone (at least
/// `min_passes`).
fn timed_passes(
    w: &mut dyn Workload,
    budget: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Vec<Pass> {
    let begin = Instant::now();
    let items = w.items().len();
    let mut passes = Vec::new();
    let clock = Clock::new(tracer.is_none());
    while passes.len() < min_passes || begin.elapsed().as_secs_f64() < budget {
        let mut pass = Pass::default();
        for item in 0..items {
            pass.tally.add(w.run_item(item, tracer, &clock, checks));
            let (secs, handoffs) = clock.end_item();
            pass.secs += secs;
            pass.handoffs += handoffs;
            pass.item_s.push(secs);
        }
        passes.push(pass);
    }
    passes
}

fn secs_of(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.secs).collect()
}

fn handoffs_of(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.handoffs).collect()
}

/// Scaled set-up seconds of fresh processes of this binary, each from its
/// own start to the first timed operation.
fn probe_setups(args: &Args, checks: &mut Checks) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut out = Vec::new();
    for _ in 0..SETUP_PROBES {
        let probe = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .arg("--setup-probe")
            .output();
        let secs = probe.ok().filter(|o| o.status.success()).and_then(|o| {
            let text = String::from_utf8(o.stdout).ok()?;
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s ")?.trim().parse::<f64>().ok())
        });
        checks.expect(
            "set-up probe process reports its set-up time",
            secs.is_some(),
        );
        out.extend(secs);
    }
    out
}

/// One metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    layers: &Layers,
    counts: &Counts,
    untraced: &[Pass],
    traced: &[Pass],
    pool_threads: u64,
) -> Vec<Metric> {
    let last = &traced.last().expect("at least one traced pass").tally;
    let wall = median(&secs_of(untraced));
    let handoffs = median(&handoffs_of(untraced));
    let traced_handoffs = median(&handoffs_of(traced));
    let kernel_runs = &layers.kernel_runs_us;
    let kernel_mean_ns = if kernel_runs.is_empty() {
        0.0
    } else {
        kernel_runs.iter().sum::<f64>() / kernel_runs.len() as f64 * 1e3
    };
    let per_count = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let c = counts;
    vec![
        metric("problems.setup_us", layers.per_run_us(layers.setup_s), "us"),
        metric(
            "problems.setup_share",
            layers.share(layers.setup_s),
            "ratio",
        ),
        metric("kernel.run_us_p50", median(kernel_runs), "us"),
        metric(
            "kernel.run_us_tail",
            quantile(kernel_runs, tail_quantile(kernel_runs.len())),
            "us",
        ),
        metric("kernel.share", layers.share(layers.kernel_s), "ratio"),
        metric(
            "kernel.ns_per_dispatch",
            per_count(kernel_mean_ns, c.per_run(c.dispatches)),
            "ns",
        ),
        metric(
            "kernel.dispatches_per_run",
            c.per_run(c.dispatches),
            "count",
        ),
        metric("kernel.switches_per_run", c.per_run(c.switches), "count"),
        metric("kernel.parks_per_run", c.per_run(c.parks), "count"),
        metric("kernel.decisions_per_run", c.per_run(c.decisions), "count"),
        metric("trace.events_per_run", c.per_run(c.events), "count"),
        metric("footprint.quanta_per_run", c.per_run(c.quanta), "count"),
        metric("trace_overhead", traced_handoffs / handoffs - 1.0, "ratio"),
        metric("explore.runs", layers.runs, "count"),
        metric("explore.pruned", last.pruned as f64, "count"),
        metric("revisit.requests", last.revisit_requests as f64, "count"),
        metric("revisit.grants", last.revisit_grants as f64, "count"),
        metric("symbolic.sym_grants", last.sym_grants as f64, "count"),
        metric("explore.runs_per_s", per_count(layers.runs, wall), "1/s"),
        metric(
            "explore.engine_us_per_run",
            layers.per_run_us(layers.engine_s),
            "us",
        ),
        metric(
            "explore.engine_share",
            layers.share(layers.engine_s),
            "ratio",
        ),
        metric("explore.finish_us", layers.finish_s * 1e6, "us"),
        metric(
            "core.check_us",
            per_count(layers.check_s * 1e6, layers.check_calls),
            "us",
        ),
        metric("core.check_share", layers.share(layers.check_s), "ratio"),
        metric("core.violations", last.violations as f64, "count"),
        metric("mech.sync_ops_per_run", c.per_run(c.sync_ops), "count"),
        metric(
            "mech.sim_ns_per_op",
            per_count(kernel_mean_ns, c.per_run(c.sync_ops)),
            "ns",
        ),
        metric("rt.share", layers.share(layers.rt_s), "ratio"),
        metric("pool.threads", pool_threads as f64, "count"),
        metric(
            "host.handoff_ns",
            median(
                &untraced
                    .iter()
                    .map(|p| p.secs / p.handoffs * 1e9)
                    .collect::<Vec<_>>(),
            ),
            "ns",
        ),
    ]
}

/// Per-item medians over passes, for the detail report.
fn item_detail(w: &dyn Workload, passes: &[Pass]) -> Vec<(String, f64, u64)> {
    w.items()
        .into_iter()
        .enumerate()
        .map(|(i, (name, ops))| {
            let secs: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.item_s.get(i).copied())
                .collect();
            (name, median(&secs), ops)
        })
        .collect()
}

fn write_out(file: &str, body: &str) {
    let dir = std::path::Path::new("benchmark/out");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(file), body));
    if let Err(err) = written {
        eprintln!("note: could not write benchmark/out/{file}: {err}");
    }
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage: --workload <dfs-full|dpor-revisit|sample-r3|mech-ops> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let load_start = host::loadavg();
    let mut checks = Checks::default();
    let Some(mut workload) = build(&args, &mut checks) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let own_setup = scaled_setup(start.elapsed().as_secs_f64());
    if args.setup_probe {
        println!("setup_s {own_setup}");
        return;
    }
    let pool_threads = host::pool_threads();
    let w = workload.as_mut();

    let (metrics, detail, passes) = if !args.trace {
        let passes = timed_passes(w, args.seconds, MIN_PASSES, None, &mut checks);
        let peak_rss_mb = host::peak_rss_mb();
        let mut setups = probe_setups(&args, &mut checks);
        setups.push(own_setup);
        let walls = secs_of(&passes);
        let handoffs = handoffs_of(&passes);
        eprintln!(
            "{}: {} passes; wall_s median {:.6} (q1 {:.6}, q3 {:.6}); wall_handoffs median {:.0} \
             (q1 {:.0}, q3 {:.0}); setup_s samples {setups:?}",
            args.workload,
            passes.len(),
            median(&walls),
            quantile(&walls, 0.25),
            quantile(&walls, 0.75),
            median(&handoffs),
            quantile(&handoffs, 0.25),
            quantile(&handoffs, 0.75),
        );
        let metrics = vec![
            metric("wall_handoffs", median(&handoffs), "handoffs"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ];
        (metrics, item_detail(w, &passes), passes)
    } else {
        // Per-layer metrics carry no bound, so one pass per half will do.
        let untraced = timed_passes(w, args.seconds / 2.0, 1, None, &mut checks);
        let tracer = Tracer::new();
        let traced = timed_passes(w, args.seconds / 2.0, 1, Some(&tracer), &mut checks);
        w.replay(&tracer, &mut checks);
        let spans = tracer.spans();
        let layers = Layers::derive(&spans, traced.len(), median(&secs_of(&traced)));
        eprintln!(
            "{}: {} untraced + {} traced passes, {} spans",
            args.workload,
            untraced.len(),
            traced.len(),
            spans.len()
        );
        let labels: Vec<String> = w.items().into_iter().map(|(name, _)| name).collect();
        write_out(
            &format!("{}-spans.jsonl", args.workload),
            &spans::jsonl(&spans, &labels),
        );
        let metrics = layer_metrics(&layers, &tracer.counts(), &untraced, &traced, pool_threads);
        let detail = item_detail(w, &traced);
        (
            metrics,
            detail,
            untraced.into_iter().chain(traced).collect(),
        )
    };
    w.self_check(&mut checks);

    for (name, secs, ops) in &detail {
        if *ops > 1 {
            eprintln!(
                "  {name:<34} {:>10.3} ms  {:>10.1} ns/op",
                secs * 1e3,
                secs * 1e9 / *ops as f64
            );
        } else {
            eprintln!("  {name:<34} {:>10.3} ms", secs * 1e3);
        }
    }
    let stamp = host::stamp_json(
        &args.workload,
        args.seed,
        args.trace,
        &load_start,
        &host::loadavg(),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics_json(&metrics)
    );
    let items: Vec<String> = detail
        .iter()
        .map(|(name, secs, ops)| {
            format!("{{\"item\": \"{name}\", \"median_s\": {secs}, \"ops\": {ops}}}")
        })
        .collect();
    write_out(
        &format!("{}-{}.json", args.workload, if args.trace { "traced" } else { "timed" }),
        &format!(
            "{{\"stamp\": {stamp}, \"result\": {result}, \"pass_s\": {:?}, \"pass_handoffs\": {:?}, \
             \"items\": [{}]}}\n",
            secs_of(&passes),
            handoffs_of(&passes),
            items.join(", ")
        ),
    );
    println!("{stamp}");
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The host-independent counts of one traced pass: per-run kernel,
    /// trace and footprint counts, runs per pass, and the engine tallies.
    type Daggers = (Counts, f64, Tally);

    fn traced_pass(w: &mut dyn Workload, checks: &mut Checks) -> Daggers {
        let tracer = Tracer::new();
        let pass = timed_passes(w, 0.0, 1, Some(&tracer), checks).remove(0);
        let runs = Layers::derive(&tracer.spans(), 1, pass.secs).runs;
        (tracer.counts(), runs, pass.tally)
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        for workload in ["dfs-full", "dpor-revisit", "sample-r3", "mech-ops"] {
            let args = Args {
                workload: workload.to_string(),
                seed: 1,
                seconds: 1.0,
                trace: true,
                setup_probe: false,
            };
            let mut checks = Checks::default();
            let mut w = build(&args, &mut checks).expect("a known workload");
            let first = traced_pass(w.as_mut(), &mut checks);
            let second = traced_pass(w.as_mut(), &mut checks);
            assert_eq!(
                first, second,
                "{workload}: counts differ between traced passes"
            );
            assert!(first.0.runs > 0, "{workload}: no run was counted");
            assert_eq!(checks.failed, 0, "{workload}: a known-answer check failed");
        }
    }
}
