//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced pass wraps every call the benchmark makes into a layer in a
//! span: the scenario `setup` closure (problems), the explorer's or
//! sampler's `map` closure and the checker inside it (core), a kernel
//! replay (`Sim::run`), a real-thread run (`RtSim::run`). Each span keeps
//! its name, item (tree, row or cell index), run id, parent, start and
//! end. The setup, map and replay spans of one schedule share its run id.
//! Spans stay in memory and are written out when the benchmark exits;
//! [`Layers::derive`] turns them into per-layer times.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the library; nothing inside the library is instrumented.

use bloom_sim::SimReport;
use std::sync::Mutex;
use std::time::Instant;

/// Run id of spans that belong to no single run.
pub const NO_RUN: u32 = u32::MAX;
/// Parent of a root span.
const ROOT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub item: u32,
    pub run: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Host-independent per-run counts, read from each run's `SimReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub runs: u64,
    pub dispatches: u64,
    pub switches: u64,
    pub parks: u64,
    pub decisions: u64,
    pub events: u64,
    pub quanta: u64,
    pub sync_ops: u64,
}

impl Counts {
    pub fn add(&mut self, report: &SimReport) {
        let m = &report.metrics;
        self.runs += 1;
        self.dispatches += m.dispatches;
        self.switches += m.context_switches;
        self.parks += m.total_parks();
        self.decisions += report.decisions.len() as u64;
        self.events += report.trace.len() as u64;
        self.quanta += report.quanta.len() as u64;
        self.sync_ops += m.total_sync_ops();
    }

    /// Mean of a per-run total (0 when no run was counted).
    pub fn per_run(&self, total: u64) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            total as f64 / self.runs as f64
        }
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
    counts: Counts,
}

/// The span recorder of a traced run. Calls into the library are
/// sequential (one explorer or sampler worker), so one stack of open
/// spans serves every thread that records.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a traced call panicked")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next run and returns its id.
    pub fn next_run(&self) -> u32 {
        let mut st = self.lock();
        st.run += 1;
        st.run
    }

    /// The id of the run in progress.
    pub fn current_run(&self) -> u32 {
        self.lock().run
    }

    fn enter(&self, name: &'static str, item: u32, run: u32) -> u32 {
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let parent = st.open.last().copied().unwrap_or(ROOT);
        let id = st.spans.len() as u32;
        st.spans.push(Span {
            name,
            item,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        st.open.push(id);
        id
    }

    fn exit(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut st = self.lock();
        assert_eq!(st.open.pop(), Some(id), "spans must nest");
        st.spans[id as usize].end_ns = end_ns;
    }

    /// Folds one run's counts in.
    pub fn note(&self, report: &SimReport) {
        self.lock().counts.add(report);
    }

    pub fn counts(&self) -> Counts {
        self.lock().counts
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Runs `f` inside a span when tracing, or just runs it.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    item: u32,
    run: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let id = t.enter(name, item, run);
            let out = f();
            t.exit(id);
            out
        }
    }
}

/// Names of the spans that wrap one call into an engine: an exploration,
/// a sampling campaign, or one mechanism cell.
const DRIVERS: [&str; 3] = ["explore", "sample", "cell"];

/// Per-pass layer times derived from the spans of the traced passes and,
/// where the kernel runs invisibly inside an engine, of one replay pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced passes recorded.
    pub passes: usize,
    /// Median traced pass, seconds.
    pub pass_s: f64,
    /// Runs (setup calls) per pass.
    pub runs: f64,
    pub setup_s: f64,
    pub check_s: f64,
    pub check_calls: f64,
    pub kernel_s: f64,
    pub engine_s: f64,
    pub finish_s: f64,
    pub rt_s: f64,
    /// Every kernel span's duration, microseconds.
    pub kernel_runs_us: Vec<f64>,
}

impl Layers {
    /// Derives per-pass layer times. Self time is a span's duration minus
    /// its children's. The engine is the self time of the driver spans
    /// minus the replayed kernel time: a residual that also absorbs cache
    /// effects, not a measured span.
    pub fn derive(spans: &[Span], passes: usize, pass_s: f64) -> Layers {
        let mut children = vec![0.0f64; spans.len()];
        let mut last_map_end = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                children[p] += s.secs();
                if s.name == "map" {
                    last_map_end[p] = last_map_end[p].max(s.end_ns);
                }
            }
        }
        let in_replay = |s: &Span| s.parent != ROOT && spans[s.parent as usize].name == "replay";
        let mut l = Layers {
            passes,
            pass_s,
            ..Layers::default()
        };
        let (mut setup_calls, mut driver_self) = (0.0, 0.0);
        let (mut kernel_in_pass, mut kernel_replayed) = (0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            match s.name {
                "setup" => {
                    setup_calls += 1.0;
                    l.setup_s += s.secs();
                }
                "check" => {
                    l.check_calls += 1.0;
                    l.check_s += s.secs();
                }
                "rt" => l.rt_s += s.secs(),
                "kernel" => {
                    l.kernel_runs_us.push(s.secs() * 1e6);
                    if in_replay(s) {
                        kernel_replayed += s.secs();
                    } else {
                        kernel_in_pass += s.secs();
                    }
                }
                name if DRIVERS.contains(&name) => {
                    driver_self += s.secs() - children[i];
                    if last_map_end[i] > 0 {
                        l.finish_s += s.end_ns.saturating_sub(last_map_end[i]) as f64 * 1e-9;
                    }
                }
                _ => {}
            }
        }
        let k = l.passes.max(1) as f64;
        l.runs = setup_calls / k;
        l.setup_s /= k;
        l.check_s /= k;
        l.check_calls /= k;
        l.rt_s /= k;
        l.finish_s /= k;
        // The replay re-runs one pass's journals once.
        l.kernel_s = kernel_in_pass / k + kernel_replayed;
        l.engine_s = driver_self / k - kernel_replayed;
        l
    }

    /// A layer's share of the traced pass.
    pub fn share(&self, secs: f64) -> f64 {
        if self.pass_s > 0.0 {
            secs / self.pass_s
        } else {
            0.0
        }
    }

    /// Per-run mean of a per-pass time, microseconds.
    pub fn per_run_us(&self, secs: f64) -> f64 {
        if self.runs > 0.0 {
            secs / self.runs * 1e6
        } else {
            0.0
        }
    }
}

/// Spans as JSON lines: id, name, item label, run, parent, start, end.
pub fn jsonl(spans: &[Span], items: &[String]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let item = items.get(s.item as usize).map_or("", String::as_str);
        let run = if s.run == NO_RUN {
            -1
        } else {
            i64::from(s.run)
        };
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"item\":\"{item}\",\"run\":{run},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}
