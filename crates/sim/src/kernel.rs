//! The simulation kernel: process table, ready list, timers, and the
//! scheduler loop that enforces the one-running-process invariant.

use crate::baton::{Baton, Go, Report};
use crate::ctx::Ctx;
use crate::error::{SimError, SimErrorKind};
use crate::fault::FaultRuntime;
use crate::footprint::{merge_access, Access, Footprint, ObjId, QuantumRecord};
use crate::metrics::{PidMetrics, SimMetrics};
use crate::policy::{FifoPolicy, SchedPolicy};
use crate::pool::{self, Job, PendingJob};
use crate::sim::SimConfig;
use crate::trace::{Decision, EventKind, Trace};
use crate::types::{Pid, Time};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle state of a simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessStatus {
    /// Runnable, waiting to be dispatched.
    Ready,
    /// Currently holding the CPU.
    Running,
    /// Parked on a wait queue.
    Blocked { reason: String },
    /// Sleeping until a virtual-time deadline.
    Sleeping { until: Time },
    /// Closure returned normally.
    Finished,
    /// Closure panicked.
    Panicked { message: String },
    /// Daemon cancelled at shutdown.
    Cancelled,
    /// Terminated by a fault-plan kill-point (see [`crate::FaultPlan`]).
    /// Distinct from [`ProcessStatus::Panicked`]: a kill is an injected
    /// fault, not a bug in the process closure.
    Killed,
}

impl ProcessStatus {
    /// Whether the process still exists (has not finished or died).
    pub fn is_live(&self) -> bool {
        matches!(
            self,
            ProcessStatus::Ready
                | ProcessStatus::Running
                | ProcessStatus::Blocked { .. }
                | ProcessStatus::Sleeping { .. }
        )
    }
}

/// What a pending timer does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TimerKind {
    /// Wake a sleeping process.
    Sleep,
    /// Wake a process parked with a timeout, if it is still parked in the
    /// same park "generation" (the token detects staleness).
    ParkTimeout { token: u64 },
}

/// Per-process bookkeeping.
pub(crate) struct ProcSlot {
    pub name: String,
    pub daemon: bool,
    pub status: ProcessStatus,
    pub baton: Arc<Baton<Go>>,
    /// This process's park slot as a footprint object (`park:{pid}`),
    /// built once at spawn: every park, unpark and `is_parked` probe
    /// records it, so it must not cost an allocation each time.
    pub park_obj: ObjId,
    /// The process body, queued until the kernel first dispatches this
    /// process: the first dispatch hands it to a pooled host thread (see
    /// [`crate::pool`]) instead of sending `Go::Run`. `None` once
    /// dispatched — and always `None` in legacy mode
    /// ([`SimConfig::reuse_hosts`]` == false`), where a dedicated thread
    /// is spawned eagerly and waits on the baton as the seed kernel did.
    pub pending: Option<PendingJob>,
    /// Incremented at every park; timeout timers carry the token of the
    /// park they belong to so stale timers are ignored.
    pub park_token: u64,
    /// Set when the last park ended by timeout rather than unpark.
    pub timed_out: bool,
    /// Set when a fault-plan spurious wake made this process runnable
    /// without a matching unpark; [`Ctx::park`] absorbs it by re-parking.
    pub spurious_wake: bool,
    /// Start of the current *wait episode* for the starvation watchdog:
    /// `(reason, first park time)`. Re-parking on the same reason (the
    /// re-contend loop of a weak semaphore, a Mesa-style recheck) keeps the
    /// episode open, so barging starvation accumulates age even though each
    /// individual park is short. Any other stop — a yield, a sleep, a park
    /// on a different queue, finishing — closes the episode.
    pub wait_started: Option<(String, Time)>,
    /// Whether the watchdog has already flagged the current wait episode
    /// (each episode is flagged at most once).
    pub starvation_flagged: bool,
    /// When the process last became `Blocked`, for the blocked-time metric
    /// ([`crate::PidMetrics::blocked_ticks`]). Metrics bookkeeping only —
    /// never consulted by scheduling decisions.
    pub blocked_since: Option<Time>,
}

/// All mutable kernel state, guarded by one mutex.
pub(crate) struct State {
    pub procs: Vec<ProcSlot>,
    /// Runnable pids in enqueue order (index 0 waited longest).
    pub ready: Vec<Pid>,
    /// Timers: `(deadline, tiebreak, pid, kind)` min-heap.
    pub timers: BinaryHeap<Reverse<(Time, u64, Pid, TimerKind)>>,
    pub timer_tiebreak: u64,
    pub clock: Time,
    pub step: u64,
    pub running: Option<Pid>,
    pub trace: Trace,
    pub decisions: Vec<Decision>,
    pub record_sched_events: bool,
    /// Fault-plan bookkeeping (counters and fired flags).
    pub faults: FaultRuntime,
    /// Wait episodes flagged by the starvation watchdog, in flag order.
    pub starvation: Vec<StarvationFlag>,
    /// Victims aborted by deadlock recovery, in abort order.
    pub recovered: Vec<Pid>,
    /// Whether the run has stayed within the contract of the explorers'
    /// equivalence prune. Commuting a pure quantum across its siblings
    /// shifts the virtual times of the events in between by one tick, so
    /// anything time-sensitive voids the prune: setting any timer, reading
    /// the clock from a process ([`Ctx::now`]), injecting faults, or
    /// running the starvation watchdog clears this flag, and `snapshot`
    /// then strips the `pure` bit from every recorded decision.
    pub prune_safe: bool,
    /// Run-anatomy counters (see [`SimMetrics`]). Strictly
    /// non-authoritative: written throughout the run, read only by
    /// `snapshot`.
    pub metrics: SimMetrics,
    /// The previously dispatched pid, for the context-switch count.
    /// Metrics bookkeeping only.
    pub last_dispatched: Option<Pid>,
    /// Object accesses reported for the *current* quantum via
    /// [`Ctx::note_sync_obj`]; drained into a [`QuantumRecord`] when the
    /// quantum ends, cleared at each dispatch. (The coarse companion bits
    /// live in [`Shared::quantum_dirty`]/[`Shared::quantum_all`], which
    /// processes can set without taking this lock.)
    pub quantum_objs: BTreeMap<ObjId, Access>,
    /// The per-dispatch footprint log (see [`SimReport::quanta`]).
    pub quanta: Vec<QuantumRecord>,
    /// Whether to record `quanta`. On by default; the explorers force it
    /// on when their object-granular prune is enabled.
    pub record_quanta: bool,
    /// The scheduling policy consulted at contested dispatches.
    pub policy: Box<dyn SchedPolicy>,
    /// Copied from [`SimConfig::max_steps`] at construction.
    pub max_steps: u64,
    /// Copied from [`SimConfig::starvation_bound`]; kept in sync by
    /// [`crate::Sim::set_starvation_bound`].
    pub starvation_bound: Option<u64>,
    /// Copied from [`SimConfig::deadlock_recovery`]; kept in sync by
    /// [`crate::Sim::enable_deadlock_recovery`].
    pub deadlock_recovery: bool,
    /// Copied from [`SimConfig::reuse_hosts`] at construction.
    pub reuse_hosts: bool,
    /// Whether the quantum currently holding the CPU came from a
    /// *contested* dispatch. Set by `pick_and_dispatch`, consumed by
    /// `account_stop` — kernel state rather than a scheduler-loop local so
    /// phase 3 can run on whichever thread the quantum stopped on.
    pub cur_decided: bool,
    /// Index (into `decisions`) of the current quantum's scheduling
    /// decision when it was contested. `decisions.last_mut()` is *not*
    /// equivalent: a data decision ([`Ctx::choose_value`]) recorded
    /// mid-quantum appends after the dispatch's entry, so purity
    /// classification must address the dispatch decision by index.
    pub cur_sched_decision: Option<usize>,
    /// One record per [`Ctx::choose_value`] call with a contested domain,
    /// in call order: the k-th entry describes the k-th `Data`-kind entry
    /// of `decisions`. Drained into [`SimReport::data_choices`].
    pub data_choices: Vec<crate::symbolic::DataChoice>,
    /// The candidate list of the current quantum's contested dispatch
    /// (`None` for forced dispatches or when `record_quanta` is off).
    /// Same lifecycle as `cur_decided`.
    pub cur_ready: Option<Vec<Pid>>,
}

impl State {
    pub(crate) fn new(cfg: &SimConfig, faults: FaultRuntime) -> Self {
        // Capacity hints sized for the explorers' workloads: hundreds of
        // thousands of short runs, where the first few doublings of each
        // per-run vector are measurable.
        State {
            procs: Vec::with_capacity(8),
            ready: Vec::with_capacity(8),
            timers: BinaryHeap::new(),
            timer_tiebreak: 0,
            clock: Time::ZERO,
            step: 0,
            running: None,
            trace: Trace::new(),
            decisions: Vec::with_capacity(32),
            record_sched_events: cfg.record_sched_events,
            faults,
            starvation: Vec::new(),
            recovered: Vec::new(),
            prune_safe: true,
            metrics: SimMetrics::default(),
            last_dispatched: None,
            quantum_objs: BTreeMap::new(),
            quanta: Vec::with_capacity(32),
            record_quanta: cfg.record_quanta,
            policy: Box::new(FifoPolicy),
            max_steps: cfg.max_steps,
            starvation_bound: cfg.starvation_bound,
            deadlock_recovery: cfg.deadlock_recovery,
            reuse_hosts: cfg.reuse_hosts,
            cur_decided: false,
            cur_sched_decision: None,
            cur_ready: None,
            data_choices: Vec::new(),
        }
    }

    /// Closes the pid's blocked episode (if one is open) and adds its
    /// duration to the blocked-time metric. Called wherever a process
    /// stops being `Blocked`: unpark delivery, park-timeout fire, abort,
    /// spurious wake, and end-of-run finalization.
    pub(crate) fn settle_blocked_time(&mut self, pid: Pid) {
        if let Some(since) = self.procs[pid.index()].blocked_since.take() {
            self.metrics.per_pid[pid.index()].blocked_ticks += self.clock.0 - since.0;
        }
    }
}

/// One wait episode flagged by the kernel starvation watchdog: the process
/// had been waiting longer than [`crate::SimConfig::starvation_bound`]
/// quanta while other processes kept being dispatched (a bounded-bypass
/// violation, measured in the kernel rather than per-checker).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarvationFlag {
    /// The starved process.
    pub pid: Pid,
    /// Its spawn-time name.
    pub name: String,
    /// What it was waiting on (the park reason).
    pub reason: String,
    /// When the wait episode began.
    pub since: Time,
    /// When the watchdog flagged it.
    pub flagged_at: Time,
    /// `flagged_at - since`, for convenience.
    pub age: u64,
}

/// State shared between the scheduler thread and all process threads.
pub(crate) struct Shared {
    pub state: Mutex<State>,
    /// The scheduler's inbox: the running process reports here when it stops.
    pub sched_baton: Baton<Report>,
    /// Global ticket dispenser used by wait queues for FIFO ordering.
    pub tickets: AtomicU64,
    /// Set by every [`Ctx`] operation with an observable effect (and by
    /// [`Ctx::note_sync`], through which the mechanism crates report state
    /// accesses the kernel cannot see). The scheduler clears it at each
    /// dispatch and reads it back when the quantum ends, classifying the
    /// quantum as pure or not — see [`crate::Decision::pure`].
    pub quantum_dirty: AtomicBool,
    /// Set by [`Ctx::note_sync`] (the conservative fallback of the
    /// footprint contract): the current quantum may have touched *any*
    /// object, so its footprint is [`Footprint::All`] regardless of what
    /// [`State::quantum_objs`] collected. Cleared at each dispatch.
    pub quantum_all: AtomicBool,
    /// Set (before any cancellation) when the run is shutting down. Unwind
    /// guards in the mechanism crates consult this via
    /// [`Ctx::cancelling`]: a shutdown unwind is not a crash, and multiple
    /// threads unwind concurrently then, so guards must not touch shared
    /// state or the trace.
    pub cancelling: AtomicBool,
    /// Every [`crate::WaitQueue`] that has ever enqueued a process in this
    /// simulation registers its cell here (see `WaitQueue::bind`). At the
    /// end of a non-panicked run, after shutdown unwinds have dequeued all
    /// cancelled waiters, a debug assertion checks that every registered
    /// queue is empty — catching mechanisms whose timed paths leak a stale
    /// registration after `park_timeout` returns `false`.
    pub queues: Mutex<Vec<Arc<crate::waitq::QueueCell>>>,
    /// Count of *started* process bodies that have not yet returned or
    /// finished unwinding, with [`Shared::jobs_cv`] signalled when it hits
    /// zero. This gate replaces the seed's per-thread joins: `shutdown`
    /// waits on it so cancellation unwinds are complete (and pooled hosts
    /// released) before the report is snapshotted.
    pub jobs: Mutex<usize>,
    pub jobs_cv: Condvar,
    /// Whether the *inline continuation* fast path is armed for the active
    /// [`drive`] call: a stopping process runs phase 3, due timers and
    /// phase 1 itself (see [`stop_process`]) instead of waking the
    /// scheduler loop, halving the context switches per quantum. Armed
    /// whenever pooled hosts are in use and no fault plan is active — the
    /// kill hand-shake needs the scheduler loop, and legacy mode
    /// (`reuse_hosts == false`) keeps the seed protocol as the honest
    /// exploration baseline. The starvation watchdog runs inside
    /// [`pick_and_dispatch`], so it works on either side.
    pub inline: AtomicBool,
    /// The kernel pseudo-objects every run touches (see
    /// [`crate::Ctx::note_sync_obj`]), built once per simulation: the
    /// user-event trace, the ticket dispenser, and the global park order
    /// that deadlock recovery's victim choice depends on.
    pub trace_obj: ObjId,
    pub ticket_obj: ObjId,
    pub park_order_obj: ObjId,
}

impl Shared {
    pub(crate) fn new(cfg: &SimConfig, faults: FaultRuntime) -> Arc<Self> {
        Arc::new(Shared {
            state: Mutex::new(State::new(cfg, faults)),
            sched_baton: Baton::new(),
            tickets: AtomicU64::new(0),
            quantum_dirty: AtomicBool::new(false),
            quantum_all: AtomicBool::new(false),
            cancelling: AtomicBool::new(false),
            queues: Mutex::new(Vec::new()),
            jobs: Mutex::new(0),
            jobs_cv: Condvar::new(),
            inline: AtomicBool::new(false),
            trace_obj: ObjId::pseudo("trace"),
            ticket_obj: ObjId::pseudo("ticket"),
            park_order_obj: ObjId::pseudo("park"),
        })
    }

    /// Draws a fresh, strictly increasing ticket.
    pub(crate) fn fresh_ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Raises the job gate for one started process body.
    pub(crate) fn job_begin(&self) {
        *self.jobs.lock() += 1;
    }

    /// Lowers the job gate; wakes [`Shared::wait_jobs`] waiters at zero.
    pub(crate) fn job_done(&self) {
        let drained = {
            let mut jobs = self.jobs.lock();
            *jobs -= 1;
            *jobs == 0
        };
        // Notify after unlocking, as `Baton::put` does and for the same
        // reason: a waiter woken under the lock runs into the held mutex
        // and sleeps again, several µs per hand-off on one CPU. A late
        // notify is harmless: `wait_jobs` re-checks the count.
        if drained {
            self.jobs_cv.notify_all();
        }
    }

    /// Blocks until every started process body has returned or unwound.
    pub(crate) fn wait_jobs(&self) {
        let mut jobs = self.jobs.lock();
        while *jobs > 0 {
            self.jobs_cv.wait(&mut jobs);
        }
    }

    /// Registers a new process (from the builder or a running process).
    ///
    /// In the default pooled mode the body is queued in the slot and no
    /// thread is touched until the process is first dispatched (so a
    /// simulation that is built but never run engages no host at all). In
    /// legacy mode (`reuse_hosts == false`) a dedicated thread is spawned
    /// eagerly, exactly as the seed kernel did, and idles on the baton
    /// until first dispatched — kept as the honest baseline for the
    /// exploration benchmarks.
    pub(crate) fn spawn_process<F>(self: &Arc<Self>, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let baton = Arc::new(Baton::new());
        let mut body: Option<PendingJob> = Some(Box::new(f));
        let pid;
        {
            let mut st = self.state.lock();
            pid = Pid(st.procs.len() as u32);
            let pending = if st.reuse_hosts { body.take() } else { None };
            st.procs.push(ProcSlot {
                name: name.to_string(),
                daemon,
                status: ProcessStatus::Ready,
                baton: Arc::clone(&baton),
                park_obj: ObjId::pseudo(&format!("park:{pid}")),
                pending,
                park_token: 0,
                timed_out: false,
                spurious_wake: false,
                wait_started: None,
                starvation_flagged: false,
                blocked_since: None,
            });
            st.metrics.per_pid.push(PidMetrics::default());
            st.ready.push(pid);
            let clock = st.clock;
            st.trace.push(
                clock,
                pid,
                EventKind::Spawned {
                    name: name.to_string(),
                    daemon,
                },
            );
        }
        if let Some(f) = body {
            // Legacy eager spawn. The gate rises at spawn time (the thread
            // exists now) and falls when `legacy_process_main` returns,
            // cancellation included.
            self.job_begin();
            let shared = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("sim-{name}"))
                .spawn(move || legacy_process_main(shared, pid, baton, f))
                .expect("failed to spawn simulator process thread");
        }
        pid
    }
}

/// The simulation shut down while this process was parked.
///
/// Run end cancels every daemon that is still live. The cancellable park
/// ([`Ctx::park_cancellable`], and the channel crate's cancellable select
/// and recv built on it) returns this value, so a server loop ends by
/// returning; a body that returns after cancellation ends
/// [`ProcessStatus::Cancelled`] with no `Finished` event, exactly as if it
/// had unwound. Every other blocking call ([`Ctx::park`],
/// [`Ctx::yield_now`], a stop after the cancellation was ignored) turns it
/// into an unwind carrying this type as the payload, which the kernel
/// catches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl Cancelled {
    /// Turns the value back into the shutdown unwind the kernel expects
    /// of a process that does not return: the unwinding blocking calls
    /// ([`Ctx::park`], the channel crate's `select`) are this applied to
    /// their cancellable forms.
    pub fn unwind(self) -> ! {
        // `resume_unwind` (not `panic_any`) so the panic hook stays
        // silent: a cancellation is not an error.
        std::panic::resume_unwind(Box::new(self))
    }
}

/// Marker payload used to unwind a process thread at a fault-plan
/// kill-point. Unlike [`Cancelled`], the scheduler *is* waiting for the
/// unwind to complete (guards may release or poison primitives) and the
/// process is recorded as [`ProcessStatus::Killed`].
struct KilledMarker;

/// Marker payload used to unwind a deadlock-recovery victim. Identical in
/// mechanics to [`KilledMarker`] — the scheduler waits for the unwind, drop
/// guards roll registrations back — but the process is recorded as
/// [`ProcessStatus::Cancelled`]: an abort is a recovery action, not a crash.
struct AbortedMarker;

/// Entry point of a legacy (`reuse_hosts == false`) per-process thread:
/// the seed protocol, waiting on the baton for its first command.
fn legacy_process_main(shared: Arc<Shared>, pid: Pid, baton: Arc<Baton<Go>>, f: PendingJob) {
    match baton.take() {
        Go::Cancel => {}
        Go::Run => run_process(&shared, pid, baton, f),
        // A kill-point counts scheduling points, and a process that has
        // never run has none, so a kill cannot be its first command.
        Go::Kill => unreachable!("kill delivered to a never-dispatched process"),
        // Deadlock recovery only aborts *blocked* processes, which have run.
        Go::Abort => unreachable!("abort delivered to a never-dispatched process"),
    }
    shared.job_done();
}

/// Runs one process body to completion on the current thread — a pooled
/// host (see [`crate::pool`]) or a legacy per-process thread — and reports
/// how it ended. The caller has already been dispatched: unlike the seed
/// protocol there is no initial `Go::Run` wait in the pooled path (the job
/// handoff *is* the first dispatch).
pub(crate) fn run_process(shared: &Arc<Shared>, pid: Pid, baton: Arc<Baton<Go>>, f: PendingJob) {
    let ctx = Ctx::new(Arc::clone(shared), pid, baton);
    let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
    match result {
        // Cancelled by return: the body saw `Cancelled` from a park and
        // returned. Only cancelled processes run once shutdown has begun,
        // and, as for a shutdown unwind, the scheduler is not waiting for
        // a report.
        Ok(()) if shared.cancelling.load(Ordering::SeqCst) => {}
        Ok(()) => {
            // Finished goes through `stop_process` so the inline
            // continuation path can account the finish and dispatch the
            // next process without bouncing through the scheduler loop.
            match stop_process(shared, pid, Report::Finished) {
                StopOutcome::Handed => {}
                StopOutcome::SelfResume => {
                    unreachable!("a finished process cannot be re-picked")
                }
            }
        }
        Err(payload) => {
            if payload.is::<Cancelled>() {
                // Shutdown unwind: the scheduler is not waiting for a
                // report. Counted so the cancel-by-return fast path can be
                // pinned (`SimMetrics::shutdown_unwinds`).
                shared.state.lock().metrics.shutdown_unwinds += 1;
                return;
            }
            if payload.is::<KilledMarker>() {
                // Kill-point unwind complete (all drop guards have run);
                // the scheduler is blocked waiting for exactly this report.
                shared.sched_baton.put(Report::Killed);
                return;
            }
            if payload.is::<AbortedMarker>() {
                // Deadlock-recovery unwind complete; the scheduler is
                // blocked waiting for exactly this report.
                shared.sched_baton.put(Report::Aborted);
                return;
            }
            let message = panic_message(payload);
            shared.sched_baton.put(Report::Panicked { pid, message });
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Called by a stopped process when its baton yields a command: `Run`
/// resumes it, a shutdown cancellation is returned as [`Cancelled`], and
/// a kill or an abort unwinds the process thread so its drop guards run.
pub(crate) fn obey(go: Go) -> Result<(), Cancelled> {
    match go {
        Go::Run => Ok(()),
        Go::Cancel => Err(Cancelled),
        // `resume_unwind` (not `panic_any`) so the panic hook stays silent:
        // an injected kill is not an error.
        Go::Kill => std::panic::resume_unwind(Box::new(KilledMarker)),
        Go::Abort => std::panic::resume_unwind(Box::new(AbortedMarker)),
    }
}

/// Summary of one process at the end of a run.
#[derive(Debug, Clone)]
pub struct ProcessSummary {
    /// The process id.
    pub pid: Pid,
    /// The name given at spawn time.
    pub name: String,
    /// Whether the process was a daemon.
    pub daemon: bool,
    /// Final status.
    pub status: ProcessStatus,
}

/// Everything recorded about one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The full ordered event log.
    pub trace: Trace,
    /// Every contested scheduling decision, in order (replay coordinates).
    pub decisions: Vec<Decision>,
    /// Number of dispatches performed.
    pub steps: u64,
    /// Virtual time at which the run ended.
    pub final_time: Time,
    /// Final status of every process.
    pub processes: Vec<ProcessSummary>,
    /// Wait episodes flagged by the starvation watchdog (empty unless
    /// [`crate::SimConfig::starvation_bound`] was set), in flag order.
    pub starvation: Vec<StarvationFlag>,
    /// Victims aborted by deadlock recovery (empty unless
    /// [`crate::SimConfig::deadlock_recovery`] was enabled), in abort
    /// order. These processes end with status
    /// [`ProcessStatus::Cancelled`], not [`ProcessStatus::Killed`].
    pub recovered: Vec<Pid>,
    /// Whether the run stayed within the contract of the explorers'
    /// equivalence prune (no timers, no process-visible clock reads, no
    /// faults, no starvation watchdog). When `false`, every
    /// [`Decision::pure`] bit has been forced to `false`, so explorers need
    /// not consult this field separately.
    pub prune_safe: bool,
    /// Run-anatomy counters (dispatches, parks/wakes by reason, queue
    /// high-water marks, per-mechanism sync ops, replay divergence).
    /// Strictly non-authoritative: recorded on every run, never consulted
    /// by scheduling. See [`SimMetrics`] and [`crate::export`].
    pub metrics: SimMetrics,
    /// Per-dispatch access footprints in dispatch order (empty when
    /// [`crate::SimConfig::record_quanta`] is off). Records whose `ready`
    /// is `Some` align 1:1 with the `Sched`-kind entries of `decisions`
    /// (data decisions happen *inside* a quantum and have no record of
    /// their own); when the run was not `prune_safe`, every footprint has
    /// been forced to [`Footprint::All`] so the explorers' dependency
    /// analysis can never act on footprints a timer or fault may have
    /// invalidated.
    pub quanta: Vec<QuantumRecord>,
    /// One record per contested [`crate::Ctx::choose_value`] call, in call
    /// order: the k-th entry describes the k-th `Data`-kind entry of
    /// `decisions` — its label, domain, the value taken, and every
    /// comparison the run made against the drawn [`crate::SymValue`].
    /// The revisit explorer partitions each domain by these constraint
    /// outcomes to collapse equivalent valuations (DESIGN.md §2.15).
    pub data_choices: Vec<crate::symbolic::DataChoice>,
}

impl SimReport {
    /// The name of the process with the given pid.
    pub fn name_of(&self, pid: Pid) -> &str {
        &self.processes[pid.index()].name
    }

    /// Pids of processes terminated by fault-plan kill-points, in pid order.
    pub fn killed(&self) -> Vec<Pid> {
        self.processes
            .iter()
            .filter(|p| p.status == ProcessStatus::Killed)
            .map(|p| p.pid)
            .collect()
    }
}

fn snapshot(st: &mut State) -> SimReport {
    let mut decisions = std::mem::take(&mut st.decisions);
    let mut quanta = std::mem::take(&mut st.quanta);
    if !st.prune_safe {
        // A pure quantum commutes with its siblings only up to a one-tick
        // shift of the intervening virtual times; once anything in the run
        // was time-sensitive, no decision may be treated as prunable.
        for d in &mut decisions {
            d.pure = false;
        }
        // Same hardening for the footprint log: timers and faults act
        // outside any quantum, so recorded footprints understate what a
        // quantum's reordering could perturb. Forcing them to `All` makes
        // the explorers' sleep-set analysis self-disable for this run.
        for q in &mut quanta {
            q.footprint = Footprint::All;
        }
    }
    // Metrics finalization: close the blocked episodes of processes that
    // never woke (deadlock victims, shutdown-cancelled waiters) and read
    // the policy's replay-divergence verdict.
    let still_blocked: Vec<Pid> = st
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p.status, ProcessStatus::Blocked { .. }))
        .map(|(i, _)| Pid(i as u32))
        .collect();
    for pid in still_blocked {
        st.settle_blocked_time(pid);
    }
    st.metrics.replay = st.policy.replay_divergence().unwrap_or_default();
    // Release the policy on *this* thread, now that the run is over and it
    // can never be consulted again. The kernel state itself is freed when
    // the last `Arc<Shared>` drops, which can be a beat later on a pooled
    // host thread (it holds its job's Arc until after it lowers the job
    // gate) — and policies may own caller-visible resources (e.g. the PCT
    // sampler's shared change-depth histogram) whose release callers
    // rightly expect to have happened once the run returns.
    st.policy = Box::new(FifoPolicy);
    SimReport {
        trace: std::mem::take(&mut st.trace),
        decisions,
        steps: st.step,
        final_time: st.clock,
        processes: st
            .procs
            .iter()
            .map(|p| ProcessSummary {
                pid: Pid(0), // patched below
                name: p.name.clone(),
                daemon: p.daemon,
                status: p.status.clone(),
            })
            .enumerate()
            .map(|(i, mut s)| {
                s.pid = Pid(i as u32);
                s
            })
            .collect(),
        starvation: std::mem::take(&mut st.starvation),
        recovered: std::mem::take(&mut st.recovered),
        prune_safe: st.prune_safe,
        metrics: std::mem::take(&mut st.metrics),
        quanta,
        data_choices: std::mem::take(&mut st.data_choices),
    }
}

/// Result of the phase-1 dispatch tail ([`pick_and_dispatch`]): the
/// chosen process, with all dispatch bookkeeping done.
struct Picked {
    next: Pid,
    baton: Arc<Baton<Go>>,
    pending: Option<PendingJob>,
}

/// The dispatch tail of phase 1, shared by the scheduler loop and the
/// inline continuation path ([`stop_process`]): consult the policy (or
/// take the forced pick), record the decision and the candidate snapshot,
/// and perform every per-dispatch state mutation. The caller has already
/// established that `ready` is non-empty, the run is not terminal, and the
/// step budget has room.
fn pick_and_dispatch(st: &mut State) -> Picked {
    let idx = if st.ready.len() == 1 {
        st.cur_decided = false;
        st.cur_sched_decision = None;
        0
    } else {
        st.cur_decided = true;
        // The trait contract promises policies at least two candidates at
        // a contested dispatch; assert the kernel keeps that promise (the
        // len == 1 arm above handles the forced case, and an empty ready
        // list never reaches here).
        debug_assert!(
            st.ready.len() >= 2,
            "policy consulted with {} candidates",
            st.ready.len()
        );
        let step = st.step;
        let arity = st.ready.len() as u32;
        let state = &mut *st;
        let pick = state
            .policy
            .choose(&state.ready, step)
            .min(state.ready.len() - 1);
        st.cur_sched_decision = Some(st.decisions.len());
        st.decisions.push(Decision::sched(arity, pick as u32));
        pick
    };
    // Footprint bookkeeping for the quantum about to run: remember the
    // candidate list of a contested dispatch (index c is what sibling
    // choice c would have dispatched) and reset the per-quantum access
    // collection.
    st.cur_ready = if st.cur_decided && st.record_quanta {
        Some(st.ready.clone())
    } else {
        None
    };
    st.quantum_objs.clear();
    let next = st.ready.remove(idx);
    st.clock = st.clock.plus(1);
    st.step += 1;
    st.running = Some(next);
    st.procs[next.index()].status = ProcessStatus::Running;
    // Run-anatomy metrics (non-authoritative; nothing below reads them
    // back).
    st.metrics.dispatches += 1;
    if st.last_dispatched != Some(next) {
        st.metrics.context_switches += 1;
    }
    st.last_dispatched = Some(next);
    st.metrics.per_pid[next.index()].dispatches += 1;
    st.metrics.per_pid[next.index()].run_ticks += 1;
    // Starvation watchdog: a dispatch means *somebody* is making progress;
    // any non-daemon still blocked whose current wait episode is older
    // than the bound has been bypassed that whole time. Flag it (once per
    // episode) — detection, not recovery. Runs on whichever thread made
    // the pick: the scheduler loop or an inline continuation.
    if let Some(bound) = st.starvation_bound {
        let clock = st.clock;
        let mut flagged = Vec::new();
        for (i, p) in st.procs.iter_mut().enumerate() {
            if p.daemon
                || p.starvation_flagged
                || !matches!(p.status, ProcessStatus::Blocked { .. })
            {
                continue;
            }
            let Some((reason, since)) = &p.wait_started else {
                continue;
            };
            let age = clock.0 - since.0;
            if age > bound {
                flagged.push(StarvationFlag {
                    pid: Pid(i as u32),
                    name: p.name.clone(),
                    reason: reason.clone(),
                    since: *since,
                    flagged_at: clock,
                    age,
                });
                p.starvation_flagged = true;
            }
        }
        for flag in flagged {
            st.trace.push(
                clock,
                flag.pid,
                EventKind::StarvationFlagged { age: flag.age },
            );
            st.starvation.push(flag);
        }
    }
    if st.record_sched_events {
        let clock = st.clock;
        st.trace.push(clock, next, EventKind::Scheduled);
    }
    Picked {
        baton: Arc::clone(&st.procs[next.index()].baton),
        pending: st.procs[next.index()].pending.take(),
        next,
    }
}

/// Phase 2: hands the CPU to `next` (without holding the state lock). The
/// first dispatch of a pooled process hands its queued body to a host
/// thread; every later dispatch sends `Go::Run`.
fn hand_cpu(shared: &Arc<Shared>, next: Pid, baton: Arc<Baton<Go>>, pending: Option<PendingJob>) {
    shared.quantum_dirty.store(false, Ordering::Relaxed);
    shared.quantum_all.store(false, Ordering::Relaxed);
    match pending {
        Some(f) => {
            shared.job_begin();
            pool::dispatch(Job {
                shared: Arc::clone(shared),
                pid: next,
                baton,
                f,
            });
        }
        None => baton.put(Go::Run),
    }
}

/// The read-side of phase 3, shared by the scheduler loop and the inline
/// continuation path: classify the just-ended quantum's purity and record
/// its footprint. Consumes `cur_decided`/`cur_ready` (set at dispatch).
fn account_stop(shared: &Shared, st: &mut State, pid: Pid, report: &Report) {
    st.running = None;
    // Purity classification (see `Decision::pure`): the quantum must have
    // touched nothing observable and stopped with a plain yield. A pure
    // *finish* is also a stutter, except when daemons exist — deferring
    // the last non-daemon's finish would give a daemon an extra quantum,
    // which is an observably different schedule.
    if st.cur_decided {
        let dirty = shared.quantum_dirty.load(Ordering::Relaxed);
        let pure = !dirty
            && match report {
                Report::Yielded => true,
                Report::Finished => !st.procs.iter().any(|p| p.daemon),
                _ => false,
            };
        if pure {
            // Addressed by index, not `last_mut`: a `choose_value` call
            // inside the quantum appends data decisions after the
            // dispatch's entry (and itself marks the quantum dirty, so
            // this branch is then unreachable — the index is still the
            // only correct target).
            if let Some(i) = st.cur_sched_decision {
                st.decisions[i].pure = true;
            }
        }
    }
    // Footprint log: drain what the quantum reported, add the
    // kernel-implicit accesses, and record. A parking quantum writes its
    // own park slot (the same pseudo-object `Ctx::is_parked` reads and
    // `Ctx::unpark` writes); under deadlock recovery it also writes the
    // global `park` pseudo-object, because the victim choice depends on
    // the relative order in which *any* two processes blocked, so park
    // quanta must never be commuted then.
    if st.record_quanta {
        let ready_snapshot = st.cur_ready.take();
        let mut objs = if shared.quantum_all.load(Ordering::Relaxed) {
            None
        } else {
            Some(std::mem::take(&mut st.quantum_objs))
        };
        if matches!(report, Report::Parked { .. } | Report::ParkedTimeout { .. }) {
            if let Some(objs) = objs.as_mut() {
                merge_access(objs, st.procs[pid.index()].park_obj.clone(), Access::Write);
                if st.deadlock_recovery {
                    merge_access(objs, shared.park_order_obj.clone(), Access::Write);
                }
            }
        }
        let footprint = match objs {
            None => Footprint::All,
            Some(map) => Footprint::Objs(map),
        };
        st.quanta.push(QuantumRecord {
            pid,
            footprint,
            ready: ready_snapshot,
        });
    }
}

/// The write-side of phase 3 for the ordinary stop reports: apply the
/// status transition and its bookkeeping. The terminal reports (Panicked,
/// and the Killed/Aborted hand-shake acknowledgements) never reach here.
fn apply_stop(st: &mut State, pid: Pid, report: Report) {
    let clock = st.clock;
    match report {
        Report::Yielded => {
            let slot = &mut st.procs[pid.index()];
            slot.status = ProcessStatus::Ready;
            slot.wait_started = None;
            slot.starvation_flagged = false;
            st.ready.push(pid);
            if st.record_sched_events {
                st.trace.push(clock, pid, EventKind::Yielded);
            }
        }
        Report::Parked { reason } => {
            // The Blocked trace event was already pushed by Ctx::park so
            // that it is ordered before any subsequent unpark.
            SimMetrics::bump(&mut st.metrics.parks, &reason);
            let slot = &mut st.procs[pid.index()];
            // Watchdog bookkeeping: re-parking on the same reason (a
            // re-contend or recheck loop) continues the current wait
            // episode; anything else starts a fresh one.
            match &slot.wait_started {
                Some((r, _)) if *r == reason => {}
                _ => {
                    slot.wait_started = Some((reason.clone(), clock));
                    slot.starvation_flagged = false;
                }
            }
            slot.status = ProcessStatus::Blocked { reason };
            slot.park_token += 1;
            slot.timed_out = false;
            slot.blocked_since = Some(clock);
            // Fault plane: a spurious wake makes the process runnable
            // again with no matching unpark; Ctx::park absorbs it. (An
            // active fault plan disarms the inline path, so this only
            // ever runs on the scheduler loop.)
            if st.faults.active() {
                let name = st.procs[pid.index()].name.clone();
                if st.faults.on_park(pid, &name) {
                    st.settle_blocked_time(pid);
                    let slot = &mut st.procs[pid.index()];
                    slot.status = ProcessStatus::Ready;
                    slot.spurious_wake = true;
                    st.ready.push(pid);
                    st.trace.push(clock, pid, EventKind::SpuriousWake);
                }
            }
        }
        Report::ParkedTimeout { reason, ticks } => {
            st.prune_safe = false; // timers are time-sensitive: no prune
            SimMetrics::bump(&mut st.metrics.parks, &reason);
            let until = clock.plus(ticks);
            let slot = &mut st.procs[pid.index()];
            match &slot.wait_started {
                Some((r, _)) if *r == reason => {}
                _ => {
                    slot.wait_started = Some((reason.clone(), clock));
                    slot.starvation_flagged = false;
                }
            }
            slot.status = ProcessStatus::Blocked { reason };
            slot.park_token += 1;
            slot.timed_out = false;
            slot.blocked_since = Some(clock);
            let token = slot.park_token;
            let tiebreak = st.timer_tiebreak;
            st.timer_tiebreak += 1;
            st.timers.push(Reverse((
                until,
                tiebreak,
                pid,
                TimerKind::ParkTimeout { token },
            )));
        }
        Report::Slept { ticks } => {
            st.prune_safe = false; // timers are time-sensitive: no prune
            let until = clock.plus(ticks);
            let slot = &mut st.procs[pid.index()];
            slot.wait_started = None;
            slot.starvation_flagged = false;
            slot.status = ProcessStatus::Sleeping { until };
            let tiebreak = st.timer_tiebreak;
            st.timer_tiebreak += 1;
            st.timers
                .push(Reverse((until, tiebreak, pid, TimerKind::Sleep)));
            if st.record_sched_events {
                st.trace.push(clock, pid, EventKind::Slept { until });
            }
        }
        Report::Finished => {
            let slot = &mut st.procs[pid.index()];
            slot.wait_started = None;
            slot.status = ProcessStatus::Finished;
            if st.record_sched_events {
                st.trace.push(clock, pid, EventKind::Finished);
            }
        }
        Report::Panicked { .. } | Report::Killed | Report::Aborted | Report::Rescan => {
            unreachable!("terminal report in apply_stop")
        }
    }
}

/// Fires due timers while the ready list is empty, jumping the clock
/// forward as often as needed: a batch may consist entirely of stale
/// timers, in which case the next deadline must be tried too. Leaves the
/// ready list empty only if no timer is pending. Shared by the scheduler
/// loop's phase 1 and the inline continuation ([`stop_process`]).
fn fire_timers(st: &mut State) {
    while st.ready.is_empty() {
        let Some(&Reverse((deadline, _, _, _))) = st.timers.peek() else {
            break;
        };
        if deadline > st.clock {
            st.clock = deadline;
        }
        while let Some(&Reverse((d, _, pid, kind))) = st.timers.peek() {
            if d > st.clock {
                break;
            }
            st.timers.pop();
            let fire = match kind {
                TimerKind::Sleep => {
                    matches!(st.procs[pid.index()].status, ProcessStatus::Sleeping { .. })
                }
                TimerKind::ParkTimeout { token } => {
                    let slot = &st.procs[pid.index()];
                    slot.park_token == token && matches!(slot.status, ProcessStatus::Blocked { .. })
                }
            };
            if !fire {
                continue; // stale timer from an earlier park/sleep
            }
            if let TimerKind::ParkTimeout { .. } = kind {
                st.procs[pid.index()].timed_out = true;
                if let ProcessStatus::Blocked { reason } = &st.procs[pid.index()].status {
                    SimMetrics::bump(&mut st.metrics.timeout_wakes, reason);
                }
                st.settle_blocked_time(pid);
            }
            st.procs[pid.index()].status = ProcessStatus::Ready;
            st.ready.push(pid);
            if st.record_sched_events {
                let clock = st.clock;
                st.trace.push(clock, pid, EventKind::TimerFired);
            }
        }
    }
}

/// Where the CPU went after a [`stop_process`] call.
pub(crate) enum StopOutcome {
    /// The inline continuation picked the stopping process right back:
    /// keep running, zero hand-offs. A yield lands here when the policy
    /// re-picks it; a sleep or a timed park when its own timer fired with
    /// no other process ready.
    SelfResume,
    /// The CPU went elsewhere — to the next process directly, or back to
    /// the scheduler loop via [`Report::Rescan`]. A still-live caller must
    /// now wait on its own baton.
    Handed,
}

/// A running process stops here (yield, park, sleep, finish).
///
/// In the seed protocol every stop wakes the scheduler loop, which does
/// phase 3 (account the stop) and phase 1 (fire due timers, pick next)
/// and then wakes the chosen process: two thread hand-offs per quantum
/// even when the pick is forced. When [`Shared::inline`] is armed, the
/// stopping process instead runs both phases itself under the state lock
/// — the one-running-process invariant makes it the only executing
/// process, so the state it sees and the mutations it applies are exactly
/// the ones the scheduler loop would have seen and applied, in the same
/// order, starvation watchdog included — and hands the CPU directly to
/// the next process (or keeps it, if the pick comes back to itself). The
/// scheduler loop stays parked in `sched_baton.take()` the whole time and
/// is only woken, via [`Report::Rescan`], for the cases it alone can
/// handle: run termination, deadlock detection and recovery, and the step
/// budget.
pub(crate) fn stop_process(shared: &Arc<Shared>, pid: Pid, report: Report) -> StopOutcome {
    if !shared.inline.load(Ordering::Relaxed) {
        // Seed protocol: hand the report to the scheduler loop, which does
        // all accounting and the next dispatch.
        shared.sched_baton.put(report);
        return StopOutcome::Handed;
    }
    let mut st = shared.state.lock();
    // Phase 3 inline. The kill-point check of the scheduler loop is
    // soundly skipped: an active fault plan never arms the inline path.
    account_stop(shared, &mut st, pid, &report);
    apply_stop(&mut st, pid, report);
    // Phase 1 inline, in the scheduler loop's order: termination, due
    // timers, deadlock, step budget, pick. Defer to the loop for all but
    // the timers and the pick; it re-runs phase 1 from scratch (firing
    // nothing twice, and never phase 3 — Rescan tells it so).
    let terminated = st.procs.iter().all(|p| p.daemon || !p.status.is_live());
    if !terminated {
        fire_timers(&mut st);
    }
    if terminated || st.ready.is_empty() || st.step >= st.max_steps {
        drop(st);
        shared.sched_baton.put(Report::Rescan);
        return StopOutcome::Handed;
    }
    let Picked {
        next,
        baton,
        pending,
    } = pick_and_dispatch(&mut st);
    if next == pid {
        // Picked right back: skip both hand-offs (see `SelfResume`).
        // The caller is running, so its body was dispatched long ago.
        debug_assert!(pending.is_none());
        st.metrics.self_resumes += 1;
        drop(st);
        shared.quantum_dirty.store(false, Ordering::Relaxed);
        shared.quantum_all.store(false, Ordering::Relaxed);
        return StopOutcome::SelfResume;
    }
    drop(st);
    hand_cpu(shared, next, baton, pending);
    StopOutcome::Handed
}

/// The scheduler loop. Runs on the thread that called [`crate::Sim::run`]
/// and returns the finished run.
pub(crate) fn drive(shared: &Arc<Shared>) -> Result<SimReport, SimError> {
    let error: Option<SimErrorKind>;
    {
        // Static prune-safety gate: fault plans reorder effects around kill
        // points and the starvation watchdog's verdicts depend on absolute
        // wait ages, so both void the commutation argument behind
        // `Decision::pure` for the whole run.
        let mut st = shared.state.lock();
        if st.faults.active() || st.starvation_bound.is_some() {
            st.prune_safe = false;
        }
        // Arm the inline continuation fast path (see `stop_process`).
        // Fault plans need the kill/spurious hand-shakes of the scheduler
        // loop, and legacy mode keeps the seed protocol byte-for-byte.
        // The starvation watchdog does not disarm it: its check is part of
        // every dispatch, on whichever thread makes the pick.
        let inline = st.reuse_hosts && !st.faults.active();
        shared.inline.store(inline, Ordering::Relaxed);
    }
    loop {
        // Phase 1: pick the next process (or detect termination/deadlock).
        let next: Pid;
        let baton: Arc<Baton<Go>>;
        let pending: Option<PendingJob>;
        {
            let mut st = shared.state.lock();
            // The run is complete once no non-daemon process is live, even
            // if daemon processes are still runnable or sleeping.
            if st.procs.iter().all(|p| p.daemon || !p.status.is_live()) {
                error = None;
                break;
            }
            fire_timers(&mut st);
            if st.ready.is_empty() {
                let blocked: Vec<(Pid, String, String)> = st
                    .procs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| match &p.status {
                        ProcessStatus::Blocked { reason } if !p.daemon => {
                            Some((Pid(i as u32), p.name.clone(), reason.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                if st.deadlock_recovery && !blocked.is_empty() {
                    // Deadlock recovery: abort one victim through the same
                    // unwind machinery as a fault-plan kill, so its RAII
                    // guards roll registrations back (releasing permits,
                    // dequeuing, poisoning held monitors), then resume
                    // scheduling — the rollback may have unparked survivors.
                    // Each abort removes one live non-daemon, so the loop
                    // terminates even if the survivors deadlock again.
                    //
                    // Victim choice: the most recently blocked process (its
                    // wait episode started last, so the least progress is
                    // discarded); ties broken by pid. Deterministic, and it
                    // adds no scheduling decision, so exploration and replay
                    // are unaffected.
                    let &(victim, _, _) = blocked
                        .iter()
                        .max_by_key(|(pid, _, _)| {
                            let since = st.procs[pid.index()]
                                .wait_started
                                .as_ref()
                                .map_or(Time::ZERO, |&(_, t)| t);
                            (since, *pid)
                        })
                        .expect("non-empty blocked list");
                    let clock = st.clock;
                    // The Aborted event goes in *before* the unwind so that
                    // poison events emitted by drop guards follow it.
                    st.trace.push(clock, victim, EventKind::Aborted);
                    st.recovered.push(victim);
                    let victim_baton = Arc::clone(&st.procs[victim.index()].baton);
                    // The unwind's guard effects (releases, poisons, wakes)
                    // are accounted to a bookkeeping quantum of the victim,
                    // recorded below; reset the footprint marks first.
                    st.quantum_objs.clear();
                    let record_abort = st.record_quanta;
                    drop(st);
                    shared.quantum_dirty.store(false, Ordering::Relaxed);
                    shared.quantum_all.store(false, Ordering::Relaxed);
                    // The victim is blocked in `obey(baton.take())`; while it
                    // unwinds it is the only executing process, exactly as in
                    // the kill hand-shake above.
                    victim_baton.put(Go::Abort);
                    let ack = shared.sched_baton.take();
                    let mut st = shared.state.lock();
                    st.metrics.loop_wakes += 1;
                    match ack {
                        Report::Aborted => {}
                        Report::Panicked { message, .. } => {
                            st.procs[victim.index()].status = ProcessStatus::Panicked {
                                message: message.clone(),
                            };
                            drop(st);
                            shutdown(shared);
                            let mut st = shared.state.lock();
                            let report = snapshot(&mut st);
                            return Err(SimError {
                                kind: SimErrorKind::ProcessPanicked {
                                    pid: victim,
                                    message,
                                },
                                report: Box::new(report),
                            });
                        }
                        _ => unreachable!("abort unwind reports Aborted or Panicked"),
                    }
                    // Record the unwind as a forced bookkeeping quantum of
                    // the victim so the sleep-set walk sees its effects
                    // (`ready: None` keeps it out of the decision
                    // alignment). The victim also leaves the blocked set,
                    // which is a write of its park slot and of the global
                    // `park` order object.
                    if record_abort {
                        let mut objs = if shared.quantum_all.load(Ordering::Relaxed) {
                            None
                        } else {
                            Some(std::mem::take(&mut st.quantum_objs))
                        };
                        if let Some(objs) = objs.as_mut() {
                            merge_access(
                                objs,
                                st.procs[victim.index()].park_obj.clone(),
                                Access::Write,
                            );
                            merge_access(objs, shared.park_order_obj.clone(), Access::Write);
                        }
                        let footprint = match objs {
                            None => Footprint::All,
                            Some(map) => Footprint::Objs(map),
                        };
                        st.quanta.push(QuantumRecord {
                            pid: victim,
                            footprint,
                            ready: None,
                        });
                    }
                    // Cancelled, not Killed: an abort is a recovery action,
                    // not a crash. The body has returned (gate lowered).
                    st.settle_blocked_time(victim);
                    st.procs[victim.index()].status = ProcessStatus::Cancelled;
                    st.procs[victim.index()].wait_started = None;
                    continue;
                }
                error = if blocked.is_empty() {
                    None // Only daemons (or nothing) remain: clean completion.
                } else {
                    Some(SimErrorKind::Deadlock { blocked })
                };
                break;
            }
            if st.step >= st.max_steps {
                error = Some(SimErrorKind::MaxStepsExceeded {
                    limit: st.max_steps,
                });
                break;
            }
            let picked = pick_and_dispatch(&mut st);
            next = picked.next;
            baton = picked.baton;
            pending = picked.pending;
        }

        // Phase 2: hand over the CPU and wait for a report. Under the
        // inline continuation path the running processes account their own
        // stops and hand the CPU among themselves; the take() below then
        // spans many quanta and only returns for a deferral (Rescan) or a
        // panic.
        hand_cpu(shared, next, baton, pending);
        let report = shared.sched_baton.take();
        let mut st = shared.state.lock();
        st.metrics.loop_wakes += 1;
        if matches!(report, Report::Rescan) {
            // The stop was already accounted inline; re-run phase 1 only.
            continue;
        }

        // Phase 3: account for how it stopped. `next` identifies the
        // stopping process except for an inline-mode panic, where the
        // loop's last dispatch is stale — the report carries the pid.
        let stop_pid = match &report {
            Report::Panicked { pid, .. } => *pid,
            _ => next,
        };
        account_stop(shared, &mut st, stop_pid, &report);
        let clock = st.clock;
        // Fault plane: a yield/park/sleep is a scheduling point of the
        // stopping process. If the plan kills it here, the normal
        // bookkeeping for the report is skipped — the process unwinds
        // instead of ever resuming.
        let kill_due = st.faults.active()
            && matches!(
                report,
                Report::Yielded
                    | Report::Parked { .. }
                    | Report::ParkedTimeout { .. }
                    | Report::Slept { .. }
            )
            && {
                let name = st.procs[stop_pid.index()].name.clone();
                st.faults.on_stop(stop_pid, &name)
            };
        if kill_due {
            // The Killed event goes in *before* the unwind so that poison
            // events emitted by drop guards follow it in the trace.
            st.trace.push(clock, stop_pid, EventKind::Killed);
            let baton = Arc::clone(&st.procs[stop_pid.index()].baton);
            drop(st);
            // The victim is blocked in `obey(baton.take())`; Go::Kill makes
            // it unwind. While it unwinds it is the only executing process
            // (the scheduler blocks on the report), so drop guards may
            // lock state, emit trace events, and try_unpark — but must
            // never park or panic.
            baton.put(Go::Kill);
            let ack = shared.sched_baton.take();
            let mut st = shared.state.lock();
            st.metrics.loop_wakes += 1;
            match ack {
                Report::Killed => {}
                Report::Panicked { message, .. } => {
                    // A drop guard panicked during the kill unwind: surface
                    // it as the mechanism bug it is.
                    st.procs[stop_pid.index()].status = ProcessStatus::Panicked {
                        message: message.clone(),
                    };
                    drop(st);
                    shutdown(shared);
                    let mut st = shared.state.lock();
                    let report = snapshot(&mut st);
                    return Err(SimError {
                        kind: SimErrorKind::ProcessPanicked {
                            pid: stop_pid,
                            message,
                        },
                        report: Box::new(report),
                    });
                }
                _ => unreachable!("kill unwind reports Killed or Panicked"),
            }
            // The victim's body has fully unwound (gate lowered).
            st.procs[stop_pid.index()].status = ProcessStatus::Killed;
            continue;
        }
        match report {
            Report::Panicked { pid, message } => {
                st.procs[pid.index()].status = ProcessStatus::Panicked {
                    message: message.clone(),
                };
                drop(st);
                shutdown(shared);
                let mut st = shared.state.lock();
                let report = snapshot(&mut st);
                return Err(SimError {
                    kind: SimErrorKind::ProcessPanicked { pid, message },
                    report: Box::new(report),
                });
            }
            // Only ever sent in response to Go::Kill, which the kill path
            // above consumes directly.
            Report::Killed => unreachable!("Killed report outside a kill hand-shake"),
            // Only ever sent in response to Go::Abort, which the deadlock
            // recovery path in phase 1 consumes directly.
            Report::Aborted => unreachable!("Aborted report outside an abort hand-shake"),
            // Consumed right after the take() above.
            Report::Rescan => unreachable!("Rescan reached phase 3"),
            other => apply_stop(&mut st, stop_pid, other),
        }
    }

    shutdown(shared);
    // Queue hygiene (the `park_timeout` stale-registration footgun): by
    // now every registration must be gone — removed by a wake, by timeout
    // self-removal, or by an unwind guard when shutdown cancelled a still-
    // parked process. A leftover entry means some timed wait path returned
    // without deregistering and the corpse would absorb a future grant.
    // Checked on every non-panicked exit (clean, deadlock, max-steps); the
    // panic paths return early above since their guards may not have run.
    #[cfg(debug_assertions)]
    for cell in shared.queues.lock().iter() {
        let waiters = cell.waiters.lock();
        assert!(
            waiters.is_empty(),
            "wait queue '{}' still holds {:?} at end of run: \
             a timed wait path leaked a stale registration",
            cell.name,
            waiters.iter().map(|w| w.pid).collect::<Vec<_>>(),
        );
    }
    let mut st = shared.state.lock();
    let report = snapshot(&mut st);
    match error {
        None => Ok(report),
        Some(kind) => Err(SimError {
            kind,
            report: Box::new(report),
        }),
    }
}

/// Cancels every still-live process and waits (via the job gate) for all
/// started process bodies to return or unwind — the seed's thread joins,
/// reformulated so it works for pooled hosts too. Idempotent: a second
/// call finds no live process, no pending body, and a zero gate.
pub(crate) fn shutdown(shared: &Arc<Shared>) {
    // Raise the flag before any cancellation: cancelled threads unwind
    // concurrently, and their drop guards check it (via Ctx::cancelling)
    // to skip crash-handling work that is only valid for a kill.
    shared.cancelling.store(true, Ordering::SeqCst);
    let mut never_started = Vec::new();
    {
        let mut st = shared.state.lock();
        for p in st.procs.iter_mut() {
            if let Some(f) = p.pending.take() {
                // Never dispatched in pooled mode: no host is engaged, so
                // there is nothing to cancel — the body is simply dropped
                // (outside the lock below; closures own arbitrary state).
                p.status = ProcessStatus::Cancelled;
                never_started.push(f);
                continue;
            }
            if p.status.is_live() {
                p.baton.put(Go::Cancel);
                p.status = ProcessStatus::Cancelled;
            }
        }
    }
    drop(never_started);
    // A cancelled body either returns (a cancellable park handed it
    // `Cancelled`) or unwinds with the `Cancelled` payload, which
    // `run_process` catches, so the gate always falls; a genuine panic was
    // already reported via the baton before the body returned.
    shared.wait_jobs();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    /// A lone sleeper: with nobody else ready, each sleep fires its own
    /// timer inline and the sleeper is re-picked on its own thread, so the
    /// loop wakes once, at the end of the run; the watchdog does not
    /// disarm this. The seed protocol reports every stop to the loop.
    #[test]
    fn lone_sleeper_resumes_itself_with_or_without_watchdog() {
        for k in [0, 1, 5] {
            for watchdog in [false, true] {
                for reuse_hosts in [true, false] {
                    let mut sim = Sim::with_config(SimConfig {
                        reuse_hosts,
                        ..SimConfig::default()
                    });
                    if watchdog {
                        sim.set_starvation_bound(3);
                    }
                    sim.spawn("sleeper", move |ctx| {
                        for _ in 0..k {
                            ctx.sleep(2);
                        }
                    });
                    let m = sim.run().expect("a lone sleeper finishes").metrics;
                    let expected = if reuse_hosts {
                        (k + 1, k, 1)
                    } else {
                        (k + 1, 0, k + 1)
                    };
                    assert_eq!(
                        (m.dispatches, m.self_resumes, m.loop_wakes),
                        expected,
                        "k={k} watchdog={watchdog} reuse_hosts={reuse_hosts}"
                    );
                }
            }
        }
    }

    /// A lone timed park expires through its own timer, fired inline: the
    /// waiter is re-picked without a hand-off and sees the timeout.
    #[test]
    fn lone_park_timeout_expires_through_a_self_resume() {
        for reuse_hosts in [true, false] {
            let mut sim = Sim::with_config(SimConfig {
                reuse_hosts,
                ..SimConfig::default()
            });
            let woken = Arc::new(AtomicBool::new(true));
            let seen = Arc::clone(&woken);
            sim.spawn("waiter", move |ctx| {
                seen.store(ctx.park_timeout("nobody", 4), Ordering::SeqCst);
            });
            let report = sim.run().expect("the timeout ends the wait");
            assert!(!woken.load(Ordering::SeqCst), "reuse_hosts={reuse_hosts}");
            let m = &report.metrics;
            assert_eq!(m.timeout_wakes["nobody"], 1);
            assert_eq!(
                report.final_time,
                Time(6),
                "dispatch, 4-tick wait, dispatch"
            );
            let expected = if reuse_hosts { (2, 1, 1) } else { (2, 0, 2) };
            assert_eq!(
                (m.dispatches, m.self_resumes, m.loop_wakes),
                expected,
                "reuse_hosts={reuse_hosts}"
            );
        }
    }

    /// `job_done` notifies after unlocking, so the count can reach zero
    /// before the notify is sent. Workers churn the gate concurrently while
    /// a waiter sits in `wait_jobs`; the test itself holds one job open, so
    /// the waiter must still be waiting after every worker has finished,
    /// and must return once that last job is done, whether the notify finds
    /// it waiting or it finds the count at zero first.
    #[test]
    fn wait_jobs_returns_only_at_zero_under_concurrent_churn() {
        const WORKERS: usize = 4;
        const CHURN: usize = 2_000;
        for _ in 0..20 {
            let shared = Shared::new(&SimConfig::default(), FaultRuntime::default());
            shared.job_begin(); // the test's own job, held open below
            for _ in 0..WORKERS {
                shared.job_begin();
            }
            let start = Arc::new(Barrier::new(WORKERS + 2));
            let returned = Arc::new(AtomicBool::new(false));
            let waiter = {
                let (shared, start, returned) = (
                    Arc::clone(&shared),
                    Arc::clone(&start),
                    Arc::clone(&returned),
                );
                thread::spawn(move || {
                    start.wait();
                    shared.wait_jobs();
                    returned.store(true, Ordering::SeqCst);
                    assert_eq!(*shared.jobs.lock(), 0, "wait_jobs returned early");
                })
            };
            let finished = Arc::new(AtomicUsize::new(0));
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    let (shared, start, finished) = (
                        Arc::clone(&shared),
                        Arc::clone(&start),
                        Arc::clone(&finished),
                    );
                    thread::spawn(move || {
                        start.wait();
                        for _ in 0..CHURN {
                            shared.job_begin();
                            shared.job_done();
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        shared.job_done();
                    })
                })
                .collect();
            start.wait();
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(finished.load(Ordering::SeqCst), WORKERS);
            assert!(
                !returned.load(Ordering::SeqCst),
                "wait_jobs returned with a job still open"
            );
            shared.job_done();
            waiter.join().unwrap();
            assert!(returned.load(Ordering::SeqCst));
        }
    }
}
