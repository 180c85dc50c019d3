//! The simulation kernel: process table, ready list, timers, and the one
//! dispatch protocol that enforces the one-running-process invariant.

use crate::baton::{Baton, Go, Report};
use crate::ctx::Ctx;
use crate::error::{SimError, SimErrorKind};
use crate::fault::FaultRuntime;
use crate::footprint::{Access, ObjId, QuantumLog};
use crate::metrics::{PidMetrics, SimMetrics};
use crate::policy::{FifoPolicy, SchedPolicy};
use crate::pool::{self, Job, PendingJob};
use crate::sim::SimConfig;
use crate::trace::{Decision, EventKind, Trace};
use crate::types::{Pid, Time};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// process: the first dispatch runs it on the thread that called
    /// [`crate::Sim::run`] for the run's first pick and hands it to a
    /// pooled host thread (see [`crate::pool`]) otherwise, instead of
    /// sending `Go::Run`. `None` once dispatched.
    pub pending: Option<PendingJob>,
    /// Incremented at every park; timeout timers carry the token of the
    /// park they belong to so stale timers are ignored.
    pub park_token: u64,
    /// Set when the last park ended by timeout rather than unpark.
    pub timed_out: bool,
    /// Set when a fault-plan spurious wake made this process runnable
    /// without a matching unpark; [`Ctx::park`] absorbs it by re-parking.
    pub spurious_wake: bool,
    /// Start of the current *wait episode*, for the starvation watchdog
    /// and the deadlock-recovery victim choice. Re-parking on the same
    /// reason (the re-contend loop of a weak semaphore, a Mesa-style
    /// recheck) keeps the episode open, so barging starvation accumulates
    /// age even though each individual park is short. Any other stop — a
    /// yield, a sleep, a park on a different queue, finishing — closes the
    /// episode. Its reason is the current park's while the process is
    /// blocked, and `park_reason` once the park has ended (see
    /// [`ProcSlot::wait_episode`]).
    pub wait_since: Option<Time>,
    /// The reason of the process's last park, moved here from its
    /// `Blocked` status when the park ended ([`ProcSlot::end_park`]), so
    /// that a re-park can tell whether it continues the wait episode
    /// without the kernel copying a reason on every park. The next park
    /// moves the buffer back into its `Blocked` status
    /// ([`ProcSlot::begin_park`]), so one string serves every park.
    pub park_reason: String,
    /// Whether the watchdog has already flagged the current wait episode
    /// (each episode is flagged at most once).
    pub starvation_flagged: bool,
    /// When the process last became `Blocked`, for the blocked-time metric
    /// ([`crate::PidMetrics::blocked_ticks`]). Metrics bookkeeping only —
    /// never consulted by scheduling decisions.
    pub blocked_since: Option<Time>,
}

impl ProcSlot {
    /// The open wait episode's reason and start.
    pub(crate) fn wait_episode(&self) -> Option<(&str, Time)> {
        let since = self.wait_since?;
        let reason = match &self.status {
            ProcessStatus::Blocked { reason } => reason,
            _ => &self.park_reason,
        };
        Some((reason, since))
    }

    /// Ends the process's park with its next `status`, keeping the park's
    /// reason for the wait episode (moved, not copied).
    pub(crate) fn end_park(&mut self, status: ProcessStatus) {
        if let ProcessStatus::Blocked { reason } = std::mem::replace(&mut self.status, status) {
            self.park_reason = reason;
        }
    }

    /// Blocks the process on `reason` at `clock`. For the watchdog, the
    /// park continues the open wait episode if its last park had the same
    /// reason and opens a new one otherwise. The `Blocked` status takes
    /// the buffer the last park's reason left in `park_reason`, so a park
    /// allocates no reason once the buffer has grown to fit.
    fn begin_park(&mut self, reason: &str, clock: Time) {
        if self.wait_since.is_none() || self.park_reason != reason {
            self.wait_since = Some(clock);
            self.starvation_flagged = false;
        }
        let mut buf = std::mem::take(&mut self.park_reason);
        buf.clear();
        buf.push_str(reason);
        self.status = ProcessStatus::Blocked { reason: buf };
        self.park_token += 1;
        self.timed_out = false;
        self.blocked_since = Some(clock);
    }
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
    /// The process whose quantum is open: set at dispatch, cleared when
    /// the quantum is accounted (so `None` while a kill or abort unwinds).
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
    /// equivalence prune. Commuting two quanta shifts the virtual times of
    /// the events in between, so anything time-sensitive voids the prune:
    /// setting any timer, reading the clock from a process ([`Ctx::now`]),
    /// injecting faults, or running the starvation watchdog clears this
    /// flag, and `snapshot` then widens every recorded footprint to the
    /// conservative one ([`crate::Quantum::is_all`]).
    pub prune_safe: bool,
    /// Run-anatomy counters (see [`SimMetrics`]). Strictly
    /// non-authoritative: written throughout the run, read only by
    /// `snapshot`.
    pub metrics: SimMetrics,
    /// The previously dispatched pid, for the context-switch count.
    /// Metrics bookkeeping only.
    pub last_dispatched: Option<Pid>,
    /// The per-dispatch footprint log (see [`SimReport::quanta`]): each
    /// dispatch opens a quantum (keeping a contested dispatch's ready
    /// list), [`Ctx::note_sync_obj`] and the kernel's own marks add to it,
    /// and the stop closes it. (The coarse companion bit lives in
    /// [`Shared::quantum_all`], which processes can set without taking
    /// this lock.)
    pub log: QuantumLog,
    /// Whether to record `log`: off unless a prune mode or the caller asks
    /// (see [`SimConfig::record_quanta`]).
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
    /// One record per [`Ctx::choose_value`] call with a contested domain,
    /// in call order: the k-th entry describes the k-th `Data`-kind entry
    /// of `decisions`. Drained into [`SimReport::data_choices`].
    pub data_choices: Vec<crate::symbolic::DataChoice>,
    /// How the run ended (`None`: completed), recorded by whoever ended
    /// it ([`end_run`]) and read by [`drive`] once the job gate falls.
    pub run_error: Option<SimErrorKind>,
}

impl State {
    pub(crate) fn new(cfg: &SimConfig, faults: FaultRuntime) -> Self {
        // Capacity hints sized for the explorers' workloads: hundreds of
        // thousands of short runs, where the first few doublings of each
        // per-run vector are measurable.
        let mut st = State {
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
            log: QuantumLog::default(),
            record_quanta: false,
            policy: Box::new(FifoPolicy),
            max_steps: cfg.max_steps,
            starvation_bound: cfg.starvation_bound,
            deadlock_recovery: cfg.deadlock_recovery,
            data_choices: Vec::new(),
            run_error: None,
        };
        st.set_record_quanta(cfg.record_quanta);
        st
    }

    /// Turns the footprint log on or off; only a recorded log reserves
    /// its arenas.
    pub(crate) fn set_record_quanta(&mut self, on: bool) {
        self.record_quanta = on;
        if on {
            self.log.reserve();
        }
    }

    /// Adds an access to the current quantum's footprint. A no-op unless
    /// the footprint log is recorded: nothing else reads it.
    pub(crate) fn mark_obj(&mut self, obj: &ObjId, access: Access) {
        if self.record_quanta {
            self.log.mark(obj, access);
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

/// State shared between the thread driving the run and all process threads.
pub(crate) struct Shared {
    pub state: Mutex<State>,
    /// Global ticket dispenser used by wait queues for FIFO ordering.
    pub tickets: AtomicU64,
    /// Set by [`Ctx::note_sync`] (the conservative fallback of the
    /// footprint contract): the current quantum may have touched *any*
    /// object, so its footprint is the conservative one
    /// ([`crate::Quantum::is_all`]) regardless of what it marked in
    /// [`State::log`]. Cleared at each dispatch.
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
    /// Count of process bodies started on pooled hosts that have not yet
    /// returned or finished unwinding, plus one slot for the run itself
    /// until it ends, with [`Shared::jobs_cv`] signalled when it hits
    /// zero. [`drive`] waits on this gate once: when it falls the run is
    /// over, every cancellation has returned or unwound, and every pooled
    /// host is idle again, so the report can be snapshotted.
    pub jobs: Mutex<usize>,
    pub jobs_cv: Condvar,
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
            tickets: AtomicU64::new(0),
            quantum_all: AtomicBool::new(false),
            cancelling: AtomicBool::new(false),
            queues: Mutex::new(Vec::new()),
            jobs: Mutex::new(0),
            jobs_cv: Condvar::new(),
            trace_obj: ObjId::pseudo("trace"),
            ticket_obj: ObjId::pseudo("ticket"),
            park_order_obj: ObjId::pseudo("park"),
        })
    }

    /// Draws a fresh, strictly increasing ticket.
    pub(crate) fn fresh_ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Raises the job gate for one started process body, or for the run.
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

    /// Blocks until the run has ended and every body started on a pooled
    /// host has returned or unwound.
    pub(crate) fn wait_jobs(&self) {
        let mut jobs = self.jobs.lock();
        while *jobs > 0 {
            self.jobs_cv.wait(&mut jobs);
        }
    }

    /// Registers a new process (from the builder or a running process).
    ///
    /// The body is queued in the slot and no thread is touched until the
    /// process is first dispatched, so a simulation that is built but
    /// never run engages no host at all.
    pub(crate) fn spawn_process<F>(&self, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let mut st = self.state.lock();
        let pid = Pid(st.procs.len() as u32);
        st.procs.push(ProcSlot {
            name: name.to_string(),
            daemon,
            status: ProcessStatus::Ready,
            baton: Arc::new(Baton::new()),
            park_obj: ObjId::pseudo(&format!("park:{pid}")),
            pending: Some(Box::new(f)),
            park_token: 0,
            timed_out: false,
            spurious_wake: false,
            wait_since: None,
            park_reason: String::new(),
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
        pid
    }
}

/// The simulation ended while this process was parked.
///
/// Run end cancels every process that is still live. The cancellable park
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

/// Marker payload used to unwind a process at a fault-plan kill-point.
/// Unlike [`Cancelled`], the unwind is part of the run: drop guards may
/// release or poison primitives while the process still holds the CPU,
/// and the process is recorded as [`ProcessStatus::Killed`].
struct KilledMarker;

/// Marker payload used to unwind a deadlock-recovery victim. Identical in
/// mechanics to [`KilledMarker`] — drop guards roll registrations back
/// while the victim holds the CPU — but the process is recorded as
/// [`ProcessStatus::Cancelled`]: an abort is a recovery action, not a crash.
struct AbortedMarker;

/// Runs one process body to completion and hands the CPU on, on the
/// thread that was handed the body: a pooled host (see [`crate::pool`]),
/// or for the run's first pick the thread that called [`crate::Sim::run`].
/// The process has already been dispatched: starting its body *is* its
/// first dispatch.
pub(crate) fn run_process(shared: &Arc<Shared>, pid: Pid, baton: Arc<Baton<Go>>, f: PendingJob) {
    let ctx = Ctx::new(Arc::clone(shared), pid, baton);
    let payload = match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
        // Cancelled by return: the body saw `Cancelled` from a park and
        // returned. Only cancelled processes run once shutdown has begun,
        // and, as for a shutdown unwind, nobody waits for them to stop.
        Ok(()) if shared.cancelling.load(Ordering::SeqCst) => return,
        Ok(()) => {
            // Never a self-resume: a finished process is not ready.
            stop_process(shared, pid, Report::Finished);
            return;
        }
        Err(payload) => payload,
    };
    if payload.is::<Cancelled>() {
        // Shutdown unwind: nobody waits for it. Counted so the
        // cancel-by-return fast path can be pinned
        // (`SimMetrics::shutdown_unwinds`).
        shared.state.lock().metrics.shutdown_unwinds += 1;
        return;
    }
    let mut st = shared.state.lock();
    if payload.is::<KilledMarker>() {
        // Kill-point unwind complete: all drop guards have run.
        st.procs[pid.index()].status = ProcessStatus::Killed;
    } else if payload.is::<AbortedMarker>() {
        end_abort(shared, &mut st, pid);
    } else {
        // A genuine panic ends the run, here. It ends the quantum too,
        // unless it escaped a kill or abort unwind, whose stop was
        // accounted already.
        if st.running == Some(pid) {
            account_stop(shared, &mut st, pid, None);
        }
        let message = panic_message(payload);
        st.procs[pid.index()].status = ProcessStatus::Panicked {
            message: message.clone(),
        };
        // A body cancelled at run end that then panics cannot end the run
        // a second time.
        if !shared.cancelling.load(Ordering::SeqCst) {
            end_run(
                shared,
                st,
                Some(SimErrorKind::ProcessPanicked { pid, message }),
            );
        }
        return;
    }
    // Hand the CPU on, as a finished process does.
    hand_on(shared, st, None);
}

/// Ends a deadlock-recovery victim whose unwind is complete. The unwind's
/// guard effects (releases, poisons, wakes) are recorded as a forced
/// bookkeeping quantum of the victim so the race analysis sees them
/// (`ready: None` keeps it out of the decision alignment); the victim
/// leaves the blocked set, so the quantum parks.
fn end_abort(shared: &Shared, st: &mut State, victim: Pid) {
    if st.record_quanta {
        record_quantum(shared, st, victim, true);
    }
    // Cancelled, not Killed: an abort is a recovery action, not a crash.
    st.settle_blocked_time(victim);
    st.procs[victim.index()].status = ProcessStatus::Cancelled;
    st.procs[victim.index()].wait_since = None;
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
/// an abort unwinds the process thread so its drop guards run.
pub(crate) fn obey(go: Go) -> Result<(), Cancelled> {
    match go {
        Go::Run => Ok(()),
        Go::Cancel => Err(Cancelled),
        // `resume_unwind` (not `panic_any`) so the panic hook stays silent:
        // a recovery abort is not an error.
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
    /// faults, no starvation watchdog). When `false`, every footprint in
    /// [`SimReport::quanta`] has been widened to the conservative one
    /// ([`crate::Quantum::is_all`]), so explorers need not consult this
    /// field separately.
    pub prune_safe: bool,
    /// Run-anatomy counters (dispatches, parks/wakes by reason, queue
    /// high-water marks, per-mechanism sync ops, replay divergence).
    /// Strictly non-authoritative: recorded on every run, never consulted
    /// by scheduling. See [`SimMetrics`] and [`crate::export`].
    pub metrics: SimMetrics,
    /// Per-dispatch access footprints in dispatch order: empty unless
    /// [`crate::SimConfig::record_quanta`] was on, which a prune mode or
    /// the caller must ask for. Quanta whose [`crate::Quantum::ready`] is
    /// `Some` align 1:1 with the `Sched`-kind entries of `decisions`
    /// (data decisions happen *inside* a quantum and have no record of
    /// their own); when the run was not `prune_safe`, every footprint has
    /// been widened to the conservative one so the explorers' dependency
    /// analysis can never act on footprints a timer or fault may have
    /// invalidated.
    pub quanta: QuantumLog,
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
    let decisions = std::mem::take(&mut st.decisions);
    let mut quanta = std::mem::take(&mut st.log);
    if !st.prune_safe {
        // Timers and faults act outside any quantum, and a commuted quantum
        // shifts the intervening virtual times, so recorded footprints
        // understate what a quantum's reordering could perturb. Widening
        // them makes the explorers' race analysis request every sibling of
        // this run.
        quanta.widen_all();
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

/// The dispatch tail of phase 1 ([`next_step`]): consult the policy (or
/// take the forced pick), record the decision and the candidate snapshot,
/// and perform every per-dispatch state mutation. The caller has already
/// established that `ready` is non-empty, the run is not terminal, and the
/// step budget has room.
fn pick_and_dispatch(st: &mut State) -> Picked {
    let contested = st.ready.len() > 1;
    let idx = if !contested {
        0
    } else {
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
        st.decisions.push(Decision::sched(arity, pick as u32));
        pick
    };
    // Footprint bookkeeping for the quantum about to run: open it with
    // the candidate list of a contested dispatch (index c is what sibling
    // choice c would have dispatched).
    if st.record_quanta {
        st.log.open(contested.then_some(&st.ready[..]));
    }
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
    // episode) — detection, not recovery.
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
            let Some((reason, since)) = p.wait_episode() else {
                continue;
            };
            let age = clock.0 - since.0;
            if age > bound {
                flagged.push(StarvationFlag {
                    pid: Pid(i as u32),
                    name: p.name.clone(),
                    reason: reason.to_string(),
                    since,
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

/// Clears the per-quantum marks that processes set without the state lock,
/// so the quantum about to run starts clean.
fn reset_quantum_marks(shared: &Shared) {
    shared.quantum_all.store(false, Ordering::Relaxed);
}

/// Phase 2: hands the CPU to `next` (without holding the state lock). The
/// first dispatch of a process hands its queued body to a host thread;
/// every later dispatch sends `Go::Run`.
fn hand_cpu(shared: &Arc<Shared>, next: Pid, baton: Arc<Baton<Go>>, pending: Option<PendingJob>) {
    reset_quantum_marks(shared);
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

/// The read-side of phase 3: record the just-ended quantum's footprint.
/// `report` is `None` for a quantum ended by a panic.
fn account_stop(shared: &Shared, st: &mut State, pid: Pid, report: Option<&Report>) {
    st.running = None;
    if st.record_quanta {
        let parked = matches!(
            report,
            Some(Report::Parked { .. } | Report::ParkedTimeout { .. })
        );
        record_quantum(shared, st, pid, parked);
    }
}

/// Closes the quantum `pid` just ended in the log: what it marked, plus
/// the kernel-implicit writes of a quantum that entered or left the
/// blocked set (`parks`). Those write its own park slot (the same
/// pseudo-object `Ctx::is_parked` reads and `Ctx::unpark` writes) and,
/// under deadlock recovery, the global `park` pseudo-object, because the
/// victim choice depends on the relative order in which *any* two
/// processes blocked, so such quanta must never be commuted then.
fn record_quantum(shared: &Shared, st: &mut State, pid: Pid, parks: bool) {
    let all = shared.quantum_all.load(Ordering::Relaxed);
    if parks && !all {
        st.log.mark(&st.procs[pid.index()].park_obj, Access::Write);
        if st.deadlock_recovery {
            st.log.mark(&shared.park_order_obj, Access::Write);
        }
    }
    st.log.close(pid, all);
}

/// The write-side of phase 3: apply the status transition of a stop that
/// no kill-point cut short, and its bookkeeping.
fn apply_stop(st: &mut State, pid: Pid, report: Report<'_>) {
    let clock = st.clock;
    match report {
        Report::Yielded => {
            let slot = &mut st.procs[pid.index()];
            slot.status = ProcessStatus::Ready;
            slot.wait_since = None;
            slot.starvation_flagged = false;
            st.ready.push(pid);
            if st.record_sched_events {
                st.trace.push(clock, pid, EventKind::Yielded);
            }
        }
        Report::Parked { reason } => {
            // The Blocked trace event was already pushed by Ctx::park so
            // that it is ordered before any subsequent unpark.
            SimMetrics::bump(&mut st.metrics.parks, reason);
            // Watchdog bookkeeping: re-parking on the same reason (a
            // re-contend or recheck loop) continues the current wait
            // episode; anything else starts a fresh one.
            st.procs[pid.index()].begin_park(reason, clock);
            // Fault plane: a spurious wake makes the process runnable
            // again with no matching unpark; Ctx::park absorbs it, even
            // when the pick below comes straight back to this process.
            if st.faults.active() {
                let State { faults, procs, .. } = &mut *st;
                if faults.on_park(pid, &procs[pid.index()].name) {
                    st.settle_blocked_time(pid);
                    let slot = &mut st.procs[pid.index()];
                    slot.end_park(ProcessStatus::Ready);
                    slot.spurious_wake = true;
                    st.ready.push(pid);
                    st.trace.push(clock, pid, EventKind::SpuriousWake);
                }
            }
        }
        Report::ParkedTimeout { reason, ticks } => {
            st.prune_safe = false; // timers are time-sensitive: no prune
            SimMetrics::bump(&mut st.metrics.parks, reason);
            let until = clock.plus(ticks);
            let slot = &mut st.procs[pid.index()];
            slot.begin_park(reason, clock);
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
            slot.wait_since = None;
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
            slot.wait_since = None;
            slot.status = ProcessStatus::Finished;
            if st.record_sched_events {
                st.trace.push(clock, pid, EventKind::Finished);
            }
        }
    }
}

/// Fires due timers while the ready list is empty, jumping the clock
/// forward as often as needed: a batch may consist entirely of stale
/// timers, in which case the next deadline must be tried too. Leaves the
/// ready list empty only if no timer is pending.
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
            st.procs[pid.index()].end_park(ProcessStatus::Ready);
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
    /// The pick came straight back to the stopping process: keep running,
    /// zero hand-offs. A yield lands here when the policy re-picks it; a
    /// sleep or a timed park when its own timer fired with no other
    /// process ready; a plain park after a fault-plan spurious wake.
    SelfResume,
    /// The CPU went elsewhere: to another process, or nowhere because the
    /// run ended. A still-live caller must now wait on its own baton,
    /// where a run end has already left it `Go::Cancel`.
    Handed,
}

/// What follows a stop, as phase 1 ([`next_step`]) decides it.
enum Next {
    /// Dispatch this process; every dispatch mutation is done.
    Run(Picked),
    /// Deadlock recovery aborts this victim; its `Aborted` event is pushed.
    Abort(Pid),
    /// The run is over: complete (`None`), deadlocked, or out of steps.
    End(Option<SimErrorKind>),
}

/// Phase 1, the one place that decides what follows a stop: run end, due
/// timers, deadlock detection, the recovery victim, the step budget, and
/// the pick. Whoever holds the CPU calls it under the state lock: the
/// stopping process, the thread of a body that just ended, or [`drive`]
/// for the first dispatch.
fn next_step(st: &mut State) -> Next {
    // The run is complete once no non-daemon process is live, even if
    // daemon processes are still runnable or sleeping.
    if st.procs.iter().all(|p| p.daemon || !p.status.is_live()) {
        return Next::End(None);
    }
    fire_timers(st);
    if st.ready.is_empty() {
        if st.deadlock_recovery {
            // Deadlock recovery: abort one victim through the same unwind
            // machinery as a fault-plan kill, so its RAII guards roll
            // registrations back (releasing permits, dequeuing, poisoning
            // held monitors), then resume scheduling — the rollback may
            // have unparked survivors. Each abort removes one live
            // non-daemon, so recovery ends even if the survivors deadlock
            // again.
            //
            // Victim choice: the most recently blocked process (its wait
            // episode started last, so the least progress is discarded);
            // ties broken by pid. Deterministic, and it adds no scheduling
            // decision, so exploration and replay are unaffected.
            let victim = st
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.daemon && matches!(p.status, ProcessStatus::Blocked { .. }))
                .max_by_key(|&(i, p)| {
                    let since = p.wait_since.unwrap_or(Time::ZERO);
                    (since, i)
                })
                .map(|(i, _)| Pid(i as u32));
            if let Some(victim) = victim {
                // The Aborted event goes in *before* the unwind so that
                // poison events emitted by drop guards follow it; the
                // unwind's own accesses make up the bookkeeping quantum
                // `end_abort` records.
                let clock = st.clock;
                st.trace.push(clock, victim, EventKind::Aborted);
                st.recovered.push(victim);
                if st.record_quanta {
                    st.log.open(None);
                }
                return Next::Abort(victim);
            }
        }
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
        // Only daemons (or nothing) remain blocked: clean completion.
        return Next::End((!blocked.is_empty()).then_some(SimErrorKind::Deadlock { blocked }));
    }
    if st.step >= st.max_steps {
        return Next::End(Some(SimErrorKind::MaxStepsExceeded {
            limit: st.max_steps,
        }));
    }
    Next::Run(pick_and_dispatch(st))
}

/// Runs phase 1 and acts on it for whoever holds the CPU: `me` is the
/// process that just stopped, and `None` after a kill or abort unwind.
/// The pick is handed the CPU, or `me` keeps it; a recovery victim other
/// than `me` is sent `Go::Abort`, while `me` as the victim unwinds from
/// here at once; the run ends here ([`end_run`]).
fn hand_on(shared: &Arc<Shared>, mut st: MutexGuard<'_, State>, me: Option<Pid>) -> StopOutcome {
    match next_step(&mut st) {
        Next::Run(picked) if Some(picked.next) == me => {
            // The caller is running, so its body was dispatched long ago.
            debug_assert!(picked.pending.is_none());
            st.metrics.self_resumes += 1;
            drop(st);
            reset_quantum_marks(shared);
            StopOutcome::SelfResume
        }
        Next::Run(Picked {
            next,
            baton,
            pending,
        }) => {
            drop(st);
            hand_cpu(shared, next, baton, pending);
            StopOutcome::Handed
        }
        Next::Abort(victim) => {
            let baton = Arc::clone(&st.procs[victim.index()].baton);
            drop(st);
            reset_quantum_marks(shared);
            // While the victim unwinds it is the only executing process,
            // so drop guards may lock state, emit trace events and
            // try_unpark, but must never park. Its host then ends it
            // (`end_abort`) and hands the CPU on.
            if Some(victim) == me {
                std::panic::resume_unwind(Box::new(AbortedMarker));
            }
            baton.put(Go::Abort);
            StopOutcome::Handed
        }
        Next::End(error) => {
            end_run(shared, st, error);
            StopOutcome::Handed
        }
    }
}

/// Ends the run where it ends, on the thread that found it over: a stop
/// whose phase 1 found nothing left to dispatch, or the thread of a body
/// that panicked. Under the state lock it raises `cancelling`, cancels
/// every live process (a live stopping process finds its own
/// `Go::Cancel` in its baton), drops the bodies that never started, and
/// records how the run ended; then it releases the run's own slot on the
/// job gate, on which [`drive`] waits. Cancelling a parked daemon thus
/// costs the hand-offs last process → daemon → `drive`, and none at all
/// when the process on `drive`'s own thread ends a run with no pooled host
/// left busy.
fn end_run(shared: &Shared, mut st: MutexGuard<'_, State>, error: Option<SimErrorKind>) {
    // Raise the flag before any cancellation: cancelled processes unwind
    // concurrently, and their drop guards check it (via Ctx::cancelling)
    // to skip crash-handling work that is only valid for a kill.
    shared.cancelling.store(true, Ordering::SeqCst);
    st.run_error = error;
    let mut never_started = Vec::new();
    for p in st.procs.iter_mut() {
        if let Some(f) = p.pending.take() {
            // Never dispatched: no thread is engaged, so there is nothing
            // to cancel — the body is simply dropped (outside the lock
            // below; closures own arbitrary state).
            p.status = ProcessStatus::Cancelled;
            never_started.push(f);
        } else if p.status.is_live() {
            p.baton.put(Go::Cancel);
            p.status = ProcessStatus::Cancelled;
        }
    }
    drop(st);
    drop(never_started);
    // A cancelled body either returns (a cancellable park handed it
    // `Cancelled`) or unwinds with the `Cancelled` payload, which
    // `run_process` catches, so the gate always falls.
    shared.job_done();
}

/// A running process stops here (yield, park, sleep, finish) and does
/// everything that follows a stop itself, under the state lock: phase 3
/// (account the quantum, consult the fault plan's kill-points, apply the
/// stop) and phase 1 ([`hand_on`]). The one-running-process invariant
/// makes it the only executing process, so nothing else can observe the
/// state between its stop and the next dispatch. It then hands the CPU
/// directly to the next process, or keeps it if the pick comes back to
/// itself.
pub(crate) fn stop_process(shared: &Arc<Shared>, pid: Pid, report: Report<'_>) -> StopOutcome {
    let mut st = shared.state.lock();
    account_stop(shared, &mut st, pid, Some(&report));
    // Fault plane: a yield/park/sleep is a scheduling point of the
    // stopping process. If the plan kills it here, the stop is never
    // applied: the process unwinds instead of ever resuming.
    let killed = st.faults.active() && !matches!(report, Report::Finished) && {
        let State { faults, procs, .. } = &mut *st;
        faults.on_stop(pid, &procs[pid.index()].name)
    };
    if killed {
        // The Killed event goes in *before* the unwind so that poison
        // events emitted by drop guards follow it in the trace. As for an
        // abort, the unwinding process still holds the CPU; `run_process`
        // catches the marker and hands it on.
        let clock = st.clock;
        st.trace.push(clock, pid, EventKind::Killed);
        drop(st);
        std::panic::resume_unwind(Box::new(KilledMarker));
    }
    apply_stop(&mut st, pid, report);
    hand_on(shared, st, Some(pid))
}

/// Runs the simulation on the thread that called [`crate::Sim::run`]: makes
/// the first pick and runs that process's body on this thread, as a
/// self-resume (the thread that made the pick runs it), then waits once,
/// on the job gate, for whoever ends the run and for every pooled host it
/// used. A lone process never leaves this thread.
pub(crate) fn drive(shared: &Arc<Shared>) -> Result<SimReport, SimError> {
    // The run's own slot on the job gate, released by `end_run`.
    shared.job_begin();
    let mut st = shared.state.lock();
    // Static prune-safety gate: fault plans reorder effects around kill
    // points and the starvation watchdog's verdicts depend on absolute
    // wait ages, so both void the commutation argument behind the
    // footprint log for the whole run.
    if st.faults.active() || st.starvation_bound.is_some() {
        st.prune_safe = false;
    }
    match next_step(&mut st) {
        Next::Run(Picked {
            next,
            baton,
            pending: Some(f),
        }) => {
            st.metrics.self_resumes += 1;
            drop(st);
            reset_quantum_marks(shared);
            run_process(shared, next, baton, f);
        }
        Next::End(error) => end_run(shared, st, error),
        _ => unreachable!("the first step starts a body or ends the run"),
    }
    shared.wait_jobs();
    let mut st = shared.state.lock();
    let error = st.run_error.take();
    // Queue hygiene (the `park_timeout` stale-registration footgun): by
    // now every registration must be gone — removed by a wake, by timeout
    // self-removal, or by an unwind guard when run end cancelled a still-
    // parked process. A leftover entry means some timed wait path returned
    // without deregistering and the corpse would absorb a future grant.
    // Checked on every non-panicked exit (clean, deadlock, max-steps); a
    // panicked run is skipped since its guards may not have run.
    #[cfg(debug_assertions)]
    if !matches!(error, Some(SimErrorKind::ProcessPanicked { .. })) {
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
    }
    let report = snapshot(&mut st);
    match error {
        None => Ok(report),
        Some(kind) => Err(SimError {
            kind,
            report: Box::new(report),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    /// A lone sleeper runs on the thread that called `Sim::run` (its first
    /// dispatch is a self-resume); with nobody else ready, each sleep
    /// fires its own timer and the sleeper is re-picked on that thread, so
    /// every dispatch is a self-resume and the run ends where it ends; the
    /// watchdog does not change this.
    #[test]
    fn lone_sleeper_resumes_itself_with_or_without_watchdog() {
        for k in [0, 1, 5] {
            for watchdog in [false, true] {
                let mut sim = Sim::new();
                if watchdog {
                    sim.set_starvation_bound(3);
                }
                sim.spawn("sleeper", move |ctx| {
                    for _ in 0..k {
                        ctx.sleep(2);
                    }
                });
                let m = sim.run().expect("a lone sleeper finishes").metrics;
                assert_eq!(
                    (m.dispatches, m.self_resumes),
                    (k + 1, k + 1),
                    "k={k} watchdog={watchdog}"
                );
            }
        }
    }

    /// A lone timed park expires through its own timer, fired at its own
    /// stop: the waiter, running on the thread that called `Sim::run`, is
    /// re-picked without a hand-off and sees the timeout.
    #[test]
    fn lone_park_timeout_expires_through_a_self_resume() {
        let mut sim = Sim::new();
        let woken = Arc::new(AtomicBool::new(true));
        let seen = Arc::clone(&woken);
        sim.spawn("waiter", move |ctx| {
            seen.store(ctx.park_timeout("nobody", 4), Ordering::SeqCst);
        });
        let report = sim.run().expect("the timeout ends the wait");
        assert!(!woken.load(Ordering::SeqCst));
        let m = &report.metrics;
        assert_eq!(m.timeout_wakes["nobody"], 1);
        assert_eq!(
            report.final_time,
            Time(6),
            "dispatch, 4-tick wait, dispatch"
        );
        assert_eq!((m.dispatches, m.self_resumes), (2, 2));
    }

    /// The footprint marks skip their per-object bookkeeping while the log
    /// is off, and still count sync ops.
    #[test]
    fn marks_made_while_recording_is_off_leave_no_footprint() {
        for record in [false, true] {
            let mut sim = Sim::new();
            sim.set_record_quanta(record);
            let seen = Arc::new(Mutex::new(None));
            let seen2 = Arc::clone(&seen);
            sim.spawn("marker", move |ctx| {
                let obj = ObjId::new("cell", "x");
                ctx.note_sync_obj(&obj, Access::Read);
                ctx.note_sync_obj_op(&obj, Access::Write);
                ctx.fresh_ticket();
                ctx.emit("mark", &[]);
                assert!(!ctx.is_parked(ctx.pid()));
                assert!(!ctx.try_unpark(ctx.pid()));
                let shared = ctx.shared();
                let objs = shared.state.lock().log.open_marks();
                *seen2.lock() = Some(objs);
            });
            let report = sim.run().expect("the marker finishes");
            // `cell:x`, `ticket`, `trace` and `park:p0`.
            let objs = if record { 4 } else { 0 };
            assert_eq!(*seen.lock(), Some(objs), "record={record}");
            assert_eq!(report.quanta.len(), usize::from(record));
            assert_eq!(report.metrics.sync_ops["cell"], 1);
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
