#![forbid(unsafe_code)]
#![deny(deprecated)]
// Real-thread runs are non-authoritative: nothing here feeds a schedule
// or a report, so hash-ordered collections are allowed (see clippy.toml).
#![allow(clippy::disallowed_types)]
//! Real-thread backend: Bloom's five mechanisms on OS threads.
//!
//! Everything else in this workspace runs under the cooperative
//! deterministic simulator in `bloom-sim`. That buys exhaustive
//! exploration and replay, but it also means every verdict rests on the
//! simulator faithfully modelling what a preemptive implementation would
//! do. This crate is the cross-check: the same five mechanism APIs —
//! semaphores (weak and strong), monitors (both signal disciplines),
//! serializers, path expressions, and CSP-style channels with `select` —
//! implemented directly on `std::thread` + `parking_lot`, emitting the
//! identical `req:`/`enter:`/`exit:` event vocabulary into a
//! mutex-guarded [`bloom_sim::Trace`]. Because the checkers and laws in
//! `bloom-core` consume traces, not kernels, they run on real executions
//! unchanged, and the differential conformance suite in `bloom-bench`
//! can require every real-run verdict to fall inside the envelope the
//! simulator's exhaustive exploration established.
//!
//! What deliberately differs from the simulator:
//!
//! * **No scheduler, no replay.** A run's interleaving is whatever the OS
//!   did. Reports carry an empty decision vector and `prune_safe: false`.
//! * **Virtual time is a logical event counter.** The checkers depend on
//!   event *order*; `*_by` deadlines map ticks to bounded wall-clock
//!   budgets via [`RtCtx::wall_budget`].
//! * **Atomicity is earned, not assumed.** Simulator mechanisms get
//!   check-then-park atomicity from the one-running-process invariant;
//!   here every mechanism is an explicit single-mutex state machine and
//!   all hand-off races (timeout vs. concurrent grant, select vs.
//!   delivery) are resolved under that mutex.
//! * **Wake after unlock, and only who can proceed.** Every notify runs
//!   after the notifier has released the mutex its waiters re-take, so a
//!   woken waiter finds it free instead of waking into a held lock and
//!   sleeping again (the offline `parking_lot` shim's cost,
//!   `vendor/README.md`). A channel receiver that takes a queued offer
//!   unparks that offer's sender alone.
//! * **Deadlock detection is a wall-clock watchdog**, necessarily
//!   approximate: a wedged OS thread cannot be introspected or forced to
//!   unwind, so it is reported blocked on `"wall-clock watchdog"` and
//!   leaked.
//!
//! What deliberately matches:
//!
//! * the event vocabulary and its *decision-point* placement (a releaser
//!   granting a parked process emits `enter` on the waiter's behalf via
//!   [`RtCtx::emit_for`], exactly like the simulator's `enter_for`);
//! * poisoning: mid-protocol panics emit `poison:<name>`, later users
//!   observe `poison-seen:<name>`, guards are disarmed with
//!   `mem::forget` on success;
//! * fault injection: [`KillPoint`] panics a named thread at its Nth
//!   instrumented point, the analogue of `FaultPlan` kill-points, and is
//!   classified [`bloom_sim::ProcessStatus::Killed`], not a crash.

mod channel;
mod monitor;
mod pathexpr;
mod runtime;
mod semaphore;
mod serializer;

pub use channel::{select, select_by, RtChannel};
pub use monitor::{RtCond, RtMonitor, RtMonitorCtx, Signaling};
pub use pathexpr::{RtPathResource, RtPredicateView};
pub use runtime::{KillPoint, RtConfig, RtCtx, RtKill, RtSim};
pub use semaphore::{RtLock, RtSemaphore, TryResult};
pub use serializer::{RtCrowdId, RtGuardView, RtQueueId, RtSerializer, RtSerializerCtx};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Releases `guard`, then, if `wake`, wakes every waiter on `cv`: a
/// waiter notified while the notifier still holds the mutex would wake
/// into it and sleep again.
fn unlock_then_wake<T>(guard: MutexGuard<'_, T>, cv: &Condvar, wake: bool) {
    drop(guard);
    if wake {
        cv.notify_all();
    }
}

/// [`unlock_then_wake`] for a caller that goes on to wait on `lock`:
/// re-locks after notifying. Its own grant may land in between, which its
/// wait loop checks before it sleeps.
fn wake_then_relock<'a, T>(
    lock: &'a Mutex<T>,
    guard: MutexGuard<'a, T>,
    cv: &Condvar,
    wake: bool,
) -> MutexGuard<'a, T> {
    if !wake {
        return guard;
    }
    unlock_then_wake(guard, cv, true);
    lock.lock()
}
