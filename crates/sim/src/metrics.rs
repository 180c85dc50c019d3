//! Run-anatomy metrics, recorded on every simulation run.
//!
//! [`SimMetrics`] is the *non-authoritative* observability layer of the
//! kernel: counters the scheduler and [`crate::Ctx`] update as a run
//! proceeds, attached to the final [`crate::SimReport`]. Nothing in this
//! module influences scheduling — no metric is ever read back by the
//! kernel, the policies, or the mechanisms — so two runs that differ only
//! in who looks at the metrics are the same run. That guarantee is what
//! lets the explorers assert byte-identical metrics across worker thread
//! counts (`tests/parallel_explore.rs`). The three host-protocol counters,
//! [`SimMetrics::self_resumes`], [`SimMetrics::loop_wakes`] and
//! [`SimMetrics::shutdown_unwinds`], count how the kernel moved the CPU
//! between OS threads and how it ended them rather than what the run did,
//! so they are left out of exports and cross-mode comparisons.
//!
//! All keyed counters use [`BTreeMap`] so that iteration order (and thus
//! any report or export derived from the metrics) is deterministic.

use std::collections::BTreeMap;

/// Per-process slice of [`SimMetrics`], indexed by pid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PidMetrics {
    /// How many times the process was dispatched.
    pub dispatches: u64,
    /// Virtual-time ticks spent running. Each dispatch advances the clock
    /// by exactly one tick, so this equals `dispatches` — kept separate
    /// because the equality is a property of the current clock rule, not
    /// of the metric.
    pub run_ticks: u64,
    /// Virtual-time ticks spent parked (status `Blocked`), summed over all
    /// park episodes and finalized at the end of the run for processes that
    /// never woke.
    pub blocked_ticks: u64,
}

/// Divergence observed by a [`crate::ReplayPolicy`] while replaying a
/// recorded decision script (see [`crate::ReplayPolicy::diverged`]).
///
/// A replayed script that no longer matches the tree it is replayed
/// against — because the scenario changed, or the vector was corrupted —
/// used to be masked by silent clamping; it is now surfaced here (and in
/// [`SimMetrics::replay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Script entries that were out of range for the ready set they were
    /// applied to and had to be clamped.
    pub clamped: u64,
    /// Decision points consulted after the script was exhausted while more
    /// than one process was runnable (strict replay only; the explorers'
    /// prefix replays treat exhaustion as the canonical choice 0 by
    /// design and do not count it).
    pub underruns: u64,
}

impl ReplayDivergence {
    /// Whether any divergence was observed.
    pub fn diverged(&self) -> bool {
        self.clamped > 0 || self.underruns > 0
    }
}

/// Everything the kernel counted during one run. Attached to
/// [`crate::SimReport::metrics`]; exported by [`crate::export`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Total dispatches (equals [`crate::SimReport::steps`]).
    pub dispatches: u64,
    /// Dispatches that handed the CPU to a different process than the
    /// previous dispatch did.
    pub context_switches: u64,
    /// Parks keyed by wait reason (the queue name passed to
    /// [`crate::Ctx::park`]). A re-park after an absorbed spurious wake
    /// counts again: it is a second park.
    pub parks: BTreeMap<String, u64>,
    /// Unpark deliveries keyed by the reason the target was parked on
    /// (including wakes a fault plan converted into delayed sleeps —
    /// the unpark was still delivered).
    pub wakes: BTreeMap<String, u64>,
    /// Timed parks that ended by timeout rather than unpark, keyed by
    /// reason.
    pub timeout_wakes: BTreeMap<String, u64>,
    /// High-water mark of each wait queue's depth, keyed by queue name
    /// (same-named queues share an entry).
    pub queue_high_water: BTreeMap<String, u64>,
    /// Synchronization operations reported by the mechanism crates through
    /// [`crate::Ctx::note_sync_op`], keyed by the mechanism label. Rides
    /// the existing `note_sync` purity-instrumentation contract, so it
    /// adds no new scheduling points.
    pub sync_ops: BTreeMap<String, u64>,
    /// Per-process counters, indexed by pid.
    pub per_pid: Vec<PidMetrics>,
    /// Replay divergence observed by the run's policy (all zero unless the
    /// policy was a [`crate::ReplayPolicy`] that diverged).
    pub replay: ReplayDivergence,
    /// Dispatches that kept the CPU on the stopping process's own thread:
    /// the inline continuation re-picked it, so no OS hand-off happened.
    /// Always 0 under the seed protocol ([`crate::SimConfig::reuse_hosts`]
    /// `== false`) and under a fault plan. A cost of the host protocol,
    /// not part of the schedule: not exported, and it may differ between
    /// runs of one schedule under different kernel modes.
    pub self_resumes: u64,
    /// Times the scheduler loop woke from waiting on a report: one per
    /// quantum under the seed protocol, otherwise one per deferral to the
    /// loop (run end, deadlock, step budget) plus one per
    /// kill or abort acknowledgement. OS hand-offs per run are
    /// `dispatches - self_resumes + loop_wakes`. Same caveats as
    /// [`SimMetrics::self_resumes`].
    pub loop_wakes: u64,
    /// Process bodies that ended by a shutdown unwind: a process still
    /// parked (or ready, or sleeping) at run end outside
    /// [`crate::Ctx::park_cancellable`] is cancelled by unwinding its host
    /// thread, which costs microseconds per frame-heavy stack. A daemon
    /// parked in the cancellable form returns instead and is not counted.
    /// Same caveats as [`SimMetrics::self_resumes`].
    pub shutdown_unwinds: u64,
}

impl SimMetrics {
    /// Total parks across all reasons.
    pub fn total_parks(&self) -> u64 {
        self.parks.values().sum()
    }

    /// Total unpark deliveries across all reasons.
    pub fn total_wakes(&self) -> u64 {
        self.wakes.values().sum()
    }

    /// Total sync operations across all mechanism labels.
    pub fn total_sync_ops(&self) -> u64 {
        self.sync_ops.values().sum()
    }

    /// Deepest observed wait queue, if any process ever parked.
    pub fn max_queue_depth(&self) -> u64 {
        self.queue_high_water.values().copied().max().unwrap_or(0)
    }

    pub(crate) fn bump(map: &mut BTreeMap<String, u64>, key: &str) {
        match map.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                map.insert(key.to_string(), 1);
            }
        }
    }

    pub(crate) fn note_queue_depth(&mut self, name: &str, depth: u64) {
        match self.queue_high_water.get_mut(name) {
            Some(high) => *high = (*high).max(depth),
            None => {
                self.queue_high_water.insert(name.to_string(), depth);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_high_water() {
        let mut m = SimMetrics::default();
        SimMetrics::bump(&mut m.parks, "q");
        SimMetrics::bump(&mut m.parks, "q");
        SimMetrics::bump(&mut m.wakes, "q");
        m.note_queue_depth("q", 2);
        m.note_queue_depth("q", 1);
        m.note_queue_depth("r", 3);
        assert_eq!(m.total_parks(), 2);
        assert_eq!(m.total_wakes(), 1);
        assert_eq!(m.queue_high_water["q"], 2);
        assert_eq!(m.max_queue_depth(), 3);
    }

    #[test]
    fn divergence_detects_any_nonzero() {
        assert!(!ReplayDivergence::default().diverged());
        assert!(ReplayDivergence {
            clamped: 1,
            underruns: 0
        }
        .diverged());
        assert!(ReplayDivergence {
            clamped: 0,
            underruns: 2
        }
        .diverged());
    }
}
