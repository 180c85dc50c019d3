//! Pluggable scheduling policies.
//!
//! The kernel consults a [`SchedPolicy`] only when more than one process is
//! runnable; with a single candidate the dispatch is forced. All provided
//! policies are deterministic functions of their own state, so an entire run
//! is reproducible from the policy construction parameters (e.g. the random
//! seed), and any run can be replayed exactly from its recorded
//! [`crate::Decision`] list via [`ReplayPolicy`].

use crate::metrics::ReplayDivergence;
use crate::types::Pid;

/// The workspace's one pseudo-random generator: tiny, high-quality,
/// dependency-free, and — like everything else near scheduling —
/// deterministic per seed. [`RandomPolicy`], the samplers, and the
/// workload generators all draw from this so that a seed pins down an
/// entire experiment.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`0` when `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

/// Chooses which runnable process to dispatch next.
///
/// `ready` is the runnable set in enqueue order (index 0 has been runnable
/// the longest). The kernel consults a policy only at *contested* decision
/// points — `ready` then has at least two entries, and the dispatch loop
/// debug-asserts it — but implementations must still be **total**: tests
/// and tools call `choose` directly with arbitrary slices, so a policy
/// must return a valid index (0 for an empty or single-entry slice) rather
/// than panic. Returns an index `< ready.len()` (`0` if `ready` is empty;
/// the kernel additionally clamps out-of-range picks).
pub trait SchedPolicy: Send {
    /// Picks the index of the process to dispatch.
    fn choose(&mut self, ready: &[Pid], step: u64) -> usize;

    /// Picks the index of the value a [`crate::Ctx::choose_value`] call
    /// observes, out of `arity` domain values in ascending order. Like
    /// [`SchedPolicy::choose`], this is consulted only at *contested*
    /// points (`arity > 1`) and must return an index `< arity` (the
    /// kernel additionally clamps). The default takes the canonical
    /// first value, which is what the explorers' past-prefix descent
    /// relies on; [`ReplayPolicy`] consumes a script entry (the decision
    /// vector interleaves both kinds in the order they were made) and
    /// [`RandomPolicy`] draws from its generator.
    fn choose_data(&mut self, arity: u32, step: u64) -> u32 {
        let _ = (arity, step);
        0
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &str {
        "custom"
    }

    /// Replay divergence accumulated by this policy, if it is a replay
    /// policy (see [`ReplayPolicy::diverged`]). The kernel copies this
    /// into [`crate::SimMetrics::replay`] at the end of every run; the
    /// default for non-replay policies is `None` (reported as zero).
    fn replay_divergence(&self) -> Option<ReplayDivergence> {
        None
    }
}

/// First-come-first-served round-robin: always dispatches the process that
/// has been runnable the longest. This is the "fair" baseline policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoPolicy;

impl SchedPolicy for FifoPolicy {
    fn choose(&mut self, _ready: &[Pid], _step: u64) -> usize {
        0
    }

    fn name(&self) -> &str {
        "fifo"
    }
}

/// Adversarially unfair policy: always dispatches the most recently
/// runnable process. Useful for provoking starvation in mechanisms whose
/// fairness depends on the underlying scheduler (e.g. weak semaphores).
#[derive(Debug, Default, Clone, Copy)]
pub struct LifoPolicy;

impl SchedPolicy for LifoPolicy {
    fn choose(&mut self, ready: &[Pid], _step: u64) -> usize {
        ready.len().saturating_sub(1)
    }

    fn name(&self) -> &str {
        "lifo"
    }
}

/// Seeded pseudo-random policy ([`SplitMix64`]), deterministic per seed.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SplitMix64,
    name: String,
}

impl RandomPolicy {
    /// Creates a random policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
            name: format!("random(seed={seed})"),
        }
    }
}

impl SchedPolicy for RandomPolicy {
    fn choose(&mut self, ready: &[Pid], _step: u64) -> usize {
        self.rng.next_below(ready.len() as u64) as usize
    }

    fn choose_data(&mut self, arity: u32, _step: u64) -> u32 {
        self.rng.next_below(arity as u64) as u32
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Replays a recorded decision script; beyond the script it behaves like
/// [`FifoPolicy`]. This is the workhorse of [`crate::ExploreConfig::run`].
///
/// Two modes, differing only in what counts as *divergence*:
///
/// * [`ReplayPolicy::new`] — **strict** replay of a complete recorded
///   decision vector. An out-of-range entry is clamped *and counted*, and
///   running past the script while more than one process is runnable is
///   counted as an underrun: both mean the script no longer matches the
///   tree it is replayed against (a stale or corrupted vector), which
///   used to be masked silently.
/// * [`ReplayPolicy::prefix`] — replay of a branch *prefix*, as the
///   explorers use it: decisions past the prefix deliberately take the
///   canonical choice 0, so script exhaustion is expected and only
///   clamping counts as divergence.
///
/// Either way the pick itself is unchanged (clamped, then FIFO fallback);
/// divergence is *recorded*, in [`ReplayPolicy::diverged`] and — via
/// [`SchedPolicy::replay_divergence`] — in [`crate::SimMetrics::replay`].
#[derive(Debug, Clone)]
pub struct ReplayPolicy {
    script: Vec<u32>,
    pos: usize,
    strict: bool,
    divergence: ReplayDivergence,
}

impl ReplayPolicy {
    /// Creates a strict replay policy from a complete recorded decision
    /// vector (one entry per decision point with more than one runnable
    /// process). Divergence from the script — clamped entries or script
    /// exhaustion at a contested decision — is recorded.
    pub fn new(script: Vec<u32>) -> Self {
        ReplayPolicy {
            script,
            pos: 0,
            strict: true,
            divergence: ReplayDivergence::default(),
        }
    }

    /// Creates a prefix replay policy: past the script, decisions take the
    /// canonical choice 0 *by design* (the explorers' branch descent), so
    /// only clamped entries count as divergence.
    pub fn prefix(script: Vec<u32>) -> Self {
        ReplayPolicy {
            strict: false,
            ..ReplayPolicy::new(script)
        }
    }

    /// The divergence recorded so far (see the type-level docs for what
    /// counts in each mode).
    pub fn divergence(&self) -> ReplayDivergence {
        self.divergence
    }

    /// Whether the replay has diverged from the script.
    pub fn diverged(&self) -> bool {
        self.divergence.diverged()
    }

    /// Consumes the next script entry against a point with `arity`
    /// alternatives — the shared core of [`SchedPolicy::choose`] and
    /// [`SchedPolicy::choose_data`]: scheduler and data decisions
    /// interleave in one script, with the same clamping and divergence
    /// accounting for both kinds.
    fn next_entry(&mut self, arity: u32) -> u32 {
        let pick = match self.script.get(self.pos) {
            Some(&i) => {
                if i >= arity {
                    self.divergence.clamped += 1;
                    arity.saturating_sub(1)
                } else {
                    i
                }
            }
            None => {
                if self.strict && arity > 1 {
                    self.divergence.underruns += 1;
                }
                0
            }
        };
        self.pos += 1;
        pick
    }
}

impl SchedPolicy for ReplayPolicy {
    fn choose(&mut self, ready: &[Pid], _step: u64) -> usize {
        self.next_entry(ready.len() as u32) as usize
    }

    fn choose_data(&mut self, arity: u32, _step: u64) -> u32 {
        self.next_entry(arity)
    }

    fn name(&self) -> &str {
        "replay"
    }

    fn replay_divergence(&self) -> Option<ReplayDivergence> {
        Some(self.divergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pids(n: u32) -> Vec<Pid> {
        (0..n).map(Pid).collect()
    }

    #[test]
    fn fifo_picks_oldest() {
        let mut p = FifoPolicy;
        assert_eq!(p.choose(&pids(3), 0), 0);
    }

    #[test]
    fn lifo_picks_newest() {
        let mut p = LifoPolicy;
        assert_eq!(p.choose(&pids(3), 0), 2);
    }

    /// The trait contract requires totality: policies are called directly
    /// by tests and tools with slices the kernel would never pass.
    #[test]
    fn policies_are_total_on_degenerate_inputs() {
        let empty: Vec<Pid> = Vec::new();
        assert_eq!(FifoPolicy.choose(&empty, 0), 0);
        assert_eq!(LifoPolicy.choose(&empty, 0), 0);
        assert_eq!(RandomPolicy::new(1).choose(&empty, 0), 0);
        assert_eq!(ReplayPolicy::new(vec![5]).choose(&empty, 0), 0);
        assert_eq!(FifoPolicy.choose(&pids(1), 0), 0);
        assert_eq!(LifoPolicy.choose(&pids(1), 0), 0);
        assert!(RandomPolicy::new(1).choose(&pids(1), 0) < 1);
        assert_eq!(ReplayPolicy::new(vec![0]).choose(&pids(1), 0), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let r = pids(5);
        let mut a = RandomPolicy::new(42);
        let mut b = RandomPolicy::new(42);
        let seq_a: Vec<_> = (0..20).map(|s| a.choose(&r, s)).collect();
        let seq_b: Vec<_> = (0..20).map(|s| b.choose(&r, s)).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = RandomPolicy::new(43);
        let seq_c: Vec<_> = (0..20).map(|s| c.choose(&r, s)).collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn random_stays_in_bounds() {
        let mut p = RandomPolicy::new(7);
        for step in 0..1000 {
            let n = 2 + (step as usize % 7);
            let pick = p.choose(&pids(n as u32), step);
            assert!(pick < n);
        }
    }

    #[test]
    fn replay_follows_script_then_fifo() {
        let mut p = ReplayPolicy::new(vec![2, 1]);
        assert_eq!(p.choose(&pids(4), 0), 2);
        assert_eq!(p.choose(&pids(4), 1), 1);
        assert_eq!(
            p.choose(&pids(4), 2),
            0,
            "past script end falls back to fifo"
        );
    }

    #[test]
    fn replay_clamps_and_records_out_of_range_entries() {
        let mut p = ReplayPolicy::new(vec![9]);
        assert!(!p.diverged());
        assert_eq!(p.choose(&pids(2), 0), 1, "pick is still clamped");
        assert!(p.diverged(), "but the divergence is recorded");
        assert_eq!(p.divergence().clamped, 1);
        assert_eq!(p.replay_divergence(), Some(p.divergence()));
    }

    #[test]
    fn strict_replay_counts_underruns_prefix_replay_does_not() {
        let mut strict = ReplayPolicy::new(vec![1]);
        assert_eq!(strict.choose(&pids(3), 0), 1);
        assert!(!strict.diverged(), "in-script choices are not divergence");
        assert_eq!(strict.choose(&pids(3), 1), 0);
        assert_eq!(
            strict.divergence().underruns,
            1,
            "script exhausted while choices remained"
        );

        let mut prefix = ReplayPolicy::prefix(vec![1]);
        assert_eq!(prefix.choose(&pids(3), 0), 1);
        assert_eq!(prefix.choose(&pids(3), 1), 0);
        assert!(
            !prefix.diverged(),
            "prefix replay treats exhaustion as the canonical choice"
        );
    }

    #[test]
    fn uncontested_consults_past_script_end_are_not_underruns() {
        // The kernel never consults a policy with < 2 candidates, but if a
        // caller does, a forced pick past the script is no divergence.
        let mut p = ReplayPolicy::new(vec![]);
        assert_eq!(p.choose(&pids(1), 0), 0);
        assert!(!p.diverged());
    }

    #[test]
    fn non_replay_policies_report_no_divergence() {
        assert_eq!(FifoPolicy.replay_divergence(), None);
        assert_eq!(LifoPolicy.replay_divergence(), None);
        assert_eq!(RandomPolicy::new(3).replay_divergence(), None);
    }
}
