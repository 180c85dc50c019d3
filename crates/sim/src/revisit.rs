//! Race-driven revisit planning for the DPOR prune mode.
//!
//! Instead of branching at every sibling of every contested decision,
//! each executed run is analysed for **reversible races** — pairs of
//! quanta by different processes whose footprints conflict and that no
//! third quantum orders — and only the sibling branches that *reverse a
//! detected race* are scheduled. A sibling never named by any race commutes, footprint-wise,
//! with everything the canonical subtree already executes, so its whole
//! subtree is Mazurkiewicz-equivalent to explored schedules and is counted
//! as pruned without ever running.
//!
//! This is the classical happens-before DPOR backtracking rule
//! (Flanagan–Godefroid), in the reads-from-revisit formulation the
//! TraceForge line of work uses: the revisit targets the earlier side of
//! the race and asks for the later side's process to be dispatched there.
//! Everything is computed from *one run's own log* — decisions, per-quantum
//! footprints, and the recorded ready lists — which is what lets every
//! worker count arrive at the byte-identical explored set: the set of
//! executed schedules is the least fixed point of "the root schedule,
//! plus every revisit any executed schedule requests", and that fixed
//! point does not depend on the order requests are discovered in. See
//! `DESIGN.md` §2.14 for the soundness argument.

use crate::footprint::QuantumRecord;
use crate::trace::Decision;
use std::collections::{BTreeMap, BTreeSet};

/// What one executed run's race analysis wants explored.
#[derive(Debug, Default)]
pub(crate) struct RevisitPlan {
    /// Deduplicated `(decision index, sibling choice)` branch requests:
    /// dispatching `ready[choice]` at that decision reverses at least one
    /// detected race. Choices equal to the run's own chosen branch are
    /// never requested.
    pub(crate) requests: BTreeSet<(usize, u32)>,
    /// How many reversible races the analysis found (before the per-run
    /// request dedup). A pure function of the run, so summing it over all
    /// executed runs is identical for every exploration strategy.
    pub(crate) races: u64,
}

/// Row-major dense bitset: `rows` quanta × `rows` quanta happens-before
/// matrix, one `u64` word per 64 columns.
struct HbMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl HbMatrix {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        HbMatrix {
            words,
            bits: vec![0; words * n],
        }
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> bool {
        (self.bits[row * self.words + col / 64] >> (col % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    /// `row dst |= row src` — requires `src < dst` (happens-before only
    /// flows forward in the run).
    fn union_row(&mut self, dst: usize, src: usize) {
        debug_assert!(src < dst);
        let (head, tail) = self.bits.split_at_mut(dst * self.words);
        let src = &head[src * self.words..(src + 1) * self.words];
        for (d, s) in tail[..self.words].iter_mut().zip(src) {
            *d |= *s;
        }
    }
}

/// Requests every sibling of every decision: the sound fallback when the
/// run carries no usable footprint log (and for the conservative
/// "racing process was not ready" case at a single node).
fn request_all_siblings(requests: &mut BTreeSet<(usize, u32)>, i: usize, d: &Decision) {
    for c in 0..d.arity {
        if c != d.chosen {
            requests.insert((i, c));
        }
    }
}

/// Analyses one executed run for reversible races and returns the revisit
/// requests that reverse them.
///
/// `prefix_len` is the length of the replay prefix the run was launched
/// with: quanta at or after the contested quantum of decision
/// `prefix_len - 1` are *new* (first executed by this run); races whose
/// later side is older than that were already analysed — identically —
/// by the ancestor run that shared the prefix, so they are skipped to
/// keep the request tally a disjoint sum over runs.
///
/// A race is a pair of quanta `(t, u)`, `t` before `u`, such that:
///
/// * `t` is a *contested* dispatch (a decision was taken; a forced
///   dispatch has no sibling to revisit — its ready list was a
///   singleton, so the reversal is unreachable at that point and is
///   found, when real, at the nearest contested ancestor by another
///   pair);
/// * the two quanta belong to different processes and their footprints
///   conflict (same object, at least one write — [`crate::Footprint`]);
/// * no intermediate quantum `v` orders them (`t` happens-before `v`
///   happens-before `u`): the race is *adjacent* in the happens-before
///   relation, i.e. actually reversible without reordering anything else
///   first. Non-adjacent conflicting pairs are reversed transitively by
///   chains of adjacent reversals.
///
/// For each race the request is "dispatch `u`'s process at `t`'s
/// decision". If that process was not in the recorded ready list (it was
/// parked or not yet spawned at `t` — its later enabledness was created
/// by an intermediate quantum), the classical conservative rule applies:
/// every sibling of the node is requested. Happens-before is the
/// transitive closure of per-process program order plus footprint
/// conflicts, so a run that was not prune-safe (timers, faults, watchdog
/// — every footprint forced to [`crate::Footprint::All`]) degrades to
/// requesting every sibling everywhere: exhaustive exploration, never a
/// lost behavior.
///
/// Each found race is also tallied per conflicting object into
/// `race_objs` (the `revisit`-mode meaning of
/// [`crate::ExploreStats::conflicts`]).
pub(crate) fn plan_revisits(
    decisions: &[Decision],
    quanta: &[QuantumRecord],
    prefix_len: usize,
    race_objs: &mut BTreeMap<String, u64>,
) -> RevisitPlan {
    let mut plan = RevisitPlan::default();
    let sched_total = decisions.iter().filter(|d| d.is_sched()).count();
    let contested = quanta.iter().filter(|q| q.ready.is_some()).count();
    if contested != sched_total {
        // No usable footprint log (the explorers force `record_quanta` on,
        // so this is only reachable through a hand-built `Sim` path):
        // degrade to exhaustive sibling expansion.
        debug_assert!(quanta.is_empty(), "partial quantum log");
        for (i, d) in decisions.iter().enumerate() {
            request_all_siblings(&mut plan.requests, i, d);
        }
        return plan;
    }
    if decisions.is_empty() {
        return plan;
    }

    // Map contested quanta to their decision indices and back. `Data`-kind
    // decisions (value choices) own no scheduling quantum: `quantum_of`
    // stays `usize::MAX` for them and the race loop skips them — their
    // siblings are requested by the symbolic-collapse logic in the
    // explorers, not by race analysis.
    let m = quanta.len();
    let mut decision_at = vec![usize::MAX; m];
    let mut quantum_of = vec![usize::MAX; decisions.len()];
    let mut sched_idx = decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_sched())
        .map(|(i, _)| i);
    for (t, q) in quanta.iter().enumerate() {
        if q.ready.is_some() {
            let i = sched_idx.next().expect("counted above");
            decision_at[t] = i;
            quantum_of[i] = t;
        }
    }
    // The first quantum this run executed beyond the shared prefix: the
    // contested quantum of the branch decision itself (its dispatched
    // process differs from the ancestor run's, so pairs ending there are
    // new too). A branch at a `Data`-kind decision (a symbolic-collapse
    // grant) owns no quantum; fall back to the nearest scheduling decision
    // at or before it.
    let new_from = if prefix_len == 0 {
        0
    } else {
        (0..prefix_len)
            .rev()
            .map(|i| quantum_of[i])
            .find(|&t| t != usize::MAX)
            .unwrap_or(0)
    };

    // Happens-before closure: hb[u] ⊇ {t} ∪ hb[t] for every t < u whose
    // quantum is program-order or footprint dependent with u's.
    let mut hb = HbMatrix::new(m);
    for u in 1..m {
        for t in 0..u {
            if quanta[t].pid == quanta[u].pid || quanta[t].footprint.conflicts(&quanta[u].footprint)
            {
                hb.union_row(u, t);
                hb.set(u, t);
            }
        }
    }

    // Races: earlier side contested, later side new, conflicting,
    // adjacent in happens-before.
    for (i, &t) in quantum_of.iter().enumerate() {
        if t == usize::MAX {
            continue; // data decision: no quantum, no race to reverse
        }
        let d = &decisions[i];
        for u in new_from.max(t + 1)..m {
            if quanta[t].pid == quanta[u].pid {
                continue;
            }
            let Some(obj) = quanta[t].footprint.conflict_with(&quanta[u].footprint) else {
                continue;
            };
            if ((t + 1)..u).any(|v| hb.get(v, t) && hb.get(u, v)) {
                continue; // ordered through an intermediary: not reversible here
            }
            plan.races += 1;
            *race_objs.entry(obj.to_string()).or_insert(0) += 1;
            let ready = quanta[t].ready.as_ref().expect("contested quantum");
            match ready.iter().position(|p| *p == quanta[u].pid) {
                Some(c) => {
                    let c = c as u32;
                    debug_assert_ne!(c, d.chosen, "a process cannot race itself");
                    plan.requests.insert((i, c));
                }
                // The racing process was not dispatchable at the decision:
                // classical DPOR's conservative rule — request everything
                // enabled there.
                None => request_all_siblings(&mut plan.requests, i, d),
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{merge_access, Access, Footprint, ObjId};
    use crate::types::Pid;

    fn objs(entries: &[(&str, Access)]) -> Footprint {
        let mut map = std::collections::BTreeMap::new();
        for (name, access) in entries {
            merge_access(&mut map, ObjId::pseudo(name), *access);
        }
        Footprint::Objs(map)
    }

    fn quantum(pid: u32, footprint: Footprint, ready: Option<&[u32]>) -> QuantumRecord {
        QuantumRecord {
            pid: Pid(pid),
            footprint,
            ready: ready.map(|pids| pids.iter().map(|&p| Pid(p)).collect()),
        }
    }

    fn decision(chosen: u32, arity: u32) -> Decision {
        Decision::sched(arity, chosen)
    }

    /// Two writers of one object, dispatched 0-then-1: one race, one
    /// request to run process 1 first.
    #[test]
    fn conflicting_writes_request_the_reversal() {
        let w = |name| objs(&[(name, Access::Write)]);
        let decisions = [decision(0, 2), decision(0, 1)];
        let quanta = [
            quantum(0, w("a"), Some(&[0, 1])),
            quantum(1, w("a"), Some(&[1])),
        ];
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &quanta, 0, &mut race_objs);
        assert_eq!(plan.races, 1);
        assert_eq!(
            plan.requests.into_iter().collect::<Vec<_>>(),
            vec![(0usize, 1u32)]
        );
        assert_eq!(race_objs.get("a"), Some(&1));
    }

    /// Disjoint objects never race: nothing is requested, the whole
    /// sibling subtree is (later) counted as pruned.
    #[test]
    fn independent_quanta_request_nothing() {
        let decisions = [decision(0, 2), decision(0, 1)];
        let quanta = [
            quantum(0, objs(&[("a", Access::Write)]), Some(&[0, 1])),
            quantum(1, objs(&[("b", Access::Write)]), Some(&[1])),
        ];
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &quanta, 0, &mut race_objs);
        assert_eq!(plan.races, 0);
        assert!(plan.requests.is_empty());
        assert!(race_objs.is_empty());
    }

    /// A race ordered through an intermediary is not adjacent: process 2's
    /// write is ordered after process 0's by process 1's intervening write
    /// to the same object, so only the adjacent pairs are requested.
    #[test]
    fn transitively_ordered_pairs_are_not_races() {
        let w = objs(&[("a", Access::Write)]);
        let decisions = [decision(0, 3), decision(0, 2), decision(0, 1)];
        let quanta = [
            quantum(0, w.clone(), Some(&[0, 1, 2])),
            quantum(1, w.clone(), Some(&[1, 2])),
            quantum(2, w.clone(), Some(&[2])),
        ];
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &quanta, 0, &mut race_objs);
        // (0,1) and (1,2) are adjacent races; (0,2) is ordered through 1.
        assert_eq!(plan.races, 2);
        assert_eq!(
            plan.requests.into_iter().collect::<Vec<_>>(),
            vec![(0, 1), (1, 1)]
        );
    }

    /// Races entirely before the run's own branch quantum are the
    /// ancestor run's to report: `prefix_len` masks them, keeping the
    /// request tally a disjoint sum over runs.
    #[test]
    fn old_races_are_not_reanalysed() {
        let w = |name| objs(&[(name, Access::Write)]);
        let decisions = [decision(0, 3), decision(1, 2), decision(1, 2)];
        let quanta = [
            quantum(0, w("a"), Some(&[0, 1, 2])),
            quantum(2, w("a"), Some(&[1, 2])),
            quantum(1, w("b"), Some(&[0, 1])),
        ];
        // prefix [0, 1, 1]: only the third contested quantum on is new, so
        // the (q0, q1) race on "a" is old news and nothing else conflicts.
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &quanta, 3, &mut race_objs);
        assert_eq!(plan.races, 0, "prefix-internal races are not re-reported");
        assert!(plan.requests.is_empty());
        // The same log analysed as the root run sees the race.
        let mut all_objs = BTreeMap::new();
        let root = plan_revisits(&decisions, &quanta, 0, &mut all_objs);
        assert_eq!(root.races, 1);
        assert_eq!(
            root.requests.into_iter().collect::<Vec<_>>(),
            vec![(0, 2)],
            "dispatch the racing process (ready index 2) at the decision"
        );
    }

    /// A racing process missing from the ready list triggers the
    /// conservative everything-enabled fallback.
    #[test]
    fn unready_racer_requests_all_siblings() {
        let w = objs(&[("a", Access::Write)]);
        let decisions = [decision(0, 3), decision(0, 1)];
        let quanta = [
            quantum(0, w.clone(), Some(&[0, 1, 2])),
            // pid 9 was not in the ready list at the decision.
            quantum(9, w, Some(&[9])),
        ];
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &quanta, 0, &mut race_objs);
        assert_eq!(
            plan.requests.into_iter().collect::<Vec<_>>(),
            vec![(0, 1), (0, 2)]
        );
    }

    /// No usable quantum log: every sibling everywhere, exhaustively.
    #[test]
    fn missing_log_degrades_to_exhaustive() {
        let decisions = [decision(0, 2), decision(0, 3)];
        let mut race_objs = BTreeMap::new();
        let plan = plan_revisits(&decisions, &[], 0, &mut race_objs);
        assert_eq!(
            plan.requests.into_iter().collect::<Vec<_>>(),
            vec![(0, 1), (1, 1), (1, 2)]
        );
    }
}
