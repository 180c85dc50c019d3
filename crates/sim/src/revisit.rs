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
//!
//! The planner works on words and visits each quantum once. Per object
//! slot it keeps the set of quanta so far that read it and that wrote it,
//! so a quantum's conflicts are the OR of a few slot rows rather than a
//! test against every earlier quantum; happens-before is one bitset row
//! per quantum, and a race's adjacency is one AND-NOT. Its buffers live in
//! a per-worker [`Planner`] and are reused from run to run.

use crate::footprint::{Access, QuantumLog};
use crate::trace::Decision;
use crate::types::Pid;
use std::collections::BTreeMap;

/// Sets bit `i` of a bitset row.
#[inline]
fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

/// `dst |= src`, word by word.
#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= *s;
    }
}

/// Clears `bits` and sizes it to `len` zero words, keeping its capacity.
fn zeroed(bits: &mut Vec<u64>, len: usize) {
    bits.clear();
    bits.resize(len, 0);
}

/// The length of the planner's bitsets in words. [`OneWord`], a run of
/// at most 64 quanta and by far the common case, is a constant the
/// compiler sees through: every row copy and clear becomes one store.
trait Words: Copy {
    fn get(self) -> usize;
}

#[derive(Clone, Copy)]
struct OneWord;

impl Words for OneWord {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

#[derive(Clone, Copy)]
struct ManyWords(usize);

impl Words for ManyWords {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// The set bits of a bitset row, lowest first.
fn bits(row: &[u64]) -> Bits<'_> {
    Bits {
        row,
        base: 0,
        word: row.first().copied().unwrap_or(0),
    }
}

/// Iterator of [`bits`].
struct Bits<'a> {
    row: &'a [u64],
    /// The index of the current word's bit 0.
    base: usize,
    /// The current word's bits not yet yielded.
    word: u64,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.base += 64;
            self.word = *self.row.get(self.base / 64)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// Race planning's per-worker scratch: every buffer a plan needs, kept
/// from run to run so that planning allocates nothing once the buffers
/// have grown to the tree's largest run. Every bitset over the run's
/// quanta, and every row, is `m.div_ceil(64)` words long.
#[derive(Default)]
pub(crate) struct Planner {
    /// The last plan's deduplicated `(decision index, sibling choice)`
    /// branch requests, in ascending order.
    requests: Vec<(usize, u32)>,
    /// Quantum → its decision index (`usize::MAX` for a forced dispatch).
    decision_of: Vec<usize>,
    pids: Vec<Pid>,
    /// Per pid, its latest quantum so far (`usize::MAX`: none yet).
    latest: Vec<usize>,
    /// Row `u`: every quantum that happens before quantum `u`.
    before: Vec<u64>,
    /// Row `s`: the quanta so far that read slot `s`, and that wrote it.
    readers: Vec<u64>,
    writers: Vec<u64>,
    /// The quanta so far with the conservative footprint, and with a
    /// non-empty one of their own.
    alls: Vec<u64>,
    touching: Vec<u64>,
    /// The contested quanta so far.
    contested: Vec<u64>,
    /// One quantum's conflicts, direct dependencies, and the quanta its
    /// direct dependencies already order.
    conflicts: Vec<u64>,
    deps: Vec<u64>,
    indirect: Vec<u64>,
    /// The last plan's races per slot, with `"*"` at index `slot_count`.
    races_on: Vec<u64>,
    /// Races per conflicting object over every run planned so far, until
    /// [`Planner::drain_tally`]. A list searched by equality: a tree
    /// races on a few dozen objects at most, and most names differ in
    /// length, so a miss costs one comparison of lengths.
    tally: Vec<(String, u64)>,
}

impl Planner {
    /// The last plan's requests: dispatching `ready[choice]` at that
    /// decision reverses at least one detected race. Choices equal to the
    /// run's own chosen branch are never requested.
    pub(crate) fn requests(&self) -> &[(usize, u32)] {
        &self.requests
    }

    /// Analyses one executed run for reversible races, leaves the
    /// revisit requests that reverse them in [`Planner::requests`], and
    /// returns how many reversible races it found (before the per-run
    /// request dedup) — a pure function of the run, so its sum over all
    /// executed runs is identical for every exploration strategy.
    ///
    /// `prefix_len` is the length of the replay prefix the run was
    /// launched with: quanta at or after the contested quantum of decision
    /// `prefix_len - 1` are *new* (first executed by this run); races
    /// whose later side is older than that were already analysed —
    /// identically — by the ancestor run that shared the prefix, so they
    /// are skipped to keep the request tally a disjoint sum over runs.
    ///
    /// A race is a pair of quanta `(t, u)`, `t` before `u`, such that:
    ///
    /// * `t` is a *contested* dispatch (a decision was taken; a forced
    ///   dispatch has no sibling to revisit — its ready list was a
    ///   singleton, so the reversal is unreachable at that point and is
    ///   found, when real, at the nearest contested ancestor by another
    ///   pair);
    /// * the two quanta belong to different processes and their
    ///   footprints conflict (same object, at least one write — see
    ///   [`crate::Quantum::conflict_with`]);
    /// * no intermediate quantum `v` orders them (`t` happens-before `v`
    ///   happens-before `u`): the race is *adjacent* in the
    ///   happens-before relation, i.e. actually reversible without
    ///   reordering anything else first. Non-adjacent conflicting pairs
    ///   are reversed transitively by chains of adjacent reversals.
    ///
    /// For each race the request is "dispatch `u`'s process at `t`'s
    /// decision". If that process was not in the recorded ready list (it
    /// was parked or not yet spawned at `t` — its later enabledness was
    /// created by an intermediate quantum), the classical conservative
    /// rule applies: every sibling of the node is requested.
    /// Happens-before is the transitive closure of per-process program
    /// order plus footprint conflicts, so a run that was not prune-safe
    /// (timers, faults, watchdog — every footprint widened to the
    /// conservative one) degrades to requesting every sibling everywhere:
    /// exhaustive exploration, never a lost behavior.
    ///
    /// Each found race is also tallied under the conflicting object's
    /// name (the `revisit`-mode meaning of
    /// [`crate::ExploreStats::conflicts`]; see [`Planner::drain_tally`]).
    pub(crate) fn plan(
        &mut self,
        decisions: &[Decision],
        log: &QuantumLog,
        prefix_len: usize,
    ) -> u64 {
        self.requests.clear();
        if log.is_empty() {
            // No footprint log (the explorers force `record_quanta` on,
            // so this is only reachable through a hand-built `Sim` path):
            // degrade to exhaustive sibling expansion.
            for (i, d) in decisions.iter().enumerate() {
                request_all_siblings(&mut self.requests, i, d);
            }
            return 0;
        }
        debug_assert_eq!(
            log.iter().filter(|q| q.ready().is_some()).count(),
            decisions.iter().filter(|d| d.is_sched()).count(),
            "one contested quantum per scheduling decision"
        );
        if decisions.is_empty() {
            return 0;
        }

        // Map contested quanta to their decisions. `Data`-kind decisions
        // (value choices) own no scheduling quantum: their siblings are
        // requested by the symbolic-collapse logic in the engine, not by
        // race analysis. The first quantum this run executed beyond the
        // shared prefix is the contested quantum of the branch decision
        // itself (its dispatched process differs from the ancestor run's,
        // so pairs ending there are new too); a branch at a `Data`-kind
        // decision (a symbolic-collapse grant) owns no quantum, so the
        // nearest scheduling decision before it stands in.
        let m = log.len();
        self.decision_of.clear();
        self.decision_of.resize(m, usize::MAX);
        let mut sched_idx = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_sched())
            .map(|(i, _)| i);
        let mut new_from = 0;
        for (t, q) in log.iter().enumerate() {
            if q.ready().is_some() {
                let i = sched_idx.next().expect("a decision per contested quantum");
                self.decision_of[t] = i;
                if i < prefix_len {
                    new_from = t;
                }
            }
        }

        let slots = log.slot_count();
        let races = match m.div_ceil(64) {
            0 | 1 => self.scan(OneWord, decisions, log, new_from),
            w => self.scan(ManyWords(w), decisions, log, new_from),
        };
        self.requests.sort_unstable();
        self.requests.dedup();
        for (slot, &n) in self.races_on.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let name = if slot == slots {
                "*"
            } else {
                log.obj(slot as u32).as_str()
            };
            match self.tally.iter_mut().find(|(known, _)| known == name) {
                Some((_, count)) => *count += n,
                None => self.tally.push((name.to_string(), n)),
            }
        }
        races
    }

    /// Adds the race tally of every run planned since the last drain to
    /// `race_objs`, and starts a new one.
    pub(crate) fn drain_tally(&mut self, race_objs: &mut BTreeMap<String, u64>) {
        for (name, n) in self.tally.drain(..) {
            *race_objs.entry(name).or_insert(0) += n;
        }
    }

    /// The one pass of [`Planner::plan`] over the run's quanta, with
    /// bitsets `words` words long: computes happens-before, and pushes the
    /// requests of, and tallies, every race ending at or after quantum
    /// `new_from`. Returns the race count.
    fn scan<W: Words>(
        &mut self,
        words: W,
        decisions: &[Decision],
        log: &QuantumLog,
        new_from: usize,
    ) -> u64 {
        let (m, w, slots) = (log.len(), words.get(), log.slot_count());
        // Accumulated rows start empty; rows written before they are read
        // (each quantum's own, and the per-quantum scratch) need only room.
        zeroed(&mut self.readers, slots * w);
        zeroed(&mut self.writers, slots * w);
        for row in [&mut self.alls, &mut self.touching, &mut self.contested] {
            zeroed(row, w);
        }
        zeroed(&mut self.races_on, slots + 1);
        for (rows, len) in [
            (&mut self.before, m * w),
            (&mut self.conflicts, w),
            (&mut self.deps, w),
            (&mut self.indirect, w),
        ] {
            if rows.len() < len {
                rows.resize(len, 0);
            }
        }
        self.pids.clear();
        self.latest.clear();
        let mut races = 0;
        for (u, q) in log.iter().enumerate() {
            let pid = q.pid();
            // The earlier quanta `u` conflicts with: a conservative
            // footprint conflicts with every non-empty one, and a write
            // with every access to its object.
            let conflicts = &mut self.conflicts[..w];
            conflicts.fill(0);
            if q.is_all() {
                or_into(conflicts, &self.touching[..w]);
                or_into(conflicts, &self.alls[..w]);
            } else if !q.is_empty() {
                or_into(conflicts, &self.alls[..w]);
                for &(slot, access) in q.slot_marks() {
                    let row = slot as usize * w..(slot as usize + 1) * w;
                    or_into(conflicts, &self.writers[row.clone()]);
                    if access == Access::Write {
                        or_into(conflicts, &self.readers[row]);
                    }
                }
            }
            // Direct dependencies: the conflicts, plus program order
            // through the process's latest quantum (whose own row holds
            // its earlier ones). What they happen after is ordered
            // through an intermediary.
            let deps = &mut self.deps[..w];
            deps.copy_from_slice(&self.conflicts[..w]);
            match self.latest.get(pid.index()) {
                Some(&prev) if prev != usize::MAX => set_bit(deps, prev),
                _ => {}
            }
            let indirect = &mut self.indirect[..w];
            indirect.fill(0);
            for v in bits(deps) {
                or_into(indirect, &self.before[v * w..(v + 1) * w]);
            }
            let row_u = &mut self.before[u * w..(u + 1) * w];
            row_u.copy_from_slice(deps);
            or_into(row_u, indirect);

            // Races ending at `u`: conflicting contested quanta of other
            // processes that nothing in between orders.
            if u >= new_from {
                let candidates = &mut self.conflicts[..w];
                for ((c, &contested), &indirect) in candidates
                    .iter_mut()
                    .zip(&self.contested[..w])
                    .zip(&self.indirect[..w])
                {
                    *c &= contested & !indirect;
                }
                for t in bits(candidates) {
                    if self.pids[t] == pid {
                        continue;
                    }
                    races += 1;
                    let earlier = log.get(t).expect("an earlier quantum");
                    let slot = earlier.conflict_slot(&q).expect("a conflicting pair");
                    self.races_on[slot.map_or(slots, |s| s as usize)] += 1;
                    let i = self.decision_of[t];
                    let ready = earlier.ready().expect("a contested quantum");
                    match ready.iter().position(|p| *p == pid) {
                        Some(c) => {
                            let c = c as u32;
                            debug_assert_ne!(
                                c, decisions[i].chosen,
                                "a process cannot race itself"
                            );
                            self.requests.push((i, c));
                        }
                        // The racing process was not dispatchable at the
                        // decision: classical DPOR's conservative rule —
                        // request everything enabled there.
                        None => request_all_siblings(&mut self.requests, i, &decisions[i]),
                    }
                }
            }

            // Account `u` for the quanta after it.
            for &(slot, access) in q.slot_marks() {
                let rows = match access {
                    Access::Read => &mut self.readers,
                    Access::Write => &mut self.writers,
                };
                set_bit(&mut rows[slot as usize * w..(slot as usize + 1) * w], u);
            }
            if q.is_all() {
                set_bit(&mut self.alls[..w], u);
            } else if !q.is_empty() {
                set_bit(&mut self.touching[..w], u);
            }
            if self.decision_of[u] != usize::MAX {
                set_bit(&mut self.contested[..w], u);
            }
            self.pids.push(pid);
            if self.latest.len() <= pid.index() {
                self.latest.resize(pid.index() + 1, usize::MAX);
            }
            self.latest[pid.index()] = u;
        }
        races
    }
}

/// Requests every sibling of decision `i`: the sound fallback when the
/// run carries no usable footprint log (and for the conservative "racing
/// process was not ready" case at a single node).
fn request_all_siblings(requests: &mut Vec<(usize, u32)>, i: usize, d: &Decision) {
    requests.extend((0..d.arity).filter(|&c| c != d.chosen).map(|c| (i, c)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::tests::log_of;
    use crate::policy::SplitMix64;

    const W: Option<&[(&str, Access)]> = Some(&[("a", Access::Write)]);

    fn decision(chosen: u32, arity: u32) -> Decision {
        Decision::sched(arity, chosen)
    }

    /// Plans one log with a fresh planner: `(races, requests, tally)`.
    fn plan(
        decisions: &[Decision],
        log: &QuantumLog,
        prefix_len: usize,
    ) -> (u64, Vec<(usize, u32)>, BTreeMap<String, u64>) {
        let mut planner = Planner::default();
        let races = planner.plan(decisions, log, prefix_len);
        let mut race_objs = BTreeMap::new();
        planner.drain_tally(&mut race_objs);
        (races, planner.requests().to_vec(), race_objs)
    }

    /// Two writers of one object, dispatched 0-then-1: one race, one
    /// request to run process 1 first.
    #[test]
    fn conflicting_writes_request_the_reversal() {
        let decisions = [decision(0, 2), decision(0, 1)];
        let log = log_of(&[(0, W, Some(&[0, 1])), (1, W, Some(&[1]))]);
        let (races, requests, race_objs) = plan(&decisions, &log, 0);
        assert_eq!(races, 1);
        assert_eq!(requests, vec![(0usize, 1u32)]);
        assert_eq!(race_objs.get("a"), Some(&1));
    }

    /// Disjoint objects never race: nothing is requested, the whole
    /// sibling subtree is (later) counted as pruned.
    #[test]
    fn independent_quanta_request_nothing() {
        let decisions = [decision(0, 2), decision(0, 1)];
        let log = log_of(&[
            (0, Some(&[("a", Access::Write)]), Some(&[0, 1])),
            (1, Some(&[("b", Access::Write)]), Some(&[1])),
        ]);
        let (races, requests, race_objs) = plan(&decisions, &log, 0);
        assert_eq!(races, 0);
        assert!(requests.is_empty());
        assert!(race_objs.is_empty());
    }

    /// A race ordered through an intermediary is not adjacent: process 2's
    /// write is ordered after process 0's by process 1's intervening write
    /// to the same object, so only the adjacent pairs are requested.
    #[test]
    fn transitively_ordered_pairs_are_not_races() {
        let decisions = [decision(0, 3), decision(0, 2), decision(0, 1)];
        let log = log_of(&[
            (0, W, Some(&[0, 1, 2])),
            (1, W, Some(&[1, 2])),
            (2, W, Some(&[2])),
        ]);
        let (races, requests, _) = plan(&decisions, &log, 0);
        // (0,1) and (1,2) are adjacent races; (0,2) is ordered through 1.
        assert_eq!(races, 2);
        assert_eq!(requests, vec![(0, 1), (1, 1)]);
    }

    /// Races entirely before the run's own branch quantum are the
    /// ancestor run's to report: `prefix_len` masks them, keeping the
    /// request tally a disjoint sum over runs.
    #[test]
    fn old_races_are_not_reanalysed() {
        let decisions = [decision(0, 3), decision(1, 2), decision(1, 2)];
        let log = log_of(&[
            (0, W, Some(&[0, 1, 2])),
            (2, W, Some(&[1, 2])),
            (1, Some(&[("b", Access::Write)]), Some(&[0, 1])),
        ]);
        // prefix [0, 1, 1]: only the third contested quantum on is new, so
        // the (q0, q1) race on "a" is old news and nothing else conflicts.
        let (races, requests, _) = plan(&decisions, &log, 3);
        assert_eq!(races, 0, "prefix-internal races are not re-reported");
        assert!(requests.is_empty());
        // The same log analysed as the root run sees the race.
        let (races, requests, _) = plan(&decisions, &log, 0);
        assert_eq!(races, 1);
        assert_eq!(
            requests,
            vec![(0, 2)],
            "dispatch the racing process (ready index 2) at the decision"
        );
    }

    /// A racing process missing from the ready list triggers the
    /// conservative everything-enabled fallback.
    #[test]
    fn unready_racer_requests_all_siblings() {
        let decisions = [decision(0, 3), decision(0, 1)];
        // pid 9 was not in the ready list at the decision.
        let log = log_of(&[(0, W, Some(&[0, 1, 2])), (9, W, Some(&[9]))]);
        let (_, requests, _) = plan(&decisions, &log, 0);
        assert_eq!(requests, vec![(0, 1), (0, 2)]);
    }

    /// No usable quantum log: every sibling everywhere, exhaustively.
    #[test]
    fn missing_log_degrades_to_exhaustive() {
        let decisions = [decision(0, 2), decision(0, 3)];
        let (_, requests, _) = plan(&decisions, &QuantumLog::default(), 0);
        assert_eq!(requests, vec![(0, 1), (1, 1), (1, 2)]);
    }

    /// The plan straight from the definition, on the log's own conflict
    /// helper: an O(m³) scan with a request set.
    fn reference(
        decisions: &[Decision],
        log: &QuantumLog,
        prefix_len: usize,
    ) -> (u64, Vec<(usize, u32)>, BTreeMap<String, u64>) {
        let q: Vec<_> = log.iter().collect();
        let m = q.len();
        let dep = |t: usize, u: usize| q[t].pid() == q[u].pid() || q[t].conflicts(&q[u]);
        let mut hb = vec![vec![false; m]; m];
        for u in 0..m {
            for t in 0..u {
                if dep(t, u) {
                    hb[u][t] = true;
                    let (head, tail) = hb.split_at_mut(u);
                    for (d, s) in tail[0][..t].iter_mut().zip(&head[t][..t]) {
                        *d |= *s;
                    }
                }
            }
        }
        let contested: Vec<usize> = (0..m).filter(|&t| q[t].ready().is_some()).collect();
        let new_from = prefix_len.checked_sub(1).map_or(0, |i| contested[i]);
        let (mut races, mut requests, mut objs) =
            (0, std::collections::BTreeSet::new(), BTreeMap::new());
        for (i, &t) in contested.iter().enumerate() {
            for u in new_from.max(t + 1)..m {
                let Some(obj) = q[t].conflict_with(&q[u]) else {
                    continue;
                };
                if q[t].pid() == q[u].pid() || (t + 1..u).any(|v| hb[v][t] && hb[u][v]) {
                    continue;
                }
                races += 1;
                *objs.entry(obj.to_string()).or_insert(0) += 1;
                match q[t].ready().unwrap().iter().position(|&p| p == q[u].pid()) {
                    Some(c) => {
                        requests.insert((i, c as u32));
                    }
                    None => requests.extend(
                        (0..decisions[i].arity)
                            .filter(|&c| c != decisions[i].chosen)
                            .map(|c| (i, c)),
                    ),
                }
            }
        }
        (races, requests.into_iter().collect(), objs)
    }

    /// The word-level planner agrees with the definition on random logs:
    /// up to 70 quanta (two happens-before words) over up to 70 objects
    /// (two slot words), with conservative footprints and stutters mixed
    /// in, at every prefix length. One planner serves every log, as one
    /// worker's does.
    #[test]
    fn word_planner_matches_the_definition_on_random_logs() {
        struct Rng(SplitMix64);
        impl Rng {
            fn below(&mut self, n: usize) -> usize {
                self.0.next_below(n as u64) as usize
            }
        }
        let names: Vec<String> = (0..70).map(|i| format!("o{i:02}")).collect();
        let mut rng = Rng(SplitMix64::new(0x5107));
        let mut planner = Planner::default();
        for case in 0..300 {
            let m = 1 + rng.below(if case % 10 == 0 { 70 } else { 16 });
            let objects = 1 + rng.below(if case % 7 == 0 { 70 } else { 5 });
            let pids = 2 + rng.below(3) as u32;
            let mut footprints = Vec::new();
            let mut ready = Vec::new();
            let mut decisions = Vec::new();
            for _ in 0..m {
                let pid = rng.below(pids as usize) as u32;
                let footprint: Option<Vec<(&str, Access)>> = (rng.below(12) != 0).then(|| {
                    (0..rng.below(4))
                        .map(|_| {
                            let access = if rng.below(2) == 0 {
                                Access::Read
                            } else {
                                Access::Write
                            };
                            (names[rng.below(objects)].as_str(), access)
                        })
                        .collect()
                });
                let contested = rng.below(3) != 0;
                ready.push(contested.then(|| {
                    let mut list: Vec<u32> = (0..pids)
                        .filter(|&p| p != pid && rng.below(2) == 0)
                        .collect();
                    let at = rng.below(list.len() + 1);
                    list.insert(at, pid);
                    decisions.push(decision(at as u32, list.len() as u32));
                    list
                }));
                footprints.push((pid, footprint));
            }
            let quanta: Vec<_> = footprints
                .iter()
                .zip(&ready)
                .map(|((pid, fp), r)| (*pid, fp.as_deref(), r.as_deref()))
                .collect();
            let log = log_of(&quanta);
            for prefix_len in 0..=decisions.len() {
                let races = planner.plan(&decisions, &log, prefix_len);
                let mut race_objs = BTreeMap::new();
                planner.drain_tally(&mut race_objs);
                let got = (races, planner.requests().to_vec(), race_objs);
                assert_eq!(
                    got,
                    reference(&decisions, &log, prefix_len),
                    "case {case}, prefix {prefix_len}"
                );
            }
        }
    }
}
