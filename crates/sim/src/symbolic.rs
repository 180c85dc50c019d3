//! Symbolic data nondeterminism: value decision points and the
//! hand-rolled constraint domain behind [`crate::Ctx::choose_value`]
//! (DESIGN.md §2.15).
//!
//! A `choose_value` call registers a *data decision*: a point whose
//! outcome is a value drawn from a finite integer domain rather than a
//! scheduler pick. Data decisions live in the same decision vector as
//! scheduling decisions ([`crate::DecisionKind`] tags them apart), so
//! replay, journaling, shrinking, and export all handle them with no
//! special cases — a decision vector is still just a `Vec<u32>`.
//!
//! The payoff is the constraint log. Every comparison a run makes
//! against a drawn [`SymValue`] is recorded as an `(op, rhs)` pair on the
//! run's [`DataChoice`] record. Two values that agree on the outcome of
//! every comparison a run recorded are indistinguishable *to that run*:
//! replaying the same decisions with the other value yields a
//! step-for-step identical execution (values reach a program only through
//! `SymValue` observations, each of which is logged). The revisit
//! explorer exploits this to execute one representative per constraint
//! class instead of one run per concrete value — see
//! [`DataChoice::collapse_requests`] and `PruneMode::Revisit`. The
//! depth-first modes enumerate every value concretely; they see only the
//! facts of their own discovery run, which is not enough to collapse
//! soundly.
//!
//! No external solver: domains are finite `i64` sets and constraints are
//! the six integer comparisons, so "solving" is evaluating each candidate
//! value against the recorded comparisons.

use crate::kernel::Shared;
use crate::trace::{Decision, EventKind};
use crate::types::Pid;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One of the six integer comparisons a [`SymValue`] can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Evaluates `lhs OP rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        })
    }
}

/// Everything one run recorded about one contested data decision point:
/// the k-th entry of [`crate::SimReport::data_choices`] describes the
/// k-th `Data`-kind entry of the report's decision vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataChoice {
    /// The label passed to [`crate::Ctx::choose_value`].
    pub label: String,
    /// The domain, sorted ascending and deduplicated; `chosen` indexes it.
    pub domain: Vec<i64>,
    /// Index into `domain` of the value this run observed.
    pub chosen: u32,
    /// Every comparison the run made against the drawn value, as
    /// `(op, rhs)` pairs. A [`SymValue::get`] call sets `concretized`
    /// instead: the exact value escaped the constraint log.
    pub constraints: BTreeSet<(CmpOp, i64)>,
    /// Whether the run observed the exact value ([`SymValue::get`]),
    /// which partitions the domain into singletons: no two values can be
    /// collapsed once one of them has been read out raw.
    pub concretized: bool,
}

impl DataChoice {
    /// The constraint signature of a domain value under this run's
    /// recorded observations. Two values with equal signatures are
    /// indistinguishable to this run.
    fn signature(&self, value: i64) -> Vec<bool> {
        self.constraints
            .iter()
            .map(|&(op, rhs)| op.eval(value, rhs))
            .collect()
    }

    /// Domain indices the revisit explorer should schedule from this run:
    /// the minimal representative of every constraint class other than
    /// the chosen value's. Values in the chosen class are collapsed —
    /// this run already is their representative. With `concretized` set,
    /// every class is a singleton and all siblings are returned (raw
    /// reads defeat collapse by construction).
    pub fn collapse_requests(&self) -> Vec<u32> {
        if self.concretized {
            return (0..self.domain.len() as u32)
                .filter(|&i| i != self.chosen)
                .collect();
        }
        let chosen_sig = self.signature(self.domain[self.chosen as usize]);
        let mut seen: BTreeSet<Vec<bool>> = BTreeSet::from([chosen_sig]);
        let mut reps = Vec::new();
        for (i, &v) in self.domain.iter().enumerate() {
            if seen.insert(self.signature(v)) {
                reps.push(i as u32);
            }
        }
        reps
    }
}

/// A value drawn from a [`crate::Ctx::choose_value`] domain.
///
/// Carries the concrete value of *this* run plus a handle back to the
/// kernel so every observation is logged on the run's [`DataChoice`]
/// record. Clone it freely and hand it to other processes — observations
/// from any process land on the same record. Prefer the comparison
/// methods over [`SymValue::get`]: a comparison records exactly what the
/// program learned, which is what lets the revisit explorer collapse
/// indistinguishable valuations; `get` concedes the exact value and
/// forces concrete enumeration of the whole domain.
#[derive(Clone)]
pub struct SymValue {
    shared: Arc<Shared>,
    /// `None` for a singleton domain: no decision was recorded and no
    /// observation can distinguish anything.
    slot: Option<usize>,
    value: i64,
}

impl fmt::Debug for SymValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymValue")
            .field("value", &self.value)
            .field("slot", &self.slot)
            .finish()
    }
}

impl SymValue {
    fn observe(&self, op: CmpOp, rhs: i64) -> bool {
        if let Some(slot) = self.slot {
            let mut st = self.shared.state.lock();
            if let Some(dc) = st.data_choices.get_mut(slot) {
                dc.constraints.insert((op, rhs));
            }
        }
        op.eval(self.value, rhs)
    }

    /// `self < rhs`, recording the comparison.
    pub fn lt(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`, recording the comparison.
    pub fn le(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Le, rhs)
    }

    /// `self > rhs`, recording the comparison.
    pub fn gt(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`, recording the comparison.
    pub fn ge(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Ge, rhs)
    }

    /// `self == rhs`, recording the comparison. (Inherent by design —
    /// this is an observation with a side effect, not `PartialEq`.)
    #[allow(clippy::should_implement_trait)]
    pub fn eq(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Eq, rhs)
    }

    /// `self != rhs`, recording the comparison.
    pub fn ne(&self, rhs: i64) -> bool {
        self.observe(CmpOp::Ne, rhs)
    }

    /// The drawn value interpreted as a boolean (`!= 0`), recording the
    /// comparison — the boolean face of the domain.
    pub fn truth(&self) -> bool {
        self.observe(CmpOp::Ne, 0)
    }

    /// The exact concrete value. This marks the decision point as
    /// *concretized*: the raw value escaped into arbitrary program logic,
    /// so no two domain values can soundly be collapsed afterwards.
    /// Prefer the comparison methods when the program only needs a
    /// predicate of the value.
    pub fn get(&self) -> i64 {
        if let Some(slot) = self.slot {
            let mut st = self.shared.state.lock();
            if let Some(dc) = st.data_choices.get_mut(slot) {
                dc.concretized = true;
            }
        }
        self.value
    }
}

/// Kernel-side implementation of [`crate::Ctx::choose_value`]: record the
/// data decision (policy-picked, replayable) and open its constraint
/// slot. Runs synchronously under the state lock — a data decision is
/// *not* a scheduling point; the calling process keeps the CPU.
pub(crate) fn choose(
    shared: &Arc<Shared>,
    pid: Pid,
    label: &str,
    mut domain: Vec<i64>,
) -> SymValue {
    domain.sort_unstable();
    domain.dedup();
    assert!(
        !domain.is_empty(),
        "choose_value(\"{label}\"): empty domain"
    );
    if domain.len() == 1 {
        // Uncontested: a singleton domain decides nothing, exactly as a
        // one-candidate dispatch records no scheduling decision.
        return SymValue {
            shared: Arc::clone(shared),
            slot: None,
            value: domain[0],
        };
    }
    let (value, slot) = {
        let mut st = shared.state.lock();
        let arity = domain.len() as u32;
        let step = st.step;
        let pick = st.policy.choose_data(arity, step).min(arity - 1);
        st.decisions.push(Decision::data(arity, pick));
        let value = domain[pick as usize];
        let slot = st.data_choices.len();
        st.data_choices.push(DataChoice {
            label: label.to_string(),
            domain,
            chosen: pick,
            constraints: BTreeSet::new(),
            concretized: false,
        });
        if st.record_sched_events {
            let clock = st.clock;
            st.trace.push(
                clock,
                pid,
                EventKind::ChoseValue {
                    label: label.to_string(),
                    value,
                },
            );
        }
        (value, slot)
    };
    SymValue {
        shared: Arc::clone(shared),
        slot: Some(slot),
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(domain: Vec<i64>, chosen: u32, constraints: &[(CmpOp, i64)]) -> DataChoice {
        DataChoice {
            label: "x".into(),
            domain,
            chosen,
            constraints: constraints.iter().copied().collect(),
            concretized: false,
        }
    }

    #[test]
    fn cmp_ops_evaluate() {
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Le.eval(2, 2));
        assert!(CmpOp::Gt.eval(3, 2));
        assert!(CmpOp::Ge.eval(2, 2));
        assert!(CmpOp::Eq.eval(2, 2));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
    }

    #[test]
    fn no_constraints_collapse_everything() {
        // A run that never observes the value cannot be distinguished by
        // it: one class, no requests.
        let d = dc(vec![1, 2, 3, 4], 0, &[]);
        assert!(d.collapse_requests().is_empty());
    }

    #[test]
    fn classes_partition_by_constraint_outcomes() {
        // gt(0), gt(1), gt(2) over 1..=8: classes {1}, {2}, {3..8}.
        let d = dc(
            (1..=8).collect(),
            0,
            &[(CmpOp::Gt, 0), (CmpOp::Gt, 1), (CmpOp::Gt, 2)],
        );
        // Chosen value 1 is its own class; representatives of the other
        // two classes are value 2 (index 1) and value 3 (index 2).
        assert_eq!(d.collapse_requests(), vec![1, 2]);
    }

    #[test]
    fn chosen_class_is_never_requested() {
        // eq(2) over {1,2,3}: classes {1,3} and {2}. From the run that
        // chose 3, only 2's class needs a representative — 1 is collapsed
        // into 3's.
        let d = dc(vec![1, 2, 3], 2, &[(CmpOp::Eq, 2)]);
        assert_eq!(d.collapse_requests(), vec![1]);
    }

    #[test]
    fn concretized_requests_every_sibling() {
        let d = DataChoice {
            concretized: true,
            ..dc(vec![1, 2, 3], 1, &[(CmpOp::Gt, 0)])
        };
        assert_eq!(d.collapse_requests(), vec![0, 2]);
    }
}
