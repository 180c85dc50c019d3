//! Compilation of a [`Path`] into a token machine.
//!
//! The translation generalizes Campbell & Habermann's semaphore encoding
//! into a small Petri-net-like structure:
//!
//! * `path e end` — a *root place* holding one token; the body takes from
//!   and returns to it, which makes the path cyclic.
//! * `e1 ; e2` — an internal place between the elements: finishing `e1`
//!   deposits a token that starting `e2` consumes.
//! * `e1 , e2` — the alternatives share the same entry/exit ports, so
//!   exactly one of them consumes each cycle's token.
//! * `{ e }` — a *burst* counter: the first process to start `e` consumes
//!   the enclosing token and opens the burst; further processes join while
//!   the counter is positive; the last to finish closes the burst and
//!   returns the enclosing token (first-in/last-out).
//! * `n : ( e )` — a burst whose counter is capped at `n` (the version-2
//!   numeric operator).
//!
//! Each operation occurrence compiles to a pair of *ports*: starting the
//! operation performs a `take` through its entry port, finishing performs a
//! `put` through its exit port. Ports recurse through nested bursts.

use crate::ast::{Path, PathExpr};
use std::collections::BTreeMap;

/// Where a transition takes its token from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakePort {
    /// Consume one token from a place.
    Place(usize),
    /// Join a burst (consuming the burst's outer token if it is closed).
    Burst(usize),
}

/// Where a transition puts its token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutPort {
    /// Deposit one token into a place.
    Place(usize),
    /// Leave a burst (returning the outer token if this empties it).
    Burst(usize),
}

/// A burst (`{e}` or `n:(e)`) within one path.
#[derive(Debug, Clone, Copy)]
pub struct BurstDef {
    /// Entry port of the burst as a whole (consumed by the first joiner).
    pub outer_take: TakePort,
    /// Exit port of the burst as a whole (produced by the last leaver).
    pub outer_put: PutPort,
    /// Maximum concurrent members (`None` for the unbounded `{e}` form).
    pub cap: Option<u32>,
}

/// One syntactic occurrence of an operation in a path.
#[derive(Debug, Clone, Copy)]
pub struct Occurrence {
    pub take: TakePort,
    pub put: PutPort,
}

/// A path compiled to its token machine.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    /// Initial token count per place (index = place id).
    pub initial: Vec<u32>,
    /// Burst definitions (index = burst id).
    pub bursts: Vec<BurstDef>,
    /// Occurrences per operation name, in syntactic order.
    pub occurrences: BTreeMap<String, Vec<Occurrence>>,
}

struct Compiler {
    initial: Vec<u32>,
    bursts: Vec<BurstDef>,
    occurrences: BTreeMap<String, Vec<Occurrence>>,
}

impl Compiler {
    fn new_place(&mut self, tokens: u32) -> usize {
        self.initial.push(tokens);
        self.initial.len() - 1
    }

    fn new_burst(&mut self, outer_take: TakePort, outer_put: PutPort, cap: Option<u32>) -> usize {
        self.bursts.push(BurstDef {
            outer_take,
            outer_put,
            cap,
        });
        self.bursts.len() - 1
    }

    fn go(&mut self, e: &PathExpr, take: TakePort, put: PutPort) {
        match e {
            PathExpr::Op(name) => {
                self.occurrences
                    .entry(name.clone())
                    .or_default()
                    .push(Occurrence { take, put });
            }
            PathExpr::Seq(items) => {
                let mut current_take = take;
                let last = items.len() - 1;
                for (i, item) in items.iter().enumerate() {
                    if i == last {
                        self.go(item, current_take, put);
                    } else {
                        let mid = self.new_place(0);
                        self.go(item, current_take, PutPort::Place(mid));
                        current_take = TakePort::Place(mid);
                    }
                }
            }
            PathExpr::Sel(items) => {
                for item in items {
                    self.go(item, take, put);
                }
            }
            PathExpr::Burst(inner) => {
                let b = self.new_burst(take, put, None);
                self.go(inner, TakePort::Burst(b), PutPort::Burst(b));
            }
            PathExpr::Bounded(n, inner) => {
                let b = self.new_burst(take, put, Some(*n));
                self.go(inner, TakePort::Burst(b), PutPort::Burst(b));
            }
        }
    }
}

/// Compiles one path declaration.
pub fn compile(path: &Path) -> CompiledPath {
    let mut c = Compiler {
        initial: Vec::new(),
        bursts: Vec::new(),
        occurrences: BTreeMap::new(),
    };
    let root = c.new_place(1);
    c.go(&path.body, TakePort::Place(root), PutPort::Place(root));
    CompiledPath {
        initial: c.initial,
        bursts: c.bursts,
        occurrences: c.occurrences,
    }
}

/// Mutable token state of one compiled path.
#[derive(Debug, Clone)]
pub struct PathState {
    pub tokens: Vec<u32>,
    pub counters: Vec<u32>,
}

impl PathState {
    pub fn new(compiled: &CompiledPath) -> Self {
        PathState {
            tokens: compiled.initial.clone(),
            counters: vec![0; compiled.bursts.len()],
        }
    }

    /// Whether a `take` through `port` is currently possible.
    pub fn can_take(&self, compiled: &CompiledPath, port: TakePort) -> bool {
        match port {
            TakePort::Place(p) => self.tokens[p] > 0,
            TakePort::Burst(b) => {
                let def = &compiled.bursts[b];
                let below_cap = def.cap.is_none_or(|cap| self.counters[b] < cap);
                below_cap && (self.counters[b] > 0 || self.can_take(compiled, def.outer_take))
            }
        }
    }

    /// Performs a `take` through `port`.
    ///
    /// # Panics
    ///
    /// Panics if the take is not possible; call [`PathState::can_take`]
    /// first.
    pub fn take(&mut self, compiled: &CompiledPath, port: TakePort) {
        match port {
            TakePort::Place(p) => {
                assert!(self.tokens[p] > 0, "take from empty place {p}");
                self.tokens[p] -= 1;
            }
            TakePort::Burst(b) => {
                if self.counters[b] == 0 {
                    let outer = compiled.bursts[b].outer_take;
                    self.take(compiled, outer);
                }
                self.counters[b] += 1;
            }
        }
    }

    /// Performs a `put` through `port`.
    pub fn put(&mut self, compiled: &CompiledPath, port: PutPort) {
        match port {
            PutPort::Place(p) => self.tokens[p] += 1,
            PutPort::Burst(b) => {
                assert!(self.counters[b] > 0, "leaving an empty burst {b}");
                self.counters[b] -= 1;
                if self.counters[b] == 0 {
                    let outer = compiled.bursts[b].outer_put;
                    self.put(compiled, outer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_path;

    fn compiled(src: &str) -> (CompiledPath, PathState) {
        let c = compile(&parse_path(src).unwrap());
        let s = PathState::new(&c);
        (c, s)
    }

    fn occ(c: &CompiledPath, op: &str, i: usize) -> Occurrence {
        c.occurrences[op][i]
    }

    #[test]
    fn single_op_cycles() {
        let (c, mut s) = compiled("path a end");
        let a = occ(&c, "a", 0);
        assert!(s.can_take(&c, a.take));
        s.take(&c, a.take);
        assert!(!s.can_take(&c, a.take), "only one `a` at a time");
        s.put(&c, a.put);
        assert!(s.can_take(&c, a.take), "cycle restored");
    }

    #[test]
    fn sequence_orders_operations() {
        let (c, mut s) = compiled("path a ; b end");
        let (a, b) = (occ(&c, "a", 0), occ(&c, "b", 0));
        assert!(s.can_take(&c, a.take));
        assert!(!s.can_take(&c, b.take), "b must wait for a");
        s.take(&c, a.take);
        s.put(&c, a.put);
        assert!(!s.can_take(&c, a.take), "a cannot restart mid-cycle");
        assert!(s.can_take(&c, b.take));
        s.take(&c, b.take);
        s.put(&c, b.put);
        assert!(s.can_take(&c, a.take), "cycle complete");
    }

    #[test]
    fn selection_consumes_one_alternative() {
        let (c, mut s) = compiled("path a , b end");
        let (a, b) = (occ(&c, "a", 0), occ(&c, "b", 0));
        assert!(s.can_take(&c, a.take) && s.can_take(&c, b.take));
        s.take(&c, a.take);
        assert!(!s.can_take(&c, b.take), "a's activation excludes b");
        s.put(&c, a.put);
        assert!(s.can_take(&c, b.take));
    }

    #[test]
    fn burst_admits_many_then_closes() {
        let (c, mut s) = compiled("path { r } , w end");
        let (r, w) = (occ(&c, "r", 0), occ(&c, "w", 0));
        s.take(&c, r.take); // opens the burst
        assert!(s.can_take(&c, r.take), "burst open: more readers join");
        s.take(&c, r.take);
        assert!(!s.can_take(&c, w.take), "writer excluded during burst");
        s.put(&c, r.put);
        assert!(!s.can_take(&c, w.take), "one reader still inside");
        s.put(&c, r.put);
        assert!(s.can_take(&c, w.take), "burst closed, writer may go");
        s.take(&c, w.take);
        assert!(!s.can_take(&c, r.take), "writer excludes readers");
        s.put(&c, w.put);
        assert!(s.can_take(&c, r.take));
    }

    #[test]
    fn burst_over_sequence_is_first_in_last_out() {
        // Figure 2's third path shape: path { openread ; read } , write end
        let (c, mut s) = compiled("path { a ; b } , w end");
        let (a, b, w) = (occ(&c, "a", 0), occ(&c, "b", 0), occ(&c, "w", 0));
        s.take(&c, a.take); // first member joins
        s.take(&c, a.take); // second member joins
        s.put(&c, a.put); // first finishes a, token waits between a and b
        assert!(!s.can_take(&c, w.take));
        s.take(&c, b.take);
        s.put(&c, b.put); // first member leaves
        assert!(!s.can_take(&c, w.take), "second member still inside");
        s.put(&c, a.put);
        s.take(&c, b.take);
        s.put(&c, b.put); // second leaves: burst closes
        assert!(s.can_take(&c, w.take));
    }

    #[test]
    fn bounded_burst_caps_concurrency() {
        let (c, mut s) = compiled("path 2 : (x) end");
        let x = occ(&c, "x", 0);
        s.take(&c, x.take);
        s.take(&c, x.take);
        assert!(!s.can_take(&c, x.take), "cap of 2 reached");
        s.put(&c, x.put);
        assert!(s.can_take(&c, x.take), "slot freed");
    }

    #[test]
    fn bounded_sequence_is_a_bounded_buffer() {
        let (c, mut s) = compiled("path 3 : (deposit ; remove) end");
        let (d, r) = (occ(&c, "deposit", 0), occ(&c, "remove", 0));
        assert!(!s.can_take(&c, r.take), "nothing to remove yet");
        for _ in 0..3 {
            assert!(s.can_take(&c, d.take));
            s.take(&c, d.take);
            s.put(&c, d.put);
        }
        assert!(!s.can_take(&c, d.take), "buffer full at 3");
        s.take(&c, r.take);
        s.put(&c, r.put);
        assert!(s.can_take(&c, d.take), "slot recycled");
    }

    #[test]
    fn multiple_occurrences_are_tracked_separately() {
        let (c, _) = compiled("path a ; b ; a end");
        assert_eq!(c.occurrences["a"].len(), 2);
        assert_eq!(c.occurrences["b"].len(), 1);
    }

    #[test]
    fn one_slot_buffer_alternates() {
        // The paper's history-information example: path deposit ; remove end.
        let (c, mut s) = compiled("path deposit ; remove end");
        let (d, r) = (occ(&c, "deposit", 0), occ(&c, "remove", 0));
        for _ in 0..3 {
            assert!(s.can_take(&c, d.take) && !s.can_take(&c, r.take));
            s.take(&c, d.take);
            s.put(&c, d.put);
            assert!(!s.can_take(&c, d.take) && s.can_take(&c, r.take));
            s.take(&c, r.take);
            s.put(&c, r.put);
        }
    }
}
