//! Real-thread CSP-style synchronous channels with guarded select —
//! mirrors `bloom-channel` operation for operation.
//!
//! The rendezvous state is a per-channel `Mutex<ChanState>`: a FIFO of
//! queued sender offers (globally ticketed, so select's longest-waiting
//! discipline compares across channels) and a FIFO of registered
//! receivers. A selecting receiver owns a *delivery cell* (its own
//! mutex + condvar) shared between every channel it registered on; the
//! first sender to `try_fill` it wins, and a cell is `closed` the moment
//! its owner stops listening (timeout, or claiming a queued offer
//! directly), so nothing can be delivered into a receiver that is gone.
//! Lock order is always channel state, then cell.
//!
//! Wakes name their target and follow the unlock. A queued offer carries
//! its sender's thread: the receiver that takes the offer unparks that
//! sender alone, after releasing the channel lock, and the sender
//! re-checks `completed` under the lock — there is no channel-wide
//! broadcast that would wake every queued sender per rendezvous. A sender
//! that fills a cell notifies its owner after releasing the channel lock,
//! which the owner re-takes to unregister.
//!
//! The sleeping-barber gap between polling the sender queues and
//! registering is closed by a second poll *after* registration: if that
//! pass finds a queued offer still present, the receiver first closes its
//! own cell (under the winning channel's lock) — either discovering a
//! delivery that raced in, which it consumes, or making itself
//! unfillable — and only then takes the offer, so exactly one value
//! changes hands.

use crate::runtime::RtCtx;
use bloom_sim::Deadline;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

struct CellState<T> {
    slot: Option<(usize, T)>,
    /// Set when the owner stops listening; fills are refused thereafter.
    closed: bool,
}

/// The rendezvous mailbox of a parked (selecting) receiver.
struct DeliveryCell<T> {
    inner: Mutex<CellState<T>>,
    /// Only the cell's owner waits here.
    cv: Condvar,
}

impl<T> DeliveryCell<T> {
    fn new() -> Arc<Self> {
        Arc::new(DeliveryCell {
            inner: Mutex::new(CellState {
                slot: None,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Delivers into the cell unless it is already filled or closed; on
    /// refusal the value comes back. The caller wakes the owner once it
    /// holds no lock the owner re-takes.
    fn try_fill(&self, alt_index: usize, value: T) -> Result<(), T> {
        let mut c = self.inner.lock();
        if c.closed || c.slot.is_some() {
            return Err(value);
        }
        c.slot = Some((alt_index, value));
        Ok(())
    }
}

struct WaitingReceiver<T> {
    /// Registration id; one select registers the same id on every
    /// enabled alternative.
    rid: u64,
    alt_index: usize,
    cell: Arc<DeliveryCell<T>>,
}

/// A blocked sender's queued value.
struct Offer<T> {
    ticket: u64,
    value: T,
    /// Unparked by the receiver that takes this offer.
    sender: Thread,
}

struct ChanState<T> {
    /// Queued offers, FIFO — tickets are assigned under this lock, so
    /// queue order is ticket order.
    senders: VecDeque<Offer<T>>,
    receivers: VecDeque<WaitingReceiver<T>>,
    /// Tickets of offers a receiver took; the parked sender collects its
    /// ticket from here and returns.
    completed: HashSet<u64>,
}

/// A synchronous (rendezvous, unbuffered) channel on OS threads; mirrors
/// `bloom_channel::Channel`.
pub struct RtChannel<T> {
    name: String,
    state: Mutex<ChanState<T>>,
}

impl<T: Send> RtChannel<T> {
    /// Creates a channel; `name` appears in diagnostics.
    pub fn new(name: &str) -> Self {
        RtChannel {
            name: name.to_string(),
            state: Mutex::new(ChanState {
                senders: VecDeque::new(),
                receivers: VecDeque::new(),
                completed: HashSet::new(),
            }),
        }
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends `value`, blocking until a receiver takes it (rendezvous).
    pub fn send(&self, ctx: &RtCtx, value: T) {
        ctx.chaos();
        let Some((ticket, mut st)) = self.deliver_or_enqueue(ctx, value) else {
            return;
        };
        while !st.completed.remove(&ticket) {
            drop(st);
            thread::park();
            st = self.state.lock();
        }
    }

    /// Timed [`RtChannel::send`] against a virtual-tick [`Deadline`]: on
    /// timeout the offer is withdrawn and the unsent value handed back as
    /// `Err(value)` — the rendezvous happens completely or not at all.
    pub fn send_by(&self, ctx: &RtCtx, value: T, deadline: impl Into<Deadline>) -> Result<(), T> {
        ctx.chaos();
        let Some(budget) = ctx.wall_budget(deadline) else {
            return Err(value);
        };
        let start = Instant::now();
        let Some((ticket, mut st)) = self.deliver_or_enqueue(ctx, value) else {
            return Ok(());
        };
        loop {
            if st.completed.remove(&ticket) {
                return Ok(());
            }
            let elapsed = start.elapsed();
            if elapsed >= budget {
                // Settled under the lock: no receiver took the offer (the
                // check above), so it is still queued and ours to
                // withdraw.
                let at = st
                    .senders
                    .iter()
                    .position(|o| o.ticket == ticket)
                    .expect("timed-out sender's offer must still be queued");
                let offer = st.senders.remove(at).expect("index valid");
                return Err(offer.value);
            }
            drop(st);
            thread::park_timeout(budget - elapsed);
            st = self.state.lock();
        }
    }

    /// Delivers straight to a registered live receiver, waking it after
    /// unlocking, or queues the offer and returns its ticket with the
    /// channel still locked.
    fn deliver_or_enqueue(
        &self,
        ctx: &RtCtx,
        value: T,
    ) -> Option<(u64, MutexGuard<'_, ChanState<T>>)> {
        let mut st = self.state.lock();
        let mut value = value;
        while let Some(rcv) = st.receivers.pop_front() {
            match rcv.cell.try_fill(rcv.alt_index, value) {
                Ok(()) => {
                    // Delivered; the rendezvous is complete.
                    drop(st);
                    rcv.cell.cv.notify_one();
                    return None;
                }
                Err(v) => value = v, // stale registration; drop and retry
            }
        }
        let ticket = ctx.fresh_ticket();
        st.senders.push_back(Offer {
            ticket,
            value,
            sender: thread::current(),
        });
        Some((ticket, st))
    }

    /// Receives a value, blocking until a sender offers one.
    pub fn recv(&self, ctx: &RtCtx) -> T {
        select(ctx, &mut [(self, true)]).1
    }

    /// Timed [`RtChannel::recv`]: `None` if no sender rendezvoused in
    /// time.
    pub fn recv_by(&self, ctx: &RtCtx, deadline: impl Into<Deadline>) -> Option<T> {
        select_by(ctx, &mut [(self, true)], deadline).map(|(_, v)| v)
    }

    /// Number of senders currently blocked on this channel — queue
    /// interrogation for guards.
    pub fn pending_senders(&self) -> usize {
        self.state.lock().senders.len()
    }

    fn unregister(&self, rid: u64) {
        self.state.lock().receivers.retain(|r| r.rid != rid);
    }
}

impl<T> std::fmt::Debug for RtChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtChannel")
            .field("name", &self.name)
            .field("pending_senders", &self.state.lock().senders.len())
            .finish()
    }
}

fn assert_some_guard<T>(alternatives: &[(&RtChannel<T>, bool)]) {
    assert!(
        alternatives.iter().any(|&(_, guard)| guard),
        "select with every guard false would block forever"
    );
}

/// Guarded selective receive; mirrors `bloom_channel::select` (including
/// the all-guards-false panic and the longest-waiting-sender discipline).
pub fn select<T: Send>(ctx: &RtCtx, alternatives: &mut [(&RtChannel<T>, bool)]) -> (usize, T) {
    select_inner(ctx, alternatives, None).expect("untimed select always rendezvouses")
}

/// Timed [`select`]; mirrors `bloom_channel::select_by`.
pub fn select_by<T: Send>(
    ctx: &RtCtx,
    alternatives: &mut [(&RtChannel<T>, bool)],
    deadline: impl Into<Deadline>,
) -> Option<(usize, T)> {
    assert_some_guard(alternatives);
    let budget = ctx.wall_budget(deadline)?;
    select_inner(ctx, alternatives, Some(budget))
}

/// Scans enabled alternatives for the longest-waiting queued offer and
/// takes it, then unparks its sender after unlocking. With `cell` given
/// (post-registration pass), the caller's own cell is closed first —
/// under the winning channel's lock, once the offer is known to be still
/// queued — so a racing delivery is either consumed here or can never
/// happen.
fn poll_take<T: Send>(
    alternatives: &[(&RtChannel<T>, bool)],
    cell: Option<&DeliveryCell<T>>,
) -> Option<(usize, T)> {
    loop {
        let mut best: Option<(usize, u64)> = None;
        for (i, &(chan, guard)) in alternatives.iter().enumerate() {
            if !guard {
                continue;
            }
            let st = chan.state.lock();
            if let Some(offer) = st.senders.front() {
                if best.map_or(true, |(_, t)| offer.ticket < t) {
                    best = Some((i, offer.ticket));
                }
            }
        }
        let (index, ticket) = best?;
        let chan = alternatives[index].0;
        let mut st = chan.state.lock();
        let Some(at) = st.senders.iter().position(|o| o.ticket == ticket) else {
            // The offer was withdrawn while we re-locked; rescan. The
            // cell stays open, so a pass that now finds nothing leaves
            // its owner free to park on it.
            continue;
        };
        if let Some(cell) = cell {
            let mut c = cell.inner.lock();
            c.closed = true; // now nobody can fill it
            if let Some(delivery) = c.slot.take() {
                // A sender filled our cell while we scanned; that
                // rendezvous already completed on its side — honor it and
                // leave the queued offer for someone else.
                return Some(delivery);
            }
        }
        let offer = st.senders.remove(at).expect("index valid");
        st.completed.insert(offer.ticket);
        drop(st);
        offer.sender.unpark();
        return Some((index, offer.value));
    }
}

fn select_inner<T: Send>(
    ctx: &RtCtx,
    alternatives: &mut [(&RtChannel<T>, bool)],
    budget: Option<Duration>,
) -> Option<(usize, T)> {
    assert_some_guard(alternatives);
    ctx.chaos();
    let start = Instant::now();
    // Fast path: a queued offer is already waiting.
    if let Some(hit) = poll_take(alternatives, None) {
        return Some(hit);
    }
    // Register on every enabled alternative, then close the poll/register
    // wakeup gap with a second, cell-claiming poll.
    let cell = DeliveryCell::new();
    let rid = ctx.fresh_ticket();
    let registered: Vec<&RtChannel<T>> = alternatives
        .iter()
        .enumerate()
        .filter(|&(_, &(_, guard))| guard)
        .map(|(i, &(chan, _))| {
            chan.state.lock().receivers.push_back(WaitingReceiver {
                rid,
                alt_index: i,
                cell: Arc::clone(&cell),
            });
            chan
        })
        .collect();
    let unregister_all = || {
        for chan in &registered {
            chan.unregister(rid);
        }
    };
    if let Some(hit) = poll_take(alternatives, Some(&cell)) {
        unregister_all();
        return Some(hit);
    }
    // Park on the cell until a sender fills it (or the budget runs out).
    let mut c = cell.inner.lock();
    loop {
        if c.closed {
            // The gap-closing poll claimed an offer... but then it would
            // have returned above; a closed cell here means it consumed a
            // raced delivery, also returned above. Unreachable, but the
            // invariant is worth stating: only the owner closes the cell.
            unreachable!("cell closed while its owner was parked");
        }
        if let Some((index, value)) = c.slot.take() {
            c.closed = true;
            drop(c);
            unregister_all();
            return Some((index, value));
        }
        match budget {
            None => cell.cv.wait(&mut c),
            Some(b) => {
                let elapsed = start.elapsed();
                if elapsed >= b {
                    c.closed = true;
                    drop(c);
                    unregister_all();
                    return None;
                }
                cell.cv.wait_for(&mut c, b - elapsed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RtSim;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn rendezvous_transfers_a_value() {
        let mut rt = RtSim::new();
        let ch = Arc::new(RtChannel::new("ch"));
        let tx = Arc::clone(&ch);
        rt.spawn("sender", move |ctx| tx.send(ctx, 42));
        let rx = Arc::clone(&ch);
        rt.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), 42);
            ctx.emit("got", &[]);
        });
        let report = rt.run().expect("no wedge");
        assert_eq!(report.trace.count_user("got"), 1);
    }

    #[test]
    fn senders_are_served_fifo() {
        let mut rt = RtSim::new();
        let ch = Arc::new(RtChannel::new("ch"));
        let queued = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let tx = Arc::clone(&ch);
            let q = Arc::clone(&queued);
            rt.spawn(&format!("s{i}"), move |ctx| {
                // Serialize arrivals so FIFO has a defined meaning: go
                // only once every earlier sender is queued.
                while tx.pending_senders() < i {
                    std::thread::yield_now();
                }
                q.lock().push(i);
                tx.send(ctx, i);
            });
        }
        let rx = Arc::clone(&ch);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        rt.spawn("receiver", move |ctx| {
            while rx.pending_senders() < 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for _ in 0..4 {
                g.lock().push(rx.recv(ctx));
            }
        });
        rt.run().expect("no wedge");
        assert_eq!(*got.lock(), *queued.lock(), "served in arrival order");
    }

    #[test]
    fn select_prefers_longest_waiting_across_channels() {
        let mut rt = RtSim::new();
        let a = Arc::new(RtChannel::new("a"));
        let b = Arc::new(RtChannel::new("b"));
        let b1 = Arc::clone(&b);
        rt.spawn("sender-b", move |ctx| b1.send(ctx, 20));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        rt.spawn("sender-a", move |ctx| {
            // Arrive second: go only once sender-b is queued.
            while b2.pending_senders() < 1 {
                std::thread::yield_now();
            }
            a2.send(ctx, 10);
        });
        let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        rt.spawn("server", move |ctx| {
            while a3.pending_senders() + b3.pending_senders() < 2 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for _ in 0..2 {
                let (idx, v) = select(ctx, &mut [(&*a3, true), (&*b3, true)]);
                g.lock().push((idx, v));
            }
        });
        rt.run().expect("no wedge");
        assert_eq!(*got.lock(), vec![(1, 20), (0, 10)], "older sender first");
    }

    #[test]
    fn false_guard_disables_an_alternative() {
        let mut rt = RtSim::new();
        let a = Arc::new(RtChannel::new("a"));
        let b = Arc::new(RtChannel::new("b"));
        let a1 = Arc::clone(&a);
        rt.spawn("sender-a", move |ctx| a1.send(ctx, 1));
        let b2 = Arc::clone(&b);
        rt.spawn("sender-b", move |ctx| b2.send(ctx, 2));
        let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
        rt.spawn("server", move |ctx| {
            while a3.pending_senders() < 1 || b3.pending_senders() < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let (idx, v) = select(ctx, &mut [(&*a3, false), (&*b3, true)]);
            assert_eq!((idx, v), (1, 2));
            let (idx, v) = select(ctx, &mut [(&*a3, true), (&*b3, false)]);
            assert_eq!((idx, v), (0, 1));
        });
        rt.run().expect("no wedge");
    }

    #[test]
    fn blocked_select_wakes_on_late_sender() {
        let mut rt = RtSim::new();
        let a = Arc::new(RtChannel::new("a"));
        let b = Arc::new(RtChannel::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        rt.spawn("server", move |ctx| {
            let (idx, v) = select(ctx, &mut [(&*a1, true), (&*b1, true)]);
            *g.lock() = Some((idx, v));
        });
        let b2 = Arc::clone(&b);
        rt.spawn("late-sender", move |ctx| {
            std::thread::sleep(Duration::from_millis(10));
            b2.send(ctx, 9);
        });
        rt.run().expect("no wedge");
        assert_eq!(*got.lock(), Some((1, 9)));
    }

    #[test]
    fn send_by_returns_the_value_on_timeout() {
        let mut rt = RtSim::new();
        let ch = Arc::new(RtChannel::new("ch"));
        let tx = Arc::clone(&ch);
        rt.spawn("sender", move |ctx| {
            assert_eq!(tx.send_by(ctx, 42, 3u64), Err(42), "value recovered");
            assert_eq!(tx.pending_senders(), 0, "offer withdrawn");
        });
        rt.run().expect("no wedge");
    }

    #[test]
    fn recv_by_gives_up_without_a_sender_then_still_works() {
        let mut rt = RtSim::new();
        let ch = Arc::new(RtChannel::<i64>::new("ch"));
        let gave_up = Arc::new(AtomicBool::new(false));
        let (rx, flag) = (Arc::clone(&ch), Arc::clone(&gave_up));
        rt.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv_by(ctx, 3u64), None);
            flag.store(true, Ordering::Release);
            assert_eq!(rx.recv(ctx), 7, "late sender still rendezvouses");
        });
        let (tx, flag) = (Arc::clone(&ch), Arc::clone(&gave_up));
        rt.spawn("late-sender", move |ctx| {
            // Send only once the timed receive has given up.
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            tx.send(ctx, 7);
        });
        rt.run().expect("no wedge");
        assert!(
            ch.state.lock().receivers.is_empty(),
            "no stale registrations"
        );
    }

    #[test]
    fn ping_pong_under_jitter() {
        use crate::runtime::RtConfig;
        for seed in 0..3u64 {
            let mut rt = RtSim::with_config(RtConfig {
                jitter_seed: Some(seed),
                ..RtConfig::default()
            });
            let ping = Arc::new(RtChannel::new("ping"));
            let pong = Arc::new(RtChannel::new("pong"));
            let (p1, q1) = (Arc::clone(&ping), Arc::clone(&pong));
            rt.spawn("alice", move |ctx| {
                for i in 0..25 {
                    p1.send(ctx, i);
                    assert_eq!(q1.recv(ctx), i * 2);
                }
            });
            let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
            rt.spawn("bob", move |ctx| {
                for _ in 0..25 {
                    let v = p2.recv(ctx);
                    q2.send(ctx, v * 2);
                }
            });
            rt.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// Six senders on two channels, half of them timed with budgets of
    /// one or two milliseconds, against one untimed `select` server: each
    /// rendezvous unparks only the taken offer's sender, and timed
    /// senders withdraw while the server polls and registers. Every value
    /// must change hands exactly once or come back to its sender.
    #[test]
    fn many_senders_against_a_select_server_lose_and_duplicate_nothing() {
        use crate::runtime::RtConfig;
        const SENDERS: u64 = 6;
        const VALUES: u64 = 20;
        const STOP: u64 = u64::MAX;
        for seed in [11u64, 12, 13] {
            let mut rt = RtSim::with_config(RtConfig {
                jitter_seed: Some(seed),
                ..RtConfig::default()
            });
            let chans = [Arc::new(RtChannel::new("a")), Arc::new(RtChannel::new("b"))];
            let returned = Arc::new(Mutex::new(Vec::new()));
            let finished = Arc::new(AtomicU64::new(0));
            for i in 0..SENDERS {
                let ch = Arc::clone(&chans[(i % 2) as usize]);
                let (returned, finished) = (Arc::clone(&returned), Arc::clone(&finished));
                rt.spawn(&format!("s{i}"), move |ctx| {
                    for k in 0..VALUES {
                        let v = i * 1000 + k;
                        if i < SENDERS / 2 {
                            ch.send(ctx, v);
                        } else if let Err(back) = ch.send_by(ctx, v, 1 + 5 * (k % 3)) {
                            assert_eq!(back, v, "the unsent value comes back");
                            returned.lock().push(back);
                        }
                    }
                    finished.fetch_add(1, Ordering::Release);
                });
            }
            let (a, b) = (Arc::clone(&chans[0]), Arc::clone(&chans[1]));
            let received = Arc::new(Mutex::new(Vec::new()));
            let got = Arc::clone(&received);
            rt.spawn("server", move |ctx| loop {
                let (_, v) = select(ctx, &mut [(&*a, true), (&*b, true)]);
                if v == STOP {
                    break;
                }
                got.lock().push(v);
                // A millisecond's pause every third value outlasts some
                // timed senders' budgets, so offers are withdrawn while
                // the server polls and registers.
                if v % 3 == 0 {
                    ctx.sleep(1);
                }
            });
            let stop = Arc::clone(&chans[0]);
            rt.spawn("closer", move |ctx| {
                while finished.load(Ordering::Acquire) < SENDERS {
                    std::thread::yield_now();
                }
                stop.send(ctx, STOP);
            });
            rt.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let mut seen: Vec<u64> = received.lock().clone();
            seen.extend(returned.lock().iter());
            seen.sort_unstable();
            let sent: Vec<u64> = (0..SENDERS)
                .flat_map(|i| (0..VALUES).map(move |k| i * 1000 + k))
                .collect();
            assert_eq!(
                seen, sent,
                "seed {seed}: each value received or returned, once"
            );
            for ch in &chans {
                assert_eq!(
                    ch.pending_senders(),
                    0,
                    "seed {seed}: {} drained",
                    ch.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "every guard false")]
    fn all_false_guards_panic() {
        let mut rt = RtSim::new();
        let a = Arc::new(RtChannel::<i64>::new("a"));
        let a1 = Arc::clone(&a);
        rt.spawn("server", move |ctx| {
            let _ = select(ctx, &mut [(&*a1, false)]);
        });
        if let Err(e) = rt.run() {
            panic!("{e}");
        }
    }
}
