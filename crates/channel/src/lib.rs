#![forbid(unsafe_code)]
#![deny(deprecated)]
//! CSP-style synchronous channels over the `bloom-sim` simulator.
//!
//! The paper closes (§6) by naming the synchronization models it did *not*
//! evaluate — "guarded commands \[19\] and the mechanism proposed by Hoare
//! in 'Communicating Sequential Processes' \[20\] … the techniques presented
//! in this paper may prove useful in these evaluations." This crate
//! provides that mechanism so the workspace can run the paper's
//! methodology on it:
//!
//! * [`Channel<T>`] — a synchronous (rendezvous) channel: `send` blocks
//!   until a receiver takes the value, `recv` blocks until a sender
//!   offers one. Senders are queued FIFO, so a channel carries *request
//!   time* information the way CSP process queues do.
//! * [`select`] — guarded selective receive over several channels of the
//!   same message type: Dijkstra's guarded commands / CSP alternatives.
//!   A false guard disables its alternative; among enabled alternatives
//!   with waiting senders, the **longest-waiting sender** is chosen (the
//!   same selection discipline used for path expressions, so comparisons
//!   are apples-to-apples).
//! * [`Channel::pending_senders_ctx`] — queue interrogation, the
//!   analogue of Hoare's condition `queue` operation, used by guards.
//! * [`select_cancellable`] and [`Channel::recv_cancellable`] — the same
//!   receives for server daemons: when the simulation shuts down while
//!   the server waits, they return [`Cancelled`] and the server loop
//!   returns, where [`select`] and [`Channel::recv`] would unwind the
//!   daemon's thread (the same park underneath, see
//!   [`Ctx::park_cancellable`]).
//!
//! In the shared-resource problems (`bloom-problems::csp`) resources
//! become *server processes*: clients rendezvous with the server, the
//! server's guards encode the exclusion and priority constraints over its
//! local state, and replies grant access. The §2 modularity structure is
//! automatic — the resource and its synchronization live in one process,
//! and clients hold no synchronization code at all.
//!
//! # Crash safety
//!
//! Channels hold no possession, so — unlike monitors and serializers —
//! they are never *poisoned*. All rendezvous state is structural: queued
//! offers and select registrations. A process killed while parked cleans
//! up behind itself:
//!
//! * a sender dying in [`Channel::send`] withdraws its offer — the queued
//!   value is dropped and [`Channel::pending_senders`] stays truthful, so
//!   no receiver ever rendezvouses with a corpse;
//! * a receiver dying in [`select`] (or [`Channel::recv`], or their
//!   cancellable forms) removes its registration from every enabled
//!   alternative, so later senders queue for a live receiver instead of
//!   delivering into the dead one. A cancelled receiver that returns
//!   removes them the same way.
//!
//! A value already *delivered* to a receiver that is killed before it
//! consumes it is lost with the receiver; the sender has completed its
//! rendezvous and already returned. Peers of a crashed process therefore
//! either keep running (if other partners exist) or park until the
//! simulator reports the deadlock by name — never a silent wedge.

use bloom_sim::{Access, Cancelled, Ctx, Deadline, ObjId, Pid};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// A sender parked on a channel with its offered value.
struct WaitingSender<T> {
    pid: Pid,
    ticket: u64,
    value: T,
}

/// A receiver parked on one or more channels (via select).
struct WaitingReceiver<T> {
    pid: Pid,
    /// Which alternative of the receiver's select this channel is; the
    /// delivering sender records it in the cell.
    alt_index: usize,
    /// Shared with every channel the receiver registered on; the first
    /// sender to deliver claims it.
    cell: Arc<DeliveryCell<T>>,
}

/// The rendezvous mailbox of a parked (selecting) receiver.
struct DeliveryCell<T> {
    slot: Mutex<Option<(usize, T)>>,
}

impl<T> DeliveryCell<T> {
    fn new() -> Arc<Self> {
        Arc::new(DeliveryCell {
            slot: Mutex::new(None),
        })
    }

    fn claimed(&self) -> bool {
        self.slot.lock().is_some()
    }
}

struct ChanState<T> {
    senders: VecDeque<WaitingSender<T>>,
    receivers: VecDeque<WaitingReceiver<T>>,
}

/// A synchronous (rendezvous, unbuffered) channel.
pub struct Channel<T> {
    name: String,
    /// Identity for object-granular dependency tracking.
    obj: ObjId,
    /// The park reason of a blocked sender (`{name}.send`), built at the
    /// first such park, so that a channel no sender blocks on formats
    /// nothing and a later park formats nothing either.
    send_reason: OnceLock<String>,
    state: Mutex<ChanState<T>>,
}

impl<T: Send> Channel<T> {
    /// Creates a channel; `name` appears in deadlock diagnostics.
    pub fn new(name: &str) -> Self {
        Channel {
            name: name.to_string(),
            obj: ObjId::new("channel", name),
            send_reason: OnceLock::new(),
            state: Mutex::new(ChanState {
                senders: VecDeque::new(),
                receivers: VecDeque::new(),
            }),
        }
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The park reason of a blocked sender.
    fn send_reason(&self) -> &str {
        self.send_reason
            .get_or_init(|| format!("{}.send", self.name))
    }

    /// Sends `value`, blocking until a receiver takes it (rendezvous).
    ///
    /// If the sender is killed while parked here, the queued offer is
    /// withdrawn and the value dropped (see the crate-level *Crash
    /// safety* notes).
    pub fn send(&self, ctx: &Ctx, value: T) {
        if self.deliver_or_enqueue(ctx, value) {
            return;
        }
        let withdraw = WithdrawOfferOnUnwind { chan: self, ctx };
        ctx.park(self.send_reason());
        std::mem::forget(withdraw);
    }

    /// Timed [`Channel::send`]: blocks until `deadline` at the latest.
    /// Accepts anything convertible into a [`Deadline`] — a tick count
    /// (`u64`), a `Duration`, or an explicit [`Deadline`]. On timeout the
    /// offer is withdrawn and the unsent value handed back as `Err(value)`
    /// — the rendezvous either happened completely or not at all, so the
    /// value is never lost to a half-completed exchange. An
    /// already-expired deadline hands the value straight back without
    /// attempting the rendezvous; no scheduling point is consumed.
    pub fn send_by(&self, ctx: &Ctx, value: T, deadline: impl Into<Deadline>) -> Result<(), T> {
        let Some(ticks) = ctx.remaining(deadline) else {
            return Err(value);
        };
        if self.deliver_or_enqueue(ctx, value) {
            return Ok(());
        }
        let withdraw = WithdrawOfferOnUnwind { chan: self, ctx };
        let woken = ctx.park_timeout(self.send_reason(), ticks);
        std::mem::forget(withdraw);
        if woken {
            return Ok(()); // a receiver took the value
        }
        // Timed out: withdraw the offer and recover the value. The
        // parked-only guard in the receive paths means no receiver can
        // have taken it after the timer fired, so the entry is still ours.
        let mut st = self.state.lock();
        let me = ctx.pid();
        let at = st
            .senders
            .iter()
            .position(|s| s.pid == me)
            .expect("timed-out sender's offer must still be queued");
        let sender = st.senders.remove(at).expect("index valid");
        Err(sender.value)
    }

    /// Delivers `value` to the longest-waiting live receiver (completing
    /// the rendezvous) or queues it as an offer; returns whether it was
    /// delivered.
    fn deliver_or_enqueue(&self, ctx: &Ctx, value: T) -> bool {
        // Channel state is kernel-invisible shared state: mark the quantum
        // (see `Ctx::note_sync_obj`) before touching it.
        ctx.note_sync_obj_op(&self.obj, Access::Write);
        let mut value = Some(value);
        let mut st = self.state.lock();
        // Deliver to the longest-waiting receiver whose select has not been
        // claimed by another channel yet. Entries already claimed elsewhere
        // and entries whose process woke by timeout (runnable, about to
        // report `None`) are discarded — delivering into those would lose
        // the value.
        while let Some(rcv) = st.receivers.pop_front() {
            if rcv.cell.claimed() || !ctx.is_parked(rcv.pid) {
                continue; // stale registration
            }
            *rcv.cell.slot.lock() = Some((rcv.alt_index, value.take().expect("value present")));
            drop(st);
            ctx.unpark(rcv.pid);
            return true;
        }
        st.senders.push_back(WaitingSender {
            pid: ctx.pid(),
            ticket: ctx.fresh_ticket(),
            value: value.take().expect("value present"),
        });
        false
    }

    /// Receives a value, blocking until a sender offers one.
    pub fn recv(&self, ctx: &Ctx) -> T {
        select(ctx, &mut [(self, true)]).1
    }

    /// [`Channel::recv`] that returns `Err(Cancelled)` instead of
    /// unwinding when the simulation shuts down while it waits (see
    /// [`select_cancellable`]).
    pub fn recv_cancellable(&self, ctx: &Ctx) -> Result<T, Cancelled> {
        select_cancellable(ctx, &mut [(self, true)]).map(|(_, value)| value)
    }

    /// Timed [`Channel::recv`]: returns `None` if no sender rendezvoused
    /// by `deadline`. Accepts anything convertible into a [`Deadline`].
    /// An already-expired deadline returns `None` without attempting the
    /// rendezvous; no scheduling point is consumed.
    pub fn recv_by(&self, ctx: &Ctx, deadline: impl Into<Deadline>) -> Option<T> {
        select_by(ctx, &mut [(self, true)], deadline).map(|(_, v)| v)
    }

    /// Number of senders currently blocked on this channel — queue
    /// interrogation for guards (the §3 *synchronization state* category).
    ///
    /// **Explore-unsafe probe**: records no footprint, so a receiver that
    /// branches on it (e.g. computing a select guard) during an explored
    /// schedule is invisible to the object-granular prune. Solution code
    /// must use [`Channel::pending_senders_ctx`]; this bare form exists
    /// for test assertions and post-run inspection.
    pub fn pending_senders(&self) -> usize {
        self.state.lock().senders.len()
    }

    /// Instrumented [`Channel::pending_senders`] (footprint-recorded
    /// read).
    pub fn pending_senders_ctx(&self, ctx: &Ctx) -> usize {
        ctx.note_sync_obj_op(&self.obj, Access::Read);
        self.pending_senders()
    }

    /// Arrival ticket of the longest-waiting *live* sender, if any.
    ///
    /// A sender that woke by timeout (runnable, about to withdraw its
    /// offer) is skipped, not counted: its rendezvous already failed on its
    /// side, and it must get its value back. The stale entry is left in
    /// place for the sender's own withdrawal.
    fn front_parked_ticket(&self, ctx: &Ctx) -> Option<u64> {
        ctx.note_sync_obj_op(&self.obj, Access::Read);
        self.state
            .lock()
            .senders
            .iter()
            .find(|s| ctx.is_parked(s.pid))
            .map(|s| s.ticket)
    }

    /// Takes the longest-waiting live sender's value and wakes the sender.
    fn take_front(&self, ctx: &Ctx) -> T {
        // Removing the offer mutates channel state; the probe that found it
        // only recorded a read.
        ctx.note_sync_obj(&self.obj, Access::Write);
        let sender = {
            let mut st = self.state.lock();
            let at = st
                .senders
                .iter()
                .position(|s| ctx.is_parked(s.pid))
                .expect("take_front called on a channel with a live waiting sender");
            st.senders.remove(at).expect("index valid")
        };
        ctx.unpark(sender.pid);
        sender.value
    }

    fn register_receiver(&self, rcv: WaitingReceiver<T>) {
        self.state.lock().receivers.push_back(rcv);
    }

    fn unregister_receiver(&self, pid: Pid) {
        self.state.lock().receivers.retain(|r| r.pid != pid);
    }
}

/// Withdraws this process's queued offer if `send` unwinds while parked
/// (the process was killed): the value is dropped and `pending_senders`
/// stays truthful. Own-queue cleanup, so it runs even during shutdown.
struct WithdrawOfferOnUnwind<'a, T: Send> {
    chan: &'a Channel<T>,
    ctx: &'a Ctx,
}

impl<T: Send> Drop for WithdrawOfferOnUnwind<'_, T> {
    fn drop(&mut self) {
        let me = self.ctx.pid();
        self.chan.state.lock().senders.retain(|s| s.pid != me);
    }
}

/// Removes a selector's registrations from every enabled alternative
/// when its park does not end in a delivery: the process died there (a
/// kill, an abort or a shutdown unwind), or a cancellable select returned
/// [`Cancelled`]. Later senders then queue for a live receiver instead of
/// delivering into the corpse. Own-queue cleanup, so it runs even during
/// shutdown.
struct Unregister<'a, T: Send> {
    alternatives: &'a [(&'a Channel<T>, bool)],
    ctx: &'a Ctx,
}

impl<T: Send> Drop for Unregister<'_, T> {
    fn drop(&mut self) {
        for chan in enabled(self.alternatives) {
            chan.unregister_receiver(self.ctx.pid());
        }
    }
}

/// The channels of the alternatives whose guard is true, in order.
fn enabled<'a, T: Send>(
    alternatives: &'a [(&'a Channel<T>, bool)],
) -> impl Iterator<Item = &'a Channel<T>> + 'a {
    alternatives
        .iter()
        .filter(|&&(_, guard)| guard)
        .map(|&(chan, _)| chan)
}

impl<T> std::fmt::Debug for Channel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("name", &self.name)
            .field("pending_senders", &self.state.lock().senders.len())
            .finish()
    }
}

/// Guarded selective receive (CSP alternatives / guarded commands).
///
/// Each alternative is `(channel, guard)`; a false guard disables the
/// alternative entirely. Among enabled alternatives with waiting senders,
/// the longest-waiting sender (globally, by arrival ticket) is taken.
/// If none is ready, the caller blocks until a sender arrives on any
/// enabled alternative. Returns `(alternative index, value)`.
///
/// A shutdown cancellation unwinds the caller; server daemons use
/// [`select_cancellable`], which returns instead.
///
/// # Panics
///
/// Panics if every guard is false — like Dijkstra's `if … fi` with all
/// guards false, this aborts rather than blocking forever (a server whose
/// guards can all be false should include an always-true alternative).
pub fn select<T: Send>(ctx: &Ctx, alternatives: &mut [(&Channel<T>, bool)]) -> (usize, T) {
    select_cancellable(ctx, alternatives).unwrap_or_else(|cancelled| cancelled.unwind())
}

/// [`select`] that returns `Err(Cancelled)` when the simulation shuts down
/// while the caller waits, so a server daemon's loop ends by returning
/// (`let Ok((which, m)) = select_cancellable(..) else { return };`) rather
/// than by unwinding its thread. The registrations are removed before it
/// returns. A fault-plan kill or a deadlock-recovery abort still unwinds.
///
/// # Panics
///
/// Panics if every guard is false, like [`select`].
pub fn select_cancellable<T: Send>(
    ctx: &Ctx,
    alternatives: &mut [(&Channel<T>, bool)],
) -> Result<(usize, T), Cancelled> {
    select_inner(ctx, alternatives, None)
        .map(|got| got.expect("untimed select always rendezvouses"))
}

/// Timed [`select`]: a built-in timeout arm. Returns `None` if no sender
/// rendezvoused on any enabled alternative by `deadline` — the
/// guarded-command analogue of an `after`/timeout alternative, which turns
/// a server's potentially-unbounded wait into a bounded one. Accepts
/// anything convertible into a [`Deadline`]. An already-expired deadline
/// returns `None` without attempting a rendezvous; no scheduling point is
/// consumed.
///
/// # Panics
///
/// Panics if every guard is false, like [`select`] — even when the
/// deadline has already expired (it is a programming error either way).
pub fn select_by<T: Send>(
    ctx: &Ctx,
    alternatives: &mut [(&Channel<T>, bool)],
    deadline: impl Into<Deadline>,
) -> Option<(usize, T)> {
    assert_some_guard(alternatives);
    let ticks = ctx.remaining(deadline)?;
    select_inner(ctx, alternatives, Some(ticks)).unwrap_or_else(|cancelled| cancelled.unwind())
}

fn assert_some_guard<T>(alternatives: &[(&Channel<T>, bool)]) {
    assert!(
        alternatives.iter().any(|&(_, guard)| guard),
        "select with every guard false would block forever"
    );
}

/// The one select: `Ok(None)` only on timeout, `Err` only on a shutdown
/// cancellation.
fn select_inner<T: Send>(
    ctx: &Ctx,
    alternatives: &[(&Channel<T>, bool)],
    timeout: Option<u64>,
) -> Result<Option<(usize, T)>, Cancelled> {
    assert_some_guard(alternatives);
    // Ready alternative with the longest-waiting live sender?
    let ready = alternatives
        .iter()
        .enumerate()
        .filter_map(|(i, &(chan, guard))| {
            if !guard {
                return None;
            }
            chan.front_parked_ticket(ctx).map(|ticket| (i, ticket))
        })
        .min_by_key(|&(_, ticket)| ticket);
    if let Some((index, _)) = ready {
        return Ok(Some((index, alternatives[index].0.take_front(ctx))));
    }
    // Nothing ready: register on every enabled alternative and park. The
    // first sender to arrive claims the delivery cell; registrations left
    // on other channels are lazily discarded (see `Channel::send`) and
    // eagerly removed below.
    let cell = DeliveryCell::new();
    for (i, &(chan, guard)) in alternatives.iter().enumerate() {
        if guard {
            // Registering mutates the channel's receiver queue.
            ctx.note_sync_obj(&chan.obj, Access::Write);
            chan.register_receiver(WaitingReceiver {
                pid: ctx.pid(),
                alt_index: i,
                cell: Arc::clone(&cell),
            });
        }
    }
    // The park reason, `select[a,b,…]`, in one allocation.
    let len = enabled(alternatives)
        .map(|chan| chan.name.len() + 1)
        .sum::<usize>()
        + "select[".len();
    let mut reason = String::with_capacity(len);
    reason.push_str("select[");
    for (n, chan) in enabled(alternatives).enumerate() {
        if n > 0 {
            reason.push(',');
        }
        reason.push_str(&chan.name);
    }
    reason.push(']');
    // Armed across the park: an unwind or a cancelled return drops it and
    // removes the registrations.
    let cleanup = Unregister { alternatives, ctx };
    let woken = ctx.park_cancellable(&reason, timeout)?;
    std::mem::forget(cleanup);
    // The resumed quantum drains the delivery cell and unregisters from
    // every channel — unlike a semaphore hand-off, it mutates shared
    // state and must be marked. One metric bump (a single logical op),
    // but a footprint entry for every registered channel.
    for (n, chan) in enabled(alternatives).enumerate() {
        if n == 0 {
            ctx.note_sync_obj_op(&chan.obj, Access::Write);
        } else {
            ctx.note_sync_obj(&chan.obj, Access::Write);
        }
    }
    // Remove our remaining registrations (senders also discard them
    // lazily, but eager cleanup keeps queues short and pid-reuse safe).
    for chan in enabled(alternatives) {
        chan.unregister_receiver(ctx.pid());
    }
    if !woken {
        // Timed out. The parked-only guard in the send paths means no
        // sender delivered after the timer fired, but take a racing
        // delivery defensively rather than lose it.
        return Ok(cell.slot.lock().take());
    }
    // The delivering sender recorded which alternative it was.
    let delivered = cell
        .slot
        .lock()
        .take()
        .expect("woken receiver must have a delivery");
    Ok(Some(delivered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloom_sim::{RandomPolicy, Sim};

    #[test]
    fn rendezvous_transfers_a_value() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::new("ch"));
        let tx = Arc::clone(&ch);
        sim.spawn("sender", move |ctx| tx.send(ctx, 42));
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), 42);
            ctx.emit("got", &[]);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.trace.count_user("got"), 1);
    }

    #[test]
    fn send_blocks_until_receiver_arrives() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::new("ch"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let (tx, o1) = (Arc::clone(&ch), Arc::clone(&order));
        sim.spawn("sender", move |ctx| {
            tx.send(ctx, 1);
            o1.lock().push("send-returned");
        });
        let (rx, o2) = (Arc::clone(&ch), Arc::clone(&order));
        sim.spawn("receiver", move |ctx| {
            for _ in 0..3 {
                ctx.yield_now();
            }
            o2.lock().push("receiving");
            rx.recv(ctx);
        });
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["receiving", "send-returned"]);
    }

    #[test]
    fn senders_are_served_fifo() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::new("ch"));
        for i in 0..4 {
            let tx = Arc::clone(&ch);
            sim.spawn(&format!("s{i}"), move |ctx| tx.send(ctx, i));
        }
        let rx = Arc::clone(&ch);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        sim.spawn("receiver", move |ctx| {
            for _ in 0..5 {
                ctx.yield_now(); // let all senders queue
            }
            for _ in 0..4 {
                g.lock().push(rx.recv(ctx));
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn select_prefers_longest_waiting_across_channels() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::new("a"));
        let b = Arc::new(Channel::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn("sender-b", move |ctx| b1.send(ctx, 20));
        let a2 = Arc::clone(&a);
        sim.spawn("sender-a", move |ctx| {
            ctx.yield_now(); // arrives second
            a2.send(ctx, 10);
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        sim.spawn("server", move |ctx| {
            for _ in 0..4 {
                ctx.yield_now();
            }
            for _ in 0..2 {
                let (idx, v) = select(ctx, &mut [(&*a1, true), (&*b, true)]);
                g.lock().push((idx, v));
            }
        });
        sim.run().unwrap();
        assert_eq!(
            *got.lock(),
            vec![(1, 20), (0, 10)],
            "older sender first, then the other"
        );
    }

    #[test]
    fn false_guard_disables_an_alternative() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::new("a"));
        let b = Arc::new(Channel::new("b"));
        let (a1, _b1) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn("sender-a", move |ctx| a1.send(ctx, 1));
        let b2 = Arc::clone(&b);
        sim.spawn("sender-b", move |ctx| b2.send(ctx, 2));
        let (a3, b3) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn("server", move |ctx| {
            for _ in 0..3 {
                ctx.yield_now();
            }
            // `a` has the older sender but its guard is false.
            let (idx, v) = select(ctx, &mut [(&*a3, false), (&*b3, true)]);
            assert_eq!((idx, v), (1, 2));
            let (idx, v) = select(ctx, &mut [(&*a3, true), (&*b3, false)]);
            assert_eq!((idx, v), (0, 1));
        });
        sim.run().unwrap();
    }

    #[test]
    fn blocked_select_wakes_on_first_enabled_arrival() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::new("a"));
        let b = Arc::new(Channel::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        sim.spawn("server", move |ctx| {
            let (idx, v) = select(ctx, &mut [(&*a1, true), (&*b1, true)]);
            *g.lock() = Some((idx, v));
        });
        let b2 = Arc::clone(&b);
        sim.spawn("late-sender", move |ctx| {
            ctx.yield_now();
            b2.send(ctx, 9);
        });
        sim.run().unwrap();
        assert_eq!(*got.lock(), Some((1, 9)));
    }

    #[test]
    fn stale_registrations_are_discarded() {
        // A select parks on {a, b}; a sender on `a` wakes it; later a
        // sender on `b` must NOT deliver into the dead registration but
        // wait for a real receiver.
        let mut sim = Sim::new();
        let a = Arc::new(Channel::new("a"));
        let b = Arc::new(Channel::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = Arc::clone(&log);
        sim.spawn("server", move |ctx| {
            let (idx, _) = select(ctx, &mut [(&*a1, true), (&*b1, true)]);
            l1.lock().push(format!("first:{idx}"));
            // Second receive: must get b's value.
            let (idx, v) = select(ctx, &mut [(&*a1, true), (&*b1, true)]);
            l1.lock().push(format!("second:{idx}:{v}"));
        });
        let a2 = Arc::clone(&a);
        sim.spawn("sender-a", move |ctx| {
            ctx.yield_now();
            a2.send(ctx, 1);
        });
        let b2 = Arc::clone(&b);
        sim.spawn("sender-b", move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            b2.send(ctx, 2);
        });
        sim.run().unwrap();
        assert_eq!(
            *log.lock(),
            vec!["first:0".to_string(), "second:1:2".to_string()]
        );
    }

    /// Timed-send withdrawal: the unsent value comes back in `Err`, the
    /// offer queue is left clean, and the channel still works afterwards.
    #[test]
    fn send_by_returns_the_value_on_timeout() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::new("ch"));
        let tx = Arc::clone(&ch);
        sim.spawn("sender", move |ctx| {
            assert_eq!(tx.send_by(ctx, 42, 3u64), Err(42), "value recovered");
            assert_eq!(tx.pending_senders(), 0, "offer withdrawn");
            // The channel is unharmed: a later rendezvous succeeds.
            tx.send(ctx, 43);
        });
        let rx = Arc::clone(&ch);
        sim.spawn("late-receiver", move |ctx| {
            ctx.sleep(10);
            assert_eq!(rx.recv(ctx), 43);
        });
        sim.run().expect("timeout avoids the deadlock");
    }

    #[test]
    fn recv_by_gives_up_without_a_sender() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::<i64>::new("ch"));
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv_by(ctx, 4u64), None);
            // A sender arriving after the timeout still rendezvouses.
            assert_eq!(rx.recv(ctx), 7);
        });
        let tx = Arc::clone(&ch);
        sim.spawn("late-sender", move |ctx| {
            ctx.sleep(10);
            tx.send(ctx, 7);
        });
        sim.run().expect("timeout avoids the deadlock");
    }

    /// The timeout arm of a guarded select: no enabled sender in time
    /// yields `None`, and every registration is removed from every
    /// alternative (the kernel's queue-hygiene assertion would also catch
    /// a leak at end of run).
    #[test]
    fn select_by_unregisters_every_alternative() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::<i64>::new("a"));
        let b = Arc::new(Channel::<i64>::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn("server", move |ctx| {
            assert_eq!(
                select_by(ctx, &mut [(&*a1, true), (&*b1, true)], 5u64),
                None
            );
            assert_eq!(a1.state.lock().receivers.len(), 0);
            assert_eq!(b1.state.lock().receivers.len(), 0);
        });
        sim.run().expect("clean run");
    }

    /// The rendezvous-vs-timeout race explored exhaustively: in every
    /// schedule either the exchange completes on both sides or fails on
    /// both sides — the staleness guards (parked-only senders in the
    /// receive scan, parked-only receivers in the send scan) make a
    /// half-completed rendezvous impossible.
    #[test]
    fn timeout_rendezvous_race_explored_exhaustively() {
        let (_, stats) = bloom_sim::ExploreConfig::new(20_000).run(
            || {
                let mut sim = Sim::new();
                let ch = Arc::new(Channel::new("ch"));
                let tx = Arc::clone(&ch);
                sim.spawn("sender", move |ctx| {
                    if let Err(v) = tx.send_by(ctx, 7, 2u64) {
                        assert_eq!(v, 7, "withdrawn value intact");
                        ctx.emit("send-failed", &[]);
                    } else {
                        ctx.emit("send-ok", &[]);
                    }
                });
                let rx = Arc::clone(&ch);
                sim.spawn("receiver", move |ctx| {
                    ctx.sleep(2); // lands on the sender's deadline
                    match rx.recv_by(ctx, 4u64) {
                        Some(v) => {
                            assert_eq!(v, 7);
                            ctx.emit("recv-ok", &[]);
                        }
                        None => ctx.emit("recv-failed", &[]),
                    }
                });
                sim
            },
            |decisions, result| {
                let report = result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("schedule {decisions:?}: {e}"));
                let sent = report.trace.count_user("send-ok");
                let received = report.trace.count_user("recv-ok");
                assert_eq!(
                    sent, received,
                    "schedule {decisions:?}: rendezvous completed on one side only"
                );
                for p in &report.processes {
                    assert_eq!(
                        p.status,
                        bloom_sim::ProcessStatus::Finished,
                        "schedule {decisions:?}: {} did not finish",
                        p.name
                    );
                }
            },
        );
        assert!(stats.complete, "decision space fully explored");
    }

    #[test]
    #[should_panic(expected = "every guard false")]
    fn all_false_guards_panic() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::<i64>::new("a"));
        let a1 = Arc::clone(&a);
        sim.spawn("server", move |ctx| {
            let _ = select(ctx, &mut [(&*a1, false)]);
        });
        // The panic surfaces through the simulation error.
        if let Err(e) = sim.run() {
            panic!("{e}");
        }
    }

    /// A server daemon: `select`s over `a` and `b` forever, its `b`
    /// alternative closed after two messages (so some schedules
    /// deadlock a client on `b`), through the unwinding or the
    /// cancellable form.
    fn server_sim(cancellable: bool) -> Sim {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::new("a"));
        let b = Arc::new(Channel::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn_daemon("server", move |ctx| {
            for served in 0.. {
                let alternatives = &mut [(&*a1, true), (&*b1, served < 2)];
                let (which, v) = if cancellable {
                    match select_cancellable(ctx, alternatives) {
                        Ok(got) => got,
                        Err(Cancelled) => return,
                    }
                } else {
                    select(ctx, alternatives)
                };
                ctx.emit("served", &[which as i64, v]);
            }
        });
        for (name, chan, sends) in [("c0", &a, 1), ("c1", &b, 2), ("c2", &a, 1)] {
            let chan = Arc::clone(chan);
            sim.spawn(name, move |ctx| {
                for v in 0..sends {
                    chan.send(ctx, v);
                }
            });
        }
        sim
    }

    /// The cancellable select changes how the daemon ends and nothing
    /// else: on every schedule, clean or deadlocked, the outcome, the
    /// trace, the statuses and the exported metrics are byte-identical to
    /// the unwinding select's, and only the unwinding one unwinds the
    /// server at shutdown.
    #[test]
    fn cancellable_select_matches_unwinding_select_on_every_schedule() {
        let explore = |cancellable: bool| {
            let (journal, stats) = bloom_sim::ExploreConfig::new(50_000).run(
                move || server_sim(cancellable),
                |_, result| {
                    let (outcome, report) = match result {
                        Ok(report) => ("ok".to_string(), report),
                        Err(e) => (format!("{:?}", e.kind), &*e.report),
                    };
                    let statuses: Vec<_> =
                        report.processes.iter().map(|p| p.status.clone()).collect();
                    let run = format!(
                        "{outcome}\n{:?}\n{statuses:?}\n{}",
                        report.trace,
                        bloom_sim::export::to_jsonl(&report.trace, &report.metrics)
                    );
                    (run, report.metrics.shutdown_unwinds)
                },
            );
            assert!(stats.complete);
            journal
        };
        let (returning, unwinding) = (explore(true), explore(false));
        assert_eq!(returning.len(), unwinding.len());
        assert!(returning.len() > 100, "{} schedules", returning.len());
        for outcome in ["ok", "Deadlock"] {
            assert!(returning.iter().any(|r| r.value.0.starts_with(outcome)));
        }
        for (r, u) in returning.iter().zip(&unwinding) {
            assert_eq!(r.choices, u.choices);
            assert_eq!(r.value.0, u.value.0, "schedule {:?}", r.choices);
            assert_eq!(u.value.1, r.value.1 + 1, "schedule {:?}", r.choices);
        }
    }

    /// A server that ignores `Cancelled` and selects again is unwound by
    /// the second select instead of spinning forever in shutdown.
    #[test]
    fn server_ignoring_cancelled_is_unwound_instead_of_hanging_shutdown() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::<i64>::new("a"));
        let a1 = Arc::clone(&a);
        let cancels = Arc::new(Mutex::new(0));
        let c = Arc::clone(&cancels);
        sim.spawn_daemon("server", move |ctx| loop {
            if a1.recv_cancellable(ctx).is_err() {
                *c.lock() += 1;
            }
        });
        sim.spawn("client", move |ctx| a.send(ctx, 1));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(sim.run());
        });
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("shutdown hung")
            .expect("clean run");
        assert_eq!(*cancels.lock(), 1, "Cancelled is handed out once");
        assert_eq!(report.metrics.shutdown_unwinds, 1);
        assert_eq!(
            report.processes[0].status,
            bloom_sim::ProcessStatus::Cancelled
        );
    }

    /// A process parked in the cancellable select that is killed by a
    /// fault plan, or aborted by deadlock recovery, still unwinds: its
    /// body never sees a return, the unregister guard empties every
    /// receiver queue, and it ends `Killed` or `Cancelled`.
    #[test]
    fn kill_and_abort_in_the_cancellable_select_still_unwind() {
        for kill in [true, false] {
            let mut sim = Sim::new();
            if kill {
                // The park inside the select is the victim's first
                // scheduling point.
                sim.set_fault_plan(bloom_sim::FaultPlan::new().kill("victim", 1));
            } else {
                sim.enable_deadlock_recovery();
            }
            let a = Arc::new(Channel::<i64>::new("a"));
            let b = Arc::new(Channel::<i64>::new("b"));
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            sim.spawn("victim", move |ctx| {
                let got = select_cancellable(ctx, &mut [(&*a1, true), (&*b1, true)]);
                ctx.emit("returned", &[got.is_ok() as i64]);
            });
            let report = sim.run().expect("the victim's end completes the run");
            let expected = if kill {
                bloom_sim::ProcessStatus::Killed
            } else {
                bloom_sim::ProcessStatus::Cancelled
            };
            assert_eq!(report.processes[0].status, expected, "kill={kill}");
            assert_eq!(report.trace.count_user("returned"), 0, "kill={kill}");
            assert_eq!(report.metrics.shutdown_unwinds, 0, "kill={kill}");
            assert_eq!(report.recovered.len(), usize::from(!kill));
            assert!(a.state.lock().receivers.is_empty(), "kill={kill}");
            assert!(b.state.lock().receivers.is_empty(), "kill={kill}");
        }
    }

    /// A cancelled return removes the registrations, as the unwind did.
    #[test]
    fn cancelled_return_unregisters_every_alternative() {
        let mut sim = Sim::new();
        let a = Arc::new(Channel::<i64>::new("a"));
        let b = Arc::new(Channel::<i64>::new("b"));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn_daemon("server", move |ctx| {
            let got = select_cancellable(ctx, &mut [(&*a1, true), (&*b1, true)]);
            assert_eq!(got, Err(Cancelled));
        });
        sim.spawn("client", |ctx| ctx.yield_now());
        let report = sim.run().expect("clean run");
        assert_eq!(report.metrics.shutdown_unwinds, 0);
        assert!(a.state.lock().receivers.is_empty());
        assert!(b.state.lock().receivers.is_empty());
    }

    #[test]
    fn unmatched_send_deadlocks_with_channel_name() {
        let mut sim = Sim::new();
        let ch = Arc::new(Channel::new("lonely"));
        let tx = Arc::clone(&ch);
        sim.spawn("sender", move |ctx| tx.send(ctx, 5));
        let err = sim.run().expect_err("deadlock");
        assert!(err.to_string().contains("lonely.send"));
    }

    #[test]
    fn ping_pong_under_random_schedules() {
        for seed in 0..6 {
            let mut sim = Sim::new();
            sim.set_policy(RandomPolicy::new(seed));
            let ping = Arc::new(Channel::new("ping"));
            let pong = Arc::new(Channel::new("pong"));
            let (p1, q1) = (Arc::clone(&ping), Arc::clone(&pong));
            sim.spawn("alice", move |ctx| {
                for i in 0..10 {
                    p1.send(ctx, i);
                    assert_eq!(q1.recv(ctx), i * 2);
                }
            });
            let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
            sim.spawn("bob", move |ctx| {
                for _ in 0..10 {
                    let v = p2.recv(ctx);
                    q2.send(ctx, v * 2);
                }
            });
            sim.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
