//! Single-slot rendezvous cell used for the kernel's CPU hand-offs.
//!
//! A [`Baton`] carries exactly one value from one thread to another. The
//! kernel gives each process a `Baton<Go>` (the permission to run), and
//! each pooled host thread a `Baton<Job>` (its next process body). Because
//! at most one process holds the CPU, each baton has at most one producer
//! and one consumer at a time, so a mutex-guarded `Option` plus a condvar
//! is all that is needed.

use parking_lot::{Condvar, Mutex};

/// A one-value rendezvous channel.
pub(crate) struct Baton<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Baton<T> {
    /// Creates an empty baton.
    pub(crate) fn new() -> Self {
        Baton {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Deposits a value and wakes the (single) waiter.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already full, which would indicate a violation
    /// of the one-running-process invariant.
    pub(crate) fn put(&self, value: T) {
        {
            let mut slot = self.slot.lock();
            assert!(slot.is_none(), "baton overrun: two concurrent producers");
            *slot = Some(value);
        }
        // Notify after unlocking. Every scheduling point is one `put`, and
        // a waiter notified under the lock wakes straight into the held
        // mutex and sleeps again on the std-backed `parking_lot` (the real
        // crate requeues it onto the mutex instead). On one CPU that costs
        // 6–9 µs per one-way hand-off against 1.5–1.9 µs this way
        // (two-thread ping-pong, two-vCPU Linux VM, pinned). A waiter that
        // finds the value before this notify lands takes it under the lock
        // and treats the late notify as a spurious wakeup.
        self.cv.notify_one();
    }

    /// Blocks until a value is available and takes it.
    pub(crate) fn take(&self) -> T {
        let mut slot = self.slot.lock();
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            self.cv.wait(&mut slot);
        }
    }
}

/// Command handed to a stopped process by whoever holds the CPU.
pub(crate) enum Go {
    /// Run until the next scheduling point.
    Run,
    /// The simulation is over: a cancellable park returns
    /// [`crate::Cancelled`], any other stop unwinds.
    Cancel,
    /// Deadlock recovery chose this process as the victim: unwind (running
    /// drop guards, exactly as for a kill) and hand the CPU on. The process
    /// is recorded as *cancelled*, not crashed.
    Abort,
}

/// A running process's account of why it stopped: the argument of
/// `kernel::stop_process`.
pub(crate) enum Report {
    /// Voluntary yield; the process is still runnable.
    Yielded,
    /// The process parked itself (it is on some wait queue).
    Parked { reason: String },
    /// Parked with a timeout: wake via unpark or when the timer fires.
    ParkedTimeout { reason: String, ticks: u64 },
    /// The process wants to sleep for the given number of virtual ticks.
    Slept { ticks: u64 },
    /// The process closure returned normally.
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn put_then_take_transfers_value() {
        let b = Baton::new();
        b.put(7u32);
        assert_eq!(b.take(), 7);
    }

    #[test]
    fn take_blocks_until_put() {
        let b = Arc::new(Baton::new());
        let b2 = Arc::clone(&b);
        let h = thread::spawn(move || b2.take());
        thread::sleep(std::time::Duration::from_millis(10));
        b.put("hello");
        assert_eq!(h.join().unwrap(), "hello");
    }

    /// `put` notifies after unlocking, so a value can sit in the slot with
    /// its notify still pending. A tight ping-pong hits that window on
    /// nearly every round: each side finds the other's value either before
    /// or after the late notify, and must take each value exactly once.
    #[test]
    fn ping_pong_delivers_every_value_once_in_order() {
        const ROUNDS: u32 = 20_000;
        let ping = Arc::new(Baton::new());
        let pong = Arc::new(Baton::new());
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        let echo = thread::spawn(move || {
            for expected in 0..ROUNDS {
                let value = ping2.take();
                assert_eq!(value, expected, "echo side out of order");
                pong2.put(value);
            }
        });
        for value in 0..ROUNDS {
            ping.put(value);
            assert_eq!(pong.take(), value, "main side out of order");
        }
        echo.join().unwrap();
        assert!(ping.slot.lock().is_none() && pong.slot.lock().is_none());
    }

    #[test]
    #[should_panic(expected = "baton overrun")]
    fn double_put_panics() {
        let b = Baton::new();
        b.put(1);
        b.put(2);
    }
}
