//! Time in seconds and in host hand-offs.
//!
//! The shared host this benchmark was written on drifts: its speed moved
//! by a third within minutes, far more than any regression worth gating.
//! So every stretch of timed work is also divided by a reference measured
//! around it: the time of one OS-thread hand-off, which is what each
//! simulator scheduling point costs. The reference shares no code with
//! the repository, so no change to the repository can move it.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// OS-thread hand-offs in one reference measurement (about 25 ms).
const REFERENCE_HANDOFFS: u32 = 8_000;
/// Longest stretch of an item timed against one pair of references.
const SEGMENT_S: f64 = 0.25;
/// The hand-off time set-up seconds are scaled to: about this host's own
/// when it is quiet, so that scaled and measured seconds then agree.
const NOMINAL_HANDOFF_S: f64 = 3e-6;

/// Seconds per OS-thread hand-off on this host right now: two threads
/// pass a token back and forth under a mutex and condition variable, one
/// small allocation per hand-off.
pub fn handoff_s() -> f64 {
    let token = (Mutex::new(0u32), Condvar::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for me in 0..2 {
            let (lock, cv) = &token;
            s.spawn(move || {
                let mut turn = lock.lock().expect("reference threads do not panic");
                while *turn < REFERENCE_HANDOFFS {
                    if *turn % 2 == me {
                        *turn = *std::hint::black_box(Box::new(*turn)) + 1;
                        cv.notify_one();
                    } else {
                        turn = cv.wait(turn).expect("reference threads do not panic");
                    }
                }
                cv.notify_one();
            });
        }
    });
    t0.elapsed().as_secs_f64() / f64::from(REFERENCE_HANDOFFS)
}

/// Set-up seconds scaled to a host whose hand-off takes
/// [`NOMINAL_HANDOFF_S`], by the reference measured right after set-up.
pub fn scaled_setup(secs: f64) -> f64 {
    secs * NOMINAL_HANDOFF_S / handoff_s()
}

/// Times a pass's items. Each item is cut into segments of at most about
/// [`SEGMENT_S`]; each segment's seconds are divided by the reference
/// measured just before and just after it, and the references' own time
/// is left out of the item's.
pub struct Clock {
    mid_item: bool,
    segment: Mutex<Segment>,
}

struct Segment {
    start: Instant,
    before: f64,
    secs: f64,
    handoffs: f64,
}

impl Segment {
    fn close(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let after = handoff_s();
        self.secs += secs;
        self.handoffs += secs / ((self.before + after) / 2.0);
        self.before = after;
        self.start = Instant::now();
    }
}

impl Clock {
    /// A clock whose first item starts now. With `mid_item` off, the
    /// reference is measured only between items (traced passes, whose
    /// spans must not hold reference time).
    pub fn new(mid_item: bool) -> Self {
        let before = handoff_s();
        Clock {
            mid_item,
            segment: Mutex::new(Segment {
                start: Instant::now(),
                before,
                secs: 0.0,
                handoffs: 0.0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Segment> {
        self.segment
            .lock()
            .expect("the clock never panics while held")
    }

    /// Called between two runs of an item: closes the segment once it has
    /// lasted [`SEGMENT_S`], so a long item is scaled by the host's speed
    /// along it rather than at its ends only.
    pub fn tick(&self) {
        if self.mid_item {
            let mut segment = self.lock();
            if segment.start.elapsed().as_secs_f64() >= SEGMENT_S {
                segment.close();
            }
        }
    }

    /// Ends the current item and starts the next: the item's seconds and
    /// its time in hand-offs.
    pub fn end_item(&self) -> (f64, f64) {
        let mut segment = self.lock();
        segment.close();
        let out = (segment.secs, segment.handoffs);
        segment.secs = 0.0;
        segment.handoffs = 0.0;
        out
    }
}
