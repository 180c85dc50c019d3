//! Semaphore readers/writers solutions ("pass the baton").
//!
//! The state (active/waiting sets) lives behind one lock; blocked
//! processes wait on gate semaphores and are granted by whoever changes
//! the state — the releaser applies the grant *before* waking, so woken
//! processes never re-check (no barging window), and emits the grantee's
//! `enter` event at the decision point (see [`bloom_sim::Ctx::emit_for`])
//! so the trace reflects grant order exactly.
//!
//! The grant logic encodes exclusion and priority **together**, which is
//! exactly the monolithic structure Bloom's ease-of-use requirement
//! penalizes: changing the priority policy rewrites the grant logic
//! wholesale, and the [`SolutionDesc`] component attribution reflects that.

use super::{ReadersWriters, RwVariant};
use crate::events::{READ, WRITE};
use bloom_core::events::{enter, enter_for, exit, request};
use bloom_core::{Directness, ImplUnit, InfoType, MechanismId, SolutionDesc};
use bloom_semaphore::Semaphore;
use bloom_sim::{Ctx, Pid};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

#[derive(Default)]
struct RwState {
    active_readers: u32,
    writer_active: bool,
    waiting_readers: VecDeque<Pid>,
    waiting_writers: VecDeque<Pid>,
    /// FCFS variant only: explicit arrival queue with per-request gates.
    fcfs_queue: VecDeque<(Kind, Pid, Arc<Semaphore>)>,
}

/// Pass-the-baton readers/writers over semaphores.
pub struct SemaphoreRw {
    variant: RwVariant,
    state: Mutex<RwState>,
    read_gate: Semaphore,
    write_gate: Semaphore,
}

impl SemaphoreRw {
    /// Creates the database for the given variant.
    pub fn new(variant: RwVariant) -> Self {
        SemaphoreRw {
            variant,
            state: Mutex::new(RwState::default()),
            read_gate: Semaphore::strong("rw.read_gate", 0),
            write_gate: Semaphore::strong("rw.write_gate", 0),
        }
    }

    /// Grants every waiting reader (in FIFO order), emitting their enters
    /// at the decision point. Returns how many `v` operations to perform.
    fn grant_all_readers(s: &mut RwState, ctx: &Ctx) -> usize {
        let n = s.waiting_readers.len();
        s.active_readers += n as u32;
        for pid in s.waiting_readers.drain(..) {
            enter_for(ctx, pid, READ, &[]);
        }
        n
    }

    /// Grants the longest-waiting writer, if any.
    fn grant_one_writer(s: &mut RwState, ctx: &Ctx) -> bool {
        match s.waiting_writers.pop_front() {
            Some(pid) => {
                s.writer_active = true;
                enter_for(ctx, pid, WRITE, &[]);
                true
            }
            None => false,
        }
    }

    fn end_read(&self, ctx: &Ctx) {
        let grants = {
            let mut s = self.state.lock();
            s.active_readers -= 1;
            match self.variant {
                RwVariant::ReadersPriority | RwVariant::WritersPriority => {
                    // Readers never wait while no writer is active, so the
                    // only hand-off at read-exit is to a writer when we
                    // were last out.
                    if s.active_readers == 0 && Self::grant_one_writer(&mut s, ctx) {
                        Grants::Writer
                    } else {
                        Grants::None
                    }
                }
                RwVariant::Fcfs => Grants::Fcfs(Self::drain_fcfs(&mut s, ctx)),
            }
        };
        grants.release(self, ctx);
    }

    fn start_write(&self, ctx: &Ctx) {
        let gate = {
            let mut s = self.state.lock();
            let admit = match self.variant {
                RwVariant::ReadersPriority | RwVariant::WritersPriority => {
                    !s.writer_active && s.active_readers == 0
                }
                RwVariant::Fcfs => {
                    s.fcfs_queue.is_empty() && !s.writer_active && s.active_readers == 0
                }
            };
            if admit {
                s.writer_active = true;
                enter(ctx, WRITE, &[]);
                None
            } else {
                match self.variant {
                    RwVariant::Fcfs => {
                        let gate = Arc::new(Semaphore::strong("rw.fcfs.private", 0));
                        s.fcfs_queue
                            .push_back((Kind::Write, ctx.pid(), Arc::clone(&gate)));
                        Some(WaitOn::Private(gate))
                    }
                    _ => {
                        s.waiting_writers.push_back(ctx.pid());
                        Some(WaitOn::WriteGate)
                    }
                }
            }
        };
        match gate {
            None => {}
            Some(WaitOn::WriteGate) => self.write_gate.p(ctx),
            Some(WaitOn::Private(gate)) => gate.p(ctx),
            Some(WaitOn::ReadGate) => unreachable!("writers never wait on the read gate"),
        }
    }

    fn end_write(&self, ctx: &Ctx) {
        let grants = {
            let mut s = self.state.lock();
            s.writer_active = false;
            match self.variant {
                RwVariant::ReadersPriority => {
                    if !s.waiting_readers.is_empty() {
                        Grants::Readers(Self::grant_all_readers(&mut s, ctx))
                    } else if Self::grant_one_writer(&mut s, ctx) {
                        Grants::Writer
                    } else {
                        Grants::None
                    }
                }
                RwVariant::WritersPriority => {
                    if Self::grant_one_writer(&mut s, ctx) {
                        Grants::Writer
                    } else if !s.waiting_readers.is_empty() {
                        Grants::Readers(Self::grant_all_readers(&mut s, ctx))
                    } else {
                        Grants::None
                    }
                }
                RwVariant::Fcfs => Grants::Fcfs(Self::drain_fcfs(&mut s, ctx)),
            }
        };
        grants.release(self, ctx);
    }

    /// FCFS baton: grant queue heads while they are compatible — a run of
    /// readers shares, a writer needs the database empty and blocks the
    /// queue behind it. Enters are emitted here, in queue order.
    fn drain_fcfs(s: &mut RwState, ctx: &Ctx) -> Vec<Arc<Semaphore>> {
        let mut grants = Vec::new();
        while let Some((kind, pid, _)) = s.fcfs_queue.front() {
            match kind {
                Kind::Read if !s.writer_active => {
                    enter_for(ctx, *pid, READ, &[]);
                    let (_, _, gate) = s.fcfs_queue.pop_front().expect("front exists");
                    s.active_readers += 1;
                    grants.push(gate);
                }
                Kind::Write if !s.writer_active && s.active_readers == 0 => {
                    enter_for(ctx, *pid, WRITE, &[]);
                    let (_, _, gate) = s.fcfs_queue.pop_front().expect("front exists");
                    s.writer_active = true;
                    grants.push(gate);
                    break;
                }
                _ => break,
            }
        }
        grants
    }
}

enum WaitOn {
    ReadGate,
    WriteGate,
    Private(Arc<Semaphore>),
}

/// Grants decided under the state lock, released (gate `v`s) outside it.
enum Grants {
    None,
    Writer,
    Readers(usize),
    Fcfs(Vec<Arc<Semaphore>>),
}

impl Grants {
    fn release(self, rw: &SemaphoreRw, ctx: &Ctx) {
        match self {
            Grants::None => {}
            Grants::Writer => rw.write_gate.v(ctx),
            Grants::Readers(n) => {
                for _ in 0..n {
                    rw.read_gate.v(ctx);
                }
            }
            Grants::Fcfs(gates) => {
                for gate in gates {
                    gate.v(ctx);
                }
            }
        }
    }
}

impl ReadersWriters for SemaphoreRw {
    fn read(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, READ, &[]);
        // Admission: either immediate (enter emitted here) or granted
        // later by a releaser (enter emitted at the grant).
        let wait = {
            let mut s = self.state.lock();
            let admit = match self.variant {
                RwVariant::ReadersPriority => !s.writer_active,
                RwVariant::WritersPriority => !s.writer_active && s.waiting_writers.is_empty(),
                RwVariant::Fcfs => s.fcfs_queue.is_empty() && !s.writer_active,
            };
            if admit {
                s.active_readers += 1;
                enter(ctx, READ, &[]);
                None
            } else if self.variant == RwVariant::Fcfs {
                let gate = Arc::new(Semaphore::strong("rw.fcfs.private", 0));
                s.fcfs_queue
                    .push_back((Kind::Read, ctx.pid(), Arc::clone(&gate)));
                Some(WaitOn::Private(gate))
            } else {
                s.waiting_readers.push_back(ctx.pid());
                Some(WaitOn::ReadGate)
            }
        };
        match wait {
            None => {}
            Some(WaitOn::ReadGate) => self.read_gate.p(ctx),
            Some(WaitOn::Private(gate)) => gate.p(ctx),
            Some(WaitOn::WriteGate) => unreachable!("readers never wait on the write gate"),
        }
        body();
        exit(ctx, READ, &[]);
        self.end_read(ctx);
    }

    fn write(&self, ctx: &Ctx, body: &mut dyn FnMut()) {
        request(ctx, WRITE, &[]);
        self.start_write(ctx);
        body();
        exit(ctx, WRITE, &[]);
        self.end_write(ctx);
    }

    fn desc(&self) -> SolutionDesc {
        let variant_tag = match self.variant {
            RwVariant::ReadersPriority => "rp",
            RwVariant::WritersPriority => "wp",
            RwVariant::Fcfs => "fcfs",
        };
        // Honest attribution: in a baton solution the admission test and
        // the release policy realize exclusion *and* priority together, so
        // both constraints point at variant-specific components — low
        // constraint independence, as the paper expects of semaphores.
        SolutionDesc {
            problem: self.variant.problem(),
            mechanism: MechanismId::Semaphore,
            units: vec![
                ImplUnit::new(
                    "rw-exclusion",
                    &format!("baton:admission-test-{variant_tag}"),
                ),
                ImplUnit::new(
                    self.variant.priority_constraint(),
                    &format!("baton:release-policy-{variant_tag}"),
                ),
            ],
            info_handling: [
                (InfoType::RequestType, Directness::Indirect),
                (InfoType::SyncState, Directness::Indirect),
                match self.variant {
                    RwVariant::Fcfs => (InfoType::RequestTime, Directness::Workaround),
                    _ => (InfoType::RequestType, Directness::Indirect),
                },
            ]
            .into_iter()
            .collect::<BTreeMap<_, _>>(),
            workarounds: match self.variant {
                RwVariant::Fcfs => vec!["explicit arrival queue with private gates".into()],
                _ => vec!["hand-maintained reader/writer counts".into()],
            },
        }
    }
}
