//! Global pool of reusable process-host threads.
//!
//! The seed kernel spawned one OS thread per simulated process per run and
//! joined them all at shutdown — thousands of spawn/join cycles per second
//! of exploration, which dominated the explorers' hot path (a spawn+join
//! pair costs an order of magnitude more than a whole quantum). Hosts in
//! this pool park between runs instead: a finished host pushes its inbox
//! baton back onto the idle stack, and the next dispatch hands it the next
//! process body directly.
//!
//! Two properties keep this invisible to the simulation semantics:
//!
//! * **Which** OS thread hosts a process is unobservable. Process bodies
//!   only interact through [`crate::kernel::Shared`] (batons, the state
//!   mutex, the trace), never through thread identity, and the kernel's
//!   one-running-process invariant means a host is handed a job only when
//!   it is the unique runnable process of its simulation. Determinism is
//!   therefore untouched — verified byte-for-byte by the equivalence tests
//!   against the seed protocol (`SimConfig::reuse_hosts = false`).
//! * A host is returned to the pool only after the process body has fully
//!   returned or unwound, so a recycled host can never observe state from
//!   its previous tenant. It re-idles *before* it lowers its simulation's
//!   job gate: the gate is what the simulation waits on before it returns,
//!   so by then every host it used is back on the idle stack, and the
//!   next simulation's first dispatches reuse them instead of growing the
//!   pool. Lowering the gate after re-idling is safe: the host holds its
//!   own handle to the finished simulation, and a job handed to its inbox
//!   meanwhile waits in the baton until the host takes it.
//!
//! The pool grows to the high-water mark of concurrently live processes
//! across all simulations in the OS process (explorer workers each run one
//! simulation at a time, so this stays small) and never shrinks; parked
//! hosts cost one blocked thread each.

use crate::baton::{Baton, Go};
use crate::ctx::Ctx;
use crate::kernel::{run_process, Shared};
use crate::types::Pid;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A not-yet-started process body, queued in its [`crate::kernel::ProcSlot`]
/// until the kernel first dispatches the process.
pub(crate) type PendingJob = Box<dyn FnOnce(&Ctx) + Send + 'static>;

/// One unit of host work: run `f` as process `pid` of `shared`, which
/// later dispatches reach through `baton`.
pub(crate) struct Job {
    pub shared: Arc<Shared>,
    pub pid: Pid,
    pub baton: Arc<Baton<Go>>,
    pub f: PendingJob,
}

struct HostPool {
    /// Inboxes of parked hosts, ready to be handed a job.
    idle: Mutex<Vec<Arc<Baton<Job>>>>,
}

static POOL: OnceLock<HostPool> = OnceLock::new();
static HOST_SEQ: AtomicUsize = AtomicUsize::new(0);

fn pool() -> &'static HostPool {
    POOL.get_or_init(|| HostPool {
        idle: Mutex::new(Vec::new()),
    })
}

/// Hands `job` to an idle host, spawning a fresh host thread only when the
/// pool has none parked (the pool's high-water growth path).
pub(crate) fn dispatch(job: Job) {
    let idle = pool().idle.lock().pop();
    match idle {
        Some(inbox) => inbox.put(job),
        None => {
            let inbox = Arc::new(Baton::new());
            // Put before spawn: the baton buffers one value, so the new
            // host finds its first job waiting.
            inbox.put(job);
            let seq = HOST_SEQ.fetch_add(1, Ordering::Relaxed);
            let host_inbox = Arc::clone(&inbox);
            std::thread::Builder::new()
                .name(format!("sim-host-{seq}"))
                .spawn(move || host_main(host_inbox))
                .expect("failed to spawn simulator host thread");
        }
    }
}

/// Host thread body: serve one process per wakeup, forever.
fn host_main(inbox: Arc<Baton<Job>>) {
    loop {
        let Job {
            shared,
            pid,
            baton,
            f,
        } = inbox.take();
        run_process(&shared, pid, baton, f);
        // Re-idle, then lower the job gate (see the module docs): a
        // simulation returns only after its gate falls, so the next one
        // finds this host idle and the pool size is exact.
        pool().idle.lock().push(Arc::clone(&inbox));
        shared.job_done();
    }
}
