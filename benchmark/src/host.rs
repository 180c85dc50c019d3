//! Host stamp and the `/proc` readings the metrics need.

use std::path::Path;

/// The first word of a `/proc/self/status` field.
fn status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| Some(rest.split_whitespace().next()?.to_string()))
}

/// A `kB` field of `/proc/self/status`, such as `VmHWM`.
fn status_kb(field: &str) -> Option<u64> {
    status_field(field)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Simulator host threads alive in this process (the pool never shrinks,
/// so this is its high-water mark). Counted by thread name, so real-thread
/// runs that are still exiting do not blur the count.
pub fn pool_threads() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sim-host-"))
        .count() as u64
}

/// `/proc/loadavg`'s three load figures.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host stamp every result carries, as one JSON object.
pub fn stamp_json(
    workload: &str,
    seed: u64,
    trace: bool,
    load_start: &str,
    load_end: &str,
) -> String {
    use bloom_bench::hostmeta;
    format!(
        "{{\"host\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\
         \"host_cores\":{},\"cpus_allowed\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\
         \"date\":\"{}\",\"loadavg_start\":\"{load_start}\",\"loadavg_end\":\"{load_end}\"}}}}",
        hostmeta::host_cores(),
        status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string()),
        hostmeta::rustc_version().replace('"', "'"),
        git_commit(),
        hostmeta::today_utc(),
    )
}
