//! Per-thread CPU accounting from procfs: time on CPU, time runnable
//! but waiting for a CPU, and context switches.

use std::path::Path;

#[derive(Debug, Clone, Copy, Default)]
pub struct TaskStat {
    /// Nanoseconds spent running.
    pub run_ns: u64,
    /// Nanoseconds spent runnable on a run queue, waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx: u64,
}

impl TaskStat {
    pub fn since(&self, before: &TaskStat) -> TaskStat {
        TaskStat {
            run_ns: self.run_ns.saturating_sub(before.run_ns),
            wait_ns: self.wait_ns.saturating_sub(before.wait_ns),
            ctx: self.ctx.saturating_sub(before.ctx),
        }
    }

    pub fn add(&mut self, other: &TaskStat) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.ctx += other.ctx;
    }
}

fn read_task(dir: &Path) -> Option<TaskStat> {
    let sched = std::fs::read_to_string(dir.join("schedstat")).ok()?;
    let mut f = sched.split_whitespace().map(|x| x.parse::<u64>().ok());
    let run_ns = f.next()??;
    let wait_ns = f.next()??;
    let status = std::fs::read_to_string(dir.join("status")).ok()?;
    let ctx = status
        .lines()
        .filter(|l| l.contains("ctxt_switches:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some(TaskStat {
        run_ns,
        wait_ns,
        ctx,
    })
}

/// The calling thread's counters.
pub fn thread_self() -> TaskStat {
    read_task(Path::new("/proc/thread-self")).unwrap_or_default()
}

/// Every thread of this process: `(tid, name, counters)`. Thread names
/// are the kernel's 15-byte `comm`.
pub fn tasks() -> Vec<(u64, String, TaskStat)> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = e.path();
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        if let Some(st) = read_task(&path) {
            out.push((tid, name, st));
        }
    }
    out
}

/// Counter growth per thread-name group between two [`tasks`] snapshots;
/// `group` maps a thread name to its group (or `None` to skip it).
/// Threads that appear only in `after` count from zero.
pub fn grouped_delta(
    before: &[(u64, String, TaskStat)],
    after: &[(u64, String, TaskStat)],
    group: impl Fn(&str) -> Option<&'static str>,
) -> Vec<(&'static str, TaskStat)> {
    let mut out: Vec<(&'static str, TaskStat)> = Vec::new();
    for (tid, name, st) in after {
        let Some(g) = group(name) else { continue };
        let base = before
            .iter()
            .find(|(t, _, _)| t == tid)
            .map(|(_, _, s)| *s)
            .unwrap_or_default();
        let d = st.since(&base);
        match out.iter_mut().find(|(k, _)| *k == g) {
            Some((_, acc)) => acc.add(&d),
            None => out.push((g, d)),
        }
    }
    out
}
