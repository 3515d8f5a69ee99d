//! Process and machine facts read from `/proc` (Linux; elsewhere every
//! reader returns `None` and the dependent metrics read 0).

use std::path::Path;

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Resident set size of this process, MiB.
pub fn rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&text, "VmRSS").map(|kib| kib as f64 / 1024.0)
}

/// Involuntary context switches summed over the process's live threads.
pub fn invol_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
            total += status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Some(total)
}

/// User + system CPU seconds consumed by the process (all threads).
pub fn cpu_seconds() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. 12th and 13th after ")".
    let rest = &text[text.rfind(')')? + 1..];
    let mut it = rest.split_whitespace().skip(11);
    let utime: f64 = it.next()?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI.
    Some((utime + stime) / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type and device of the mount that holds — or, while
/// `path` does not exist yet, will hold — `path` (`"ext4 on /dev/vda"`),
/// from `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let abs = cwd.join(path);
    let Some(abs) = abs.ancestors().find_map(|a| std::fs::canonicalize(a).ok()) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(dev), Some(mount), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(n, _)| mount.len() >= *n) {
            best = Some((mount.len(), format!("{fstype} on {dev}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}
