//! The provenance block every result carries: which host, which
//! toolchain, which source, which inputs.

use std::fmt::Write as _;

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, type, size)` for each cache of CPU 0, from sysfs.
fn caches() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{dir}/level")),
            read_trim(&format!("{dir}/type")),
            read_trim(&format!("{dir}/size")),
        ) else {
            break;
        };
        out.push((level, kind, size));
    }
    out
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub struct Inputs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub deck_lines: usize,
    pub deck_bytes: usize,
    pub shards: usize,
    pub threads: usize,
    /// The host's speed over the run, when the run measured it.
    pub host_speed: Option<crate::speed::HostSpeed>,
}

/// One-line JSON object describing host, build and inputs.
pub fn provenance(inp: &Inputs) -> String {
    let caches = caches()
        .iter()
        .map(|(l, t, s)| {
            format!(
                "{{\"level\": {l}, \"type\": {}, \"size\": {}}}",
                json_str(t),
                json_str(s)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let commit = std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into());
    let source = std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"provenance\": {{\"cpu_model\": {}, \"nproc\": {}, \"caches\": [{caches}], \
         \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}, \
         \"counting_alloc\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"deck_lines\": {}, \"deck_bytes\": {}, \"shards\": {}, \"threads\": {}, \
         \"host_speed\": {}}}}}",
        json_str(&cpu_model()),
        crate::nproc(),
        json_str(&read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit),
        json_str(&source),
        cfg!(feature = "counting-alloc"),
        json_str(inp.workload),
        inp.seed,
        inp.seconds,
        inp.trace,
        inp.deck_lines,
        inp.deck_bytes,
        inp.shards,
        inp.threads,
        inp.host_speed.map_or_else(
            || "null".to_string(),
            |s| format!(
                "{{\"one_cpu\": {:?}, \"all_cpus\": {:?}}}",
                s.one_cpu, s.all_cpus
            )
        ),
    )
}
