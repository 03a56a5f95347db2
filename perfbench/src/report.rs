//! The result of one benchmark run: named metrics with units, the
//! operation and failure counts, and the host/build description that
//! goes with every result.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained (sample count, percentile used).
    pub note: String,
}

/// Metrics plus the correctness ledger of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

/// At most this many failure descriptions are kept for stderr.
const KEPT_FAILURES: usize = 20;

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    pub fn metric_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        let name = name.into();
        debug_assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Counts one attempted operation, failed unless `ok`; `what`
    /// describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
    }

    /// Adds another ledger's operations and failures to this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>16} {:<6} {}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.note
            );
        }
        let ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "fail_ratio {ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        out
    }

    /// The machine-readable result: the last line of standard output.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which no metric should produce)
/// become -1 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Resets the kernel's resident-set high-water mark of this process, so
/// the next [`peak_rss_mb`] is the peak since now.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB, from the kernel's
/// high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hands freed heap pages back to the kernel.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only walks
        // the allocator's own free lists under its arena locks; it may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One line naming the host and build the numbers came from.
pub fn host_line(pool_width: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} pool_width={pool_width} commit={} source_fnv64={:016x} rustc=\"{}\" profile={}",
        commit(),
        source_digest(Path::new(".")),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree without `.git` (an exported checkout) reports `none`,
/// and the source digest identifies it instead.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => read(&format!(".git/{name}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// FNV-1a over the library sources and specs (paths and bytes, in
/// sorted order): identifies the code measured when no commit is known.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "specs"] {
        collect(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "atl" | "run")
        ) {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        r.check(true, String::new);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "bytes differ".to_string());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.json().starts_with("{\"correct\": false"));
        assert_eq!(r.failures(), ["bytes differ"]);
    }
}
